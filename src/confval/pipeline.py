"""From raw completions to a final verdict: filter, retry, vote, explain.

Answers are grouped by (hasError, sorted unique flagged parameters) and the
most frequent group wins; reasons never participate in the vote. Ties prefer
the answer flagging fewer parameters (fewer false alarms), then the
lexicographically smallest parameter list, so the verdict is a pure function
of the response multiset.

A file has num_queries slots, each allowed retry_bound + 1 attempts. A
rejected or unparseable completion is discarded and its slot waits for a
retry; a slot is lost on a BackendError or when its attempts run out. Slots
are queried in settling waves, and querying stops at the exact point where no
answer the open slots could still give would change the winner: no other key,
given every open slot, could beat the leader or take a tie from it under the
tie-break above. The valid key wins every tie, so it also stands for every
key not yet seen; a valid leader can at worst be tied by an unseen key. Each
wave, the first included, is the fewest answers after which some key could be
settled. Every first attempt goes before any retry, and every k-th before any
(k+1)-th, which is the order of the paper's fixed rounds (every open slot at
once); so an early-stopped run makes a prefix of that run's calls and, with
answers that depend only on the call's position, votes for the same key.

Each distinct completion is parsed and filtered once per file. A repeat still
uses its slot and counts as a vote or a discard, and a rejected repeat still
earns its slot a retry. An accepted repeat votes with the same response
object, so its canonical key is computed once per distinct answer.

The vote counts a pool of answers and the reasons are clustered in sorted
order, so neither depends on which thread served which slot, and parallel
backends stay reproducible.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass

from .backend import Backend, query_batch
from .config_model import ConfigFile
from .errors import BackendError, ResponseFormatError, ValidationFailedError
from .prompting import (
    DEFAULT_COMBINATION,
    DEFAULT_QUESTION_TEMPLATE,
    SelectionStrategy,
    ShotCombination,
    ShotDatabase,
    build_prompt,
    fit_to_budget,
    select_shots,
)
from .responses import ValidationResponse, parse_response, valid_answer, validate_response
from .textsim import dominant_representative

DEFAULT_NUM_QUERIES = 10
DEFAULT_RETRY_BOUND = 3

Key = tuple[bool, tuple[str, ...]]
_VALID_KEY: Key = valid_answer().canonical_key()


def _tie_rank(key: Key) -> tuple[int, tuple[str, ...]]:
    """Among keys with equal votes the smallest rank wins: fewer flagged
    parameters, then the smallest parameter tuple."""
    return len(key[1]), key[1]


@dataclass(frozen=True)
class Verdict:
    """The voted aggregate over accepted responses."""

    canonical_key: Key
    tally: int
    total_votes: int
    reasons: tuple[str, ...]
    all_responses: tuple[ValidationResponse, ...]
    discarded_count: int = 0
    target_key: str = ""

    def __post_init__(self):
        if self.tally > self.total_votes:
            raise ValueError("tally cannot exceed total votes")
        if self.hasError != bool(self.reasons):
            raise ValueError("reasons must be non-empty exactly when hasError")

    @property
    def hasError(self) -> bool:
        return self.canonical_key[0]

    @property
    def err_parameters(self) -> tuple[str, ...]:
        return self.canonical_key[1]

    def to_report(self, target: str) -> dict:
        return {
            "target": target,
            "hasError": self.hasError,
            "errParameters": list(self.err_parameters),
            "reasons": list(self.reasons),
            "tally": self.tally,
            "total_votes": self.total_votes,
            "discarded_count": self.discarded_count,
        }


def vote(
    responses: list[ValidationResponse], *, discarded_count: int = 0, target_key: str = ""
) -> Verdict:
    """Frequency voting over canonical keys, order independent."""
    if not responses:
        raise ValueError("cannot vote over zero responses")
    counts = Counter(r.canonical_key() for r in responses)
    best = max(counts.values())
    tied = [key for key, count in counts.items() if count == best]
    winner = min(tied, key=_tie_rank)
    reasons = tuple(_reasons_for_key(responses, winner)) if winner[0] else ()
    return Verdict(
        canonical_key=winner,
        tally=best,
        total_votes=len(responses),
        reasons=reasons,
        all_responses=tuple(responses),
        discarded_count=discarded_count,
        target_key=target_key,
    )


def _reasons_for_key(responses: list[ValidationResponse], key: Key) -> list[str]:
    """One representative reason per flagged parameter.

    For each parameter, the reasons paired with it across winning-key
    responses are clustered by TF-IDF cosine; the dominant cluster's medoid
    speaks for the parameter. Hallucinated stragglers land in small clusters
    and are never chosen. The reasons are clustered in sorted order, so a tie
    between equal clusters does not depend on the order the answers came in.
    """
    winners = [r for r in responses if r.canonical_key() == key]
    selected = []
    for parameter in key[1]:
        pool = []
        for r in winners:
            for name, reason in zip(r.errParameter, r.reason):
                if name == parameter:
                    pool.append(reason)
        if pool:
            selected.append(dominant_representative(sorted(pool)))
    return selected


@dataclass(frozen=True)
class PipelineSettings:
    """Knobs for one validation run; defaults follow the framework defaults."""

    num_queries: int = DEFAULT_NUM_QUERIES
    combination: ShotCombination = DEFAULT_COMBINATION
    strategy: SelectionStrategy = SelectionStrategy.RANDOM
    retry_bound: int = DEFAULT_RETRY_BOUND
    seed: int = 0
    question_template: str = DEFAULT_QUESTION_TEMPLATE

    def __post_init__(self):
        if self.num_queries < 1:
            raise ValueError("num_queries must be at least 1")
        if self.retry_bound < 0:
            raise ValueError("retry_bound must be non-negative")


def _settling_wave(tally: Counter, open_slots: int) -> int:
    """How many open slots to query next; 0 once the vote is settled.

    The vote is settled when no other key, given every open slot, could beat
    the winner or take a tie from it under vote's tie-break. Otherwise the
    wave is the fewest further answers after which some key would be settled,
    so fewer accepted answers could settle none. With nothing counted the
    valid key, which wins every tie, stands for every key, so the first wave
    is half the open slots, rounded up.
    """
    keys = tally or (_VALID_KEY,)
    return min(open_slots, *(_answers_to_settle(key, tally, open_slots) for key in keys))


def _answers_to_settle(key: Key, tally: Counter, open_slots: int) -> int:
    """The fewest further answers, all for key, after which no rival could
    beat key or take a tie from it with every slot still open."""
    rank = _tie_rank(key)
    rivals = [(count, _tie_rank(other) < rank) for other, count in tally.items() if other != key]
    # the valid key wins every tie, so it also stands for every unseen key;
    # a valid key's rival among the unseen keys has no votes and loses ties
    rivals.append((tally[_VALID_KEY], True) if key != _VALID_KEY else (0, False))
    behind = open_slots - tally[key]
    # x answers settle key against a rival once count + open - x < votes + x,
    # or == when key wins their tie
    return max(0, *((count + behind + wins_tie + 1) // 2 for count, wins_tie in rivals))


def _target_rng(seed: int, content_key: str) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{content_key}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _read(completion: str) -> ValidationResponse | None:
    """The accepted response in a completion; None when it does not parse or
    breaks an R1-R4 rule."""
    try:
        parsed = parse_response(completion)
    except ResponseFormatError:
        return None
    return parsed if validate_response(parsed) is None else None


def validate_file(
    target: ConfigFile,
    backend: Backend,
    shot_db: ShotDatabase,
    settings: PipelineSettings = PipelineSettings(),
    target_subcategory=None,
) -> Verdict:
    """Full pipeline: shots, prompt, budget, queries, filter, vote.

    The queries go out in settling waves and stop once the vote is settled.
    Sampled shots are seeded per target content, so results do not depend
    on evaluation order; cosine selection draws nothing and gets no seed.
    Raises TokenBudgetExceededError when the target cannot fit and
    ValidationFailedError when no slot ever yields an accepted response.
    """
    sampled = settings.strategy is not SelectionStrategy.COSINE_SIMILARITY
    rng = _target_rng(settings.seed, target.content_key()) if sampled else None
    shots = select_shots(
        shot_db,
        target.project,
        settings.combination,
        settings.strategy,
        rng,
        target=target,
        target_subcategory=target_subcategory,
    )
    prompt = build_prompt(target, shots, settings.question_template)
    prompt = fit_to_budget(prompt, backend.config.token_limit)

    accepted: list[ValidationResponse] = []
    tally: Counter = Counter()
    discarded = 0
    backend_failures = 0
    # each distinct completion text -> _read's outcome, kept for this file only
    readings: dict[str, ValidationResponse | None] = {}
    # open slots by the attempt they make next; a wave takes slots of one
    # attempt only, so which thread's call served which slot cannot matter
    waiting = [settings.num_queries] + [0] * settings.retry_bound
    while open_slots := sum(waiting):
        wave = _settling_wave(tally, open_slots)
        if wave == 0:
            break
        attempt = next(a for a, count in enumerate(waiting) if count)
        wave = min(wave, waiting[attempt])
        waiting[attempt] -= wave
        for result in query_batch(backend, prompt, wave):
            if isinstance(result, BackendError):
                backend_failures += 1
                continue
            if result in readings:
                reading = readings[result]
            else:
                reading = readings[result] = _read(result)
            if reading is not None:
                accepted.append(reading)
                tally[reading.canonical_key()] += 1
                continue
            discarded += 1
            if attempt < settings.retry_bound:
                waiting[attempt + 1] += 1

    if not accepted:
        raise ValidationFailedError(
            f"no accepted response after {settings.num_queries} slots "
            f"({discarded} discarded, {backend_failures} backend failures)"
        )
    return vote(accepted, discarded_count=discarded, target_key=target.content_key())
