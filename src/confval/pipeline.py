"""From raw completions to a final verdict: a FileVote filters, retries and
votes with no I/O, and validate_file drives it one wave of queries at a time.

Answers are grouped by (hasError, sorted unique flagged parameters) and the
most frequent group wins; reasons never participate in the vote. Ties prefer
the answer flagging fewer parameters (fewer false alarms), then the
lexicographically smallest parameter list, so the verdict is a pure function
of the response multiset.

A FileVote gives a file num_queries slots, each allowed retry_bound + 1
attempts. A rejected or unparseable completion is discarded and its slot waits
for a retry; a slot is lost on a BackendError or when its attempts run out.
next_wave hands out slots in settling waves and stops at the exact point where
no answer the open slots could still give would change the winner: no other
key, given every open slot, could beat the leader or take a tie from it under
the tie-break above. The valid key wins every tie, so it also stands for every
key not yet seen; a valid leader can at worst be tied by an unseen key. Each
wave, the first included, is the fewest answers after which some key could be
settled. Every first attempt goes before any retry, and every k-th before any
(k+1)-th, which is the order of the paper's fixed rounds (every open slot at
once); so an early-stopped run makes a prefix of that run's calls and, with
answers that depend only on the call's position, votes for the same key.

The vote counts a pool of answers and the reasons are clustered in sorted
order, so neither depends on which thread served which slot, and parallel
backends stay reproducible.
"""

from __future__ import annotations

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


class FileVote:
    """One file's vote, fed one wave at a time. Each distinct completion is
    parsed and filtered once per file. A repeat still uses its slot and counts
    as a vote or a discard, and a rejected repeat still earns its slot a retry.
    An accepted repeat votes with the same response object, so its canonical
    key is computed once per distinct answer.
    """

    def __init__(self, settings: PipelineSettings):
        self.settings = settings
        # open slots by the attempt they make next, one more attempt as a discard
        # first earns it; a wave takes slots of one attempt only, so which
        # thread's call served which slot cannot matter
        self.waiting = [settings.num_queries]
        self.attempt = self.discarded = self.backend_failures = 0
        self.accepted: list[ValidationResponse] = []
        self.tally: Counter = Counter()
        self.readings: dict[str, ValidationResponse | None] = {}

    def next_wave(self) -> int:
        """Take the next settling wave's slots, all of one attempt; 0 when none."""
        open_slots = sum(self.waiting)
        wave = open_slots and _settling_wave(self.tally, open_slots)
        if wave:
            self.attempt = next(a for a, count in enumerate(self.waiting) if count)
            wave = min(wave, self.waiting[self.attempt])
            self.waiting[self.attempt] -= wave
        return wave

    def add(self, results: list[str | BackendError]) -> None:
        """Count one wave's completions and BackendErrors, in any order."""
        readings, accepted, tally = self.readings, self.accepted, self.tally
        for result in results:
            if isinstance(result, BackendError):
                self.backend_failures += 1
                continue
            reading = readings[result] if result in readings else self.read(result)
            if reading is None:
                self.discarded += 1
                if self.attempt < self.settings.retry_bound:
                    if self.attempt + 1 == len(self.waiting):
                        self.waiting.append(0)
                    self.waiting[self.attempt + 1] += 1
            else:
                accepted.append(reading)
                tally[reading.canonical_key()] += 1

    def read(self, completion: str) -> ValidationResponse | None:
        """A new completion's accepted response, kept in readings; None if rejected."""
        try:
            parsed = parse_response(completion)
        except ResponseFormatError:
            parsed = None
        reading = None if parsed is None or validate_response(parsed) is not None else parsed
        self.readings[completion] = reading
        return reading

    def verdict(self, target_key: str) -> Verdict:
        """vote over the accepted answers; ValidationFailedError when none was."""
        if not self.accepted:
            raise ValidationFailedError(
                f"no accepted response after {self.settings.num_queries} slots "
                f"({self.discarded} discarded, {self.backend_failures} backend failures)"
            )
        return vote(self.accepted, discarded_count=self.discarded, target_key=target_key)


def validate_file(
    target: ConfigFile,
    backend: Backend,
    shot_db: ShotDatabase,
    settings: PipelineSettings = PipelineSettings(),
    target_subcategory=None,
) -> Verdict:
    """Full pipeline: shots, prompt, budget, then a FileVote's query waves.

    Raises TokenBudgetExceededError when the target cannot fit and
    ValidationFailedError when no slot ever yields an accepted response.
    """
    shots = select_shots(
        shot_db, target, settings.combination, settings.strategy, settings.seed, target_subcategory
    )
    prompt = build_prompt(target, shots, settings.question_template)
    prompt = fit_to_budget(prompt, backend.config.token_limit)
    file_vote = FileVote(settings)
    while wave := file_vote.next_wave():
        file_vote.add(query_batch(backend, prompt, wave))
    return file_vote.verdict(target.content_key())
