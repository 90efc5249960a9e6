"""Shot selection and prompt assembly under a token budget.

A prompt is: N worked examples (shots), the file under validation, then the
directive question demanding a JSON answer. Shots come from the generated
corpus's shot pool, preferring the target's own project and falling back to
other projects' pools. The budget logic prefers dropping valid-config shots
before misconfig shots (the latter carry more signal), and compresses the
target to INI as a last resort before giving up.
"""

from __future__ import annotations

import hashlib
import math
import random
import threading
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .config_model import ConfigFile, compress, frozen_cached_property, render_config
from .errors import ConfvalError, InsufficientShotsError, TokenBudgetExceededError
from .misconfig_gen import MANIFEST_NAME, DatasetSplit, Label, LabeledFile, load_dataset
from .responses import ValidationResponse, misconfig_answer, valid_answer
from .textsim import TfidfIndex, rank_by_similarity, term_counts

DEFAULT_QUESTION_TEMPLATE = (
    "Are there any mistakes in the above configuration file for [PROJECT] "
    "version [VERSION]? Respond in a JSON format similar to the following: "
    '{"hasError": true, "errParameter": ["parameter.name"], '
    '"reason": ["explanation of the mistake"]}'
)


def estimate_tokens(text: str) -> int:
    """Default budget heuristic: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Shot:
    """A labeled example file; the answer the model should produce follows
    from its label."""

    labeled: LabeledFile

    @property
    def label(self) -> Label:
        return self.labeled.label

    @property
    def ground_truth_answer(self) -> ValidationResponse:
        return labeled_answer(self.labeled)

    @property
    def source_project(self) -> str:
        return self.labeled.file.project

    # A shot is frozen, so its file is rendered and its answer serialised once,
    # however many prompts it goes into.
    @frozen_cached_property
    def rendered_file(self) -> str:
        file = self.labeled.file
        return render_config(file, file.format)

    @frozen_cached_property
    def answer_json(self) -> str:
        return self.ground_truth_answer.to_json()


def labeled_answer(labeled: LabeledFile) -> ValidationResponse:
    """The answer a labeled file should get: its shot answer and the echo mock's reply."""
    if labeled.label is Label.VALID:
        return valid_answer()
    return misconfig_answer(labeled.injected.parameter, labeled.injected.reason)


def shot_from_labeled(labeled: LabeledFile) -> Shot:
    return Shot(labeled)


@dataclass(frozen=True)
class ShotCombination:
    valid_count: int
    misconfig_count: int

    def __post_init__(self):
        if self.valid_count < 0 or self.misconfig_count < 0:
            raise ValueError("shot counts must be non-negative")

    @property
    def total(self) -> int:
        return self.valid_count + self.misconfig_count

    def label(self) -> str:
        return f"{self.valid_count}v{self.misconfig_count}m"


DEFAULT_COMBINATION = ShotCombination(valid_count=1, misconfig_count=3)


def enumerate_shot_combinations(max_shots: int = 5) -> list[ShotCombination]:
    """All (valid, misconfig) splits for 0..max_shots total shots."""
    return [
        ShotCombination(n - m, m) for n in range(max_shots + 1) for m in range(n + 1)
    ]


class SelectionStrategy(Enum):
    RANDOM = "random"
    SAME_SUBCATEGORY = "same_subcategory"
    COSINE_SIMILARITY = "cosine_similarity"


class ShotDatabase:
    """Immutable pool of shots grouped by project and label.

    It also owns the TF-IDF index of each pool that cosine selection ranks,
    built on the first ranking, so runs that never rank build none.
    """

    def __init__(self, shots: Iterable[Shot]):
        self._by_project: dict[str, dict[Label, list[Shot]]] = {}
        for shot in shots:
            slot = self._by_project.setdefault(
                shot.source_project, {Label.VALID: [], Label.MISCONFIG: []}
            )
            slot[shot.label].append(shot)
        # every other project's shots in project order, built once rather than
        # per file; None keys the pools for a project with no shots here
        names = self.projects()
        self._others = {
            (project, label): tuple(
                shot for name in names if name != project for shot in self._by_project[name][label]
            )
            for project in names + [None]
            for label in Label
        }
        self._indexes: dict[tuple[str | None, Label, bool], TfidfIndex] = {}
        self._index_lock = threading.Lock()

    def projects(self) -> list[str]:
        return sorted(self._by_project)

    def pool(self, project: str, label: Label) -> list[Shot]:
        return list(self._by_project.get(project, {}).get(label, ()))

    def other_pool(self, project: str, label: Label) -> tuple[Shot, ...]:
        key = (project, label) if project in self._by_project else (None, label)
        return self._others[key]

    def ranked_pool(self, project: str, label: Label, own: bool) -> tuple[Sequence[Shot], TfidfIndex]:
        """pool() when own, else other_pool(), with the index of its shots'
        parameter names."""
        pool = self.pool(project, label) if own else self.other_pool(project, label)
        key = (project if project in self._by_project else None, label, own)
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    index = self._indexes[key] = TfidfIndex([_names_doc(s.labeled.file) for s in pool])
        return pool, index


def load_corpus(dataset_root: str | Path) -> dict[str, DatasetSplit]:
    """Every project corpus under a dataset root (or the root's own), by project.

    Raises ConfvalError when the root holds no manifest.
    """
    root = Path(dataset_root)
    manifests = sorted(root.glob(f"*/{MANIFEST_NAME}"))
    if not manifests and (root / MANIFEST_NAME).exists():
        manifests = [root / MANIFEST_NAME]
    if not manifests:
        raise ConfvalError(f"no dataset manifest found under {root}")
    return dict(load_dataset(manifest.parent) for manifest in manifests)


def shot_db_from(splits: Iterable[DatasetSplit]) -> ShotDatabase:
    """The database of every shot-pool file in the given corpora."""
    return ShotDatabase(shot_from_labeled(lf) for split in splits for lf in split.shot_pool)


def load_shot_db(dataset_root: str | Path) -> ShotDatabase:
    """Build the database from every project corpus under a dataset root."""
    return shot_db_from(load_corpus(dataset_root).values())


def _take(
    primary: Sequence[Shot], fallback: Sequence[Shot], count: int, rng: random.Random
) -> list[Shot]:
    if count == 0:
        return []
    if len(primary) >= count:
        return rng.sample(primary, count)
    remaining = count - len(primary)
    if len(fallback) < remaining:
        raise InsufficientShotsError(
            f"requested {count} shots, only {len(primary) + len(fallback)} available"
        )
    return list(primary) + rng.sample(fallback, remaining)


def _names_doc(file: ConfigFile) -> str:
    return " ".join(file.names())


def _rank_by_cosine(
    db: ShotDatabase, project: str, label: Label, target_terms: Counter, count: int
) -> list[Shot]:
    """The count shots nearest the target, from its own project's pool first."""
    picked: list[Shot] = []
    available = 0
    for own in (True, False):
        if len(picked) == count:
            return picked
        pool, index = db.ranked_pool(project, label, own)
        available += len(pool)
        if pool:
            order = rank_by_similarity(target_terms, index)
            picked += [pool[i] for i in order[: count - len(picked)]]
    if len(picked) < count:
        raise InsufficientShotsError(f"requested {count} shots, only {available} available")
    return picked


def select_shots(
    db: ShotDatabase,
    project: str,
    combo: ShotCombination,
    strategy: SelectionStrategy,
    rng: random.Random,
    target: ConfigFile | None = None,
    target_subcategory=None,
) -> list[Shot]:
    """Pick the requested mix of shots, same-project pools first.

    SAME_SUBCATEGORY narrows misconfig shots to the target's known fault
    bucket (harness mode); COSINE_SIMILARITY ranks pools by parameter-name
    similarity to the target instead of sampling.
    """
    if strategy is SelectionStrategy.COSINE_SIMILARITY and target is not None:
        target_terms = term_counts(_names_doc(target))
        valid = _rank_by_cosine(db, project, Label.VALID, target_terms, combo.valid_count)
        misconfig = _rank_by_cosine(db, project, Label.MISCONFIG, target_terms, combo.misconfig_count)
        return valid + misconfig

    valid_primary = db.pool(project, Label.VALID)
    valid_fallback = db.other_pool(project, Label.VALID)
    mis_primary = db.pool(project, Label.MISCONFIG)
    mis_fallback = db.other_pool(project, Label.MISCONFIG)

    if strategy is SelectionStrategy.SAME_SUBCATEGORY and target_subcategory is not None:
        mis_primary = [
            s for s in mis_primary if s.labeled.injected.subcategory is target_subcategory
        ]
        mis_fallback = [
            s for s in mis_fallback if s.labeled.injected.subcategory is target_subcategory
        ]

    valid = _take(valid_primary, valid_fallback, combo.valid_count, rng)
    misconfig = _take(mis_primary, mis_fallback, combo.misconfig_count, rng)
    return valid + misconfig


def prompt_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Prompt:
    """Rendered prompt plus everything needed to rebuild it under a budget."""

    target: ConfigFile
    shots: tuple[Shot, ...]
    question_template: str
    text: str
    token_estimate: int

    @frozen_cached_property
    def fingerprint(self) -> str:
        """prompt_fingerprint(text), hashed once per prompt, not once per query."""
        return prompt_fingerprint(self.text)


def _question(template: str, project: str, version: str) -> str:
    return template.replace("[PROJECT]", project).replace("[VERSION]", version)


def build_prompt(
    target: ConfigFile,
    shots: list[Shot],
    question_template: str = DEFAULT_QUESTION_TEMPLATE,
) -> Prompt:
    """Assemble shot blocks (valid ones first), the target file, and the
    directive question."""
    ordered = [s for s in shots if s.label is Label.VALID] + [
        s for s in shots if s.label is Label.MISCONFIG
    ]
    blocks = []
    for i, shot in enumerate(ordered, start=1):
        file = shot.labeled.file
        blocks.append(
            f"### Configuration File Shot #{i}\n"
            f"{shot.rendered_file}"
            f"Q: {_question(question_template, file.project, file.version)}\n"
            f"A: {shot.answer_json}"
        )
    blocks.append(
        "### Configuration File\n"
        f"{render_config(target, target.format)}"
        f"Q: {_question(question_template, target.project, target.version)}"
    )
    text = "\n\n".join(blocks)
    return Prompt(
        target=target,
        shots=tuple(ordered),
        question_template=question_template,
        text=text,
        token_estimate=estimate_tokens(text),
    )


def _shot_subsets(shots: tuple[Shot, ...]) -> Iterable[list[Shot]]:
    # drop valid shots from the back of their group first, then misconfig ones
    valids = [s for s in shots if s.label is Label.VALID]
    miscs = [s for s in shots if s.label is Label.MISCONFIG]
    for nv in range(len(valids), -1, -1):
        yield valids[:nv] + miscs
    for nm in range(len(miscs) - 1, -1, -1):
        yield miscs[:nm]


def fit_to_budget(prompt: Prompt, limit: int) -> Prompt:
    """Return the largest prompt within the limit, shedding shots and finally
    compressing the target; raise TokenBudgetExceededError when even the bare
    compressed target plus question does not fit.

    A prompt that already fits comes back as is, without a rebuild."""
    if limit <= 0:
        raise ValueError("token limit must be positive")
    if prompt.token_estimate <= limit:
        return prompt
    for target in (prompt.target, compress(prompt.target)):
        for subset in _shot_subsets(prompt.shots):
            candidate = build_prompt(target, subset, prompt.question_template)
            if candidate.token_estimate <= limit:
                return candidate
    raise TokenBudgetExceededError(
        f"target file and question exceed the token limit ({limit}) even compressed"
    )
