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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable

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

    pools() gives the two pools selection walks for a project, and index()
    the TF-IDF index of either pool that cosine selection ranks, built on
    first use, so runs that never rank build none.
    """

    def __init__(self, shots: Iterable[Shot]):
        self._by_project: dict[str, dict[Label, list[Shot]]] = {}
        for shot in shots:
            slot = self._by_project.setdefault(
                shot.source_project, {Label.VALID: [], Label.MISCONFIG: []}
            )
            slot[shot.label].append(shot)
        # both pools of each project, built once rather than per file; None
        # keys the pools of a project with no shots here
        names = self.projects()
        self._pools = {
            (project, label): (
                tuple(self._by_project[project][label]) if project else (),
                tuple(shot for name in names if name != project for shot in self._by_project[name][label]),
            )
            for project in names + [None]
            for label in Label
        }
        self._indexes: dict[tuple[str | None, Label, int], TfidfIndex] = {}
        self._index_lock = threading.Lock()

    def projects(self) -> list[str]:
        return sorted(self._by_project)

    def pool(self, project: str, label: Label) -> list[Shot]:
        return list(self.pools(project, label)[0])

    def count(self, label: Label) -> int:
        return len(self._pools[None, label][1])  # every project's shots of the label

    def pools(self, project: str, label: Label) -> tuple[tuple[Shot, ...], tuple[Shot, ...]]:
        """The project's own shots of a label, then every other project's
        together, in project order."""
        return self._pools.get((project, label)) or self._pools[None, label]

    def index(self, project: str, label: Label, which: int) -> TfidfIndex:
        """The index of the parameter names of pools(project, label)[which]."""
        key = (project if project in self._by_project else None, label, which)
        index = self._indexes.get(key)
        if index is None:
            with self._index_lock:
                index = self._indexes.get(key)
                if index is None:
                    pool = self._pools[key[:2]][which]
                    index = self._indexes[key] = TfidfIndex([_names_doc(s.labeled.file) for s in pool])
        return index


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


def _names_doc(file: ConfigFile) -> str:
    return " ".join(file.names())


def derived_rng(*parts) -> random.Random:
    """A generator seeded by the sha256 of the parts joined with ':'."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def select_shots(
    db: ShotDatabase,
    target: ConfigFile,
    combo: ShotCombination,
    strategy: SelectionStrategy,
    seed: int = 0,
    target_subcategory=None,
) -> list[Shot]:
    """Pick the requested mix of shots for the target.

    For each label, the target project's own pool gives what it can, then the
    other projects' pools together give the rest; InsufficientShotsError when
    both hold too few. RANDOM and SAME_SUBCATEGORY sample a pool that holds
    enough, with a generator seeded by seed and the target's content, so a
    choice does not depend on evaluation order. With a known
    target_subcategory, which the other strategies ignore, SAME_SUBCATEGORY
    walks four misconfig pools: the own project's and then the other projects'
    shots of that sub-category, then the own project's and the other
    projects' other shots. COSINE_SIMILARITY draws nothing: it takes the
    shots whose parameter names are nearest the target's by TF-IDF cosine.
    """
    cosine = strategy is SelectionStrategy.COSINE_SIMILARITY
    terms = term_counts(_names_doc(target)) if cosine else None
    rng = None if cosine else derived_rng(seed, target.content_key())
    subcategory_first = strategy is SelectionStrategy.SAME_SUBCATEGORY and target_subcategory is not None
    picked: list[Shot] = []
    for label, count in ((Label.VALID, combo.valid_count), (Label.MISCONFIG, combo.misconfig_count)):
        pools = db.pools(target.project, label)
        if subcategory_first and label is Label.MISCONFIG:
            pools = [
                [s for s in pool if (s.labeled.injected.subcategory is target_subcategory) is inside]
                for inside in (True, False)
                for pool in pools
            ]
        need = count
        for which, pool in enumerate(pools):
            if not need:
                break
            if cosine:
                order = rank_by_similarity(terms, db.index(target.project, label, which))
                taken = [pool[i] for i in order[:need]]
            else:
                taken = rng.sample(pool, need) if len(pool) >= need else pool
            picked += taken
            need -= len(taken)
        if need:
            # every pool was taken whole
            raise InsufficientShotsError(f"requested {count} shots, only {count - need} available")
    return picked


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
    parts = []
    for i, shot in enumerate(ordered, start=1):
        file = shot.labeled.file
        parts += (
            f"### Configuration File Shot #{i}\n", shot.rendered_file,
            "Q: ", _question(question_template, file.project, file.version), "\nA: ", shot.answer_json, "\n\n",
        )
    parts += (
        "### Configuration File\n", render_config(target, target.format),
        "Q: ", _question(question_template, target.project, target.version),
    )
    text = "".join(parts)
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
