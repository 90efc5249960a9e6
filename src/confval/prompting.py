"""Shot selection and prompt assembly under a token budget.

A prompt is: N worked examples (shots), the file under validation, then the
directive question demanding a JSON answer. Shots come from the generated
corpus's shot pool, preferring the target's own project and falling back to
other projects' pools. The budget logic prefers dropping valid-config shots
before misconfig shots (the latter carry more signal), and compresses the
target to INI as a last resort before giving up.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

from .config_model import ConfigFile, compress, render_config
from .errors import InsufficientShotsError, TokenBudgetExceededError
from .misconfig_gen import Label, LabeledFile, load_dataset
from .responses import ValidationResponse, misconfig_answer, valid_answer
from .textsim import rank_by_similarity

DEFAULT_QUESTION_TEMPLATE = (
    "Are there any mistakes in the above configuration file for [PROJECT] "
    "version [VERSION]? Respond in a JSON format similar to the following: "
    '{"hasError": true, "errParameter": ["parameter.name"], '
    '"reason": ["explanation of the mistake"]}'
)

TokenEstimator = Callable[[str], int]


def estimate_tokens(text: str) -> int:
    """Default budget heuristic: one token per four characters, rounded up."""
    return math.ceil(len(text) / 4)


@dataclass(frozen=True)
class Shot:
    """A labeled example file plus the answer the model should produce."""

    labeled: LabeledFile
    ground_truth_answer: ValidationResponse
    source_project: str

    def __post_init__(self):
        answer = self.ground_truth_answer
        if self.labeled.label is Label.VALID:
            if answer.hasError or answer.errParameter or answer.reason:
                raise ValueError("valid shot must answer hasError=false with empty arrays")
        else:
            injected = self.labeled.injected
            if not answer.hasError or answer.errParameter != (injected.parameter,):
                raise ValueError("misconfig shot must flag exactly the injected parameter")

    @property
    def label(self) -> Label:
        return self.labeled.label


def shot_from_labeled(labeled: LabeledFile) -> Shot:
    if labeled.label is Label.VALID:
        answer = valid_answer()
    else:
        answer = misconfig_answer(labeled.injected.parameter, labeled.injected.reason)
    return Shot(labeled, answer, labeled.file.project)


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
    """Immutable pool of shots grouped by project and label."""

    def __init__(self, shots: Iterable[Shot]):
        self._by_project: dict[str, dict[Label, list[Shot]]] = {}
        for shot in shots:
            slot = self._by_project.setdefault(
                shot.source_project, {Label.VALID: [], Label.MISCONFIG: []}
            )
            slot[shot.label].append(shot)

    def projects(self) -> list[str]:
        return sorted(self._by_project)

    def pool(self, project: str, label: Label) -> list[Shot]:
        return list(self._by_project.get(project, {}).get(label, ()))

    def other_pool(self, project: str, label: Label) -> list[Shot]:
        out: list[Shot] = []
        for name in self.projects():
            if name != project:
                out.extend(self._by_project[name][label])
        return out


def load_shot_db(dataset_root: str | Path) -> ShotDatabase:
    """Build the database from every project corpus under a dataset root."""
    root = Path(dataset_root)
    shots: list[Shot] = []
    manifests = sorted(root.glob("*/manifest.json"))
    if not manifests and (root / "manifest.json").exists():
        manifests = [root / "manifest.json"]
    for manifest in manifests:
        _, split = load_dataset(manifest.parent)
        shots.extend(shot_from_labeled(lf) for lf in split.shot_pool)
    return ShotDatabase(shots)


def _take(
    primary: list[Shot], fallback: list[Shot], count: int, rng: random.Random
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


def _rank_pool(target: ConfigFile, pool: list[Shot], count: int) -> list[Shot]:
    if count == 0 or not pool:
        return []
    target_doc = " ".join(target.names())
    docs = [" ".join(shot.labeled.file.names()) for shot in pool]
    order = rank_by_similarity(target_doc, docs)
    return [pool[i] for i in order[:count]]


def _rank_by_cosine(
    target: ConfigFile, primary: list[Shot], fallback: list[Shot], count: int
) -> list[Shot]:
    picked = _rank_pool(target, primary, count)
    if len(picked) < count:
        picked += _rank_pool(target, fallback, count - len(picked))
    if len(picked) < count:
        raise InsufficientShotsError(
            f"requested {count} shots, only {len(primary) + len(fallback)} available"
        )
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

    if strategy is SelectionStrategy.COSINE_SIMILARITY and target is not None:
        valid = _rank_by_cosine(target, valid_primary, valid_fallback, combo.valid_count)
        misconfig = _rank_by_cosine(target, mis_primary, mis_fallback, combo.misconfig_count)
        return valid + misconfig

    valid = _take(valid_primary, valid_fallback, combo.valid_count, rng)
    misconfig = _take(mis_primary, mis_fallback, combo.misconfig_count, rng)
    return valid + misconfig


@dataclass(frozen=True)
class Prompt:
    """Rendered prompt plus everything needed to rebuild it under a budget."""

    project: str
    version: str
    target: ConfigFile
    shots: tuple[Shot, ...]
    question_template: str
    text: str
    token_estimate: int


def _question(template: str, project: str, version: str) -> str:
    return template.replace("[PROJECT]", project).replace("[VERSION]", version)


def build_prompt(
    target: ConfigFile,
    shots: list[Shot],
    question_template: str = DEFAULT_QUESTION_TEMPLATE,
    estimator: TokenEstimator = estimate_tokens,
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
            f"{render_config(file, file.format)}"
            f"Q: {_question(question_template, file.project, file.version)}\n"
            f"A: {shot.ground_truth_answer.to_json()}"
        )
    blocks.append(
        "### Configuration File\n"
        f"{render_config(target, target.format)}"
        f"Q: {_question(question_template, target.project, target.version)}"
    )
    text = "\n\n".join(blocks)
    return Prompt(
        project=target.project,
        version=target.version,
        target=target,
        shots=tuple(ordered),
        question_template=question_template,
        text=text,
        token_estimate=estimator(text),
    )


def _shot_subsets(shots: tuple[Shot, ...]) -> Iterable[list[Shot]]:
    # drop valid shots from the back of their group first, then misconfig ones
    valids = [s for s in shots if s.label is Label.VALID]
    miscs = [s for s in shots if s.label is Label.MISCONFIG]
    for nv in range(len(valids), -1, -1):
        yield valids[:nv] + miscs
    for nm in range(len(miscs) - 1, -1, -1):
        yield miscs[:nm]


def fit_to_budget(
    prompt: Prompt, limit: int, estimator: TokenEstimator = estimate_tokens
) -> Prompt:
    """Return the largest prompt within the limit, shedding shots and finally
    compressing the target; raise TokenBudgetExceededError when even the bare
    compressed target plus question does not fit.

    A prompt that already fits comes back as is, without a rebuild; its
    estimate is taken with the given estimator, not read from the prompt."""
    if limit <= 0:
        raise ValueError("token limit must be positive")
    estimate = estimator(prompt.text)
    if estimate <= limit:
        return prompt if estimate == prompt.token_estimate else replace(prompt, token_estimate=estimate)
    for target in (prompt.target, compress(prompt.target)):
        for subset in _shot_subsets(prompt.shots):
            candidate = build_prompt(target, subset, prompt.question_template, estimator)
            if candidate.token_estimate <= limit:
                return candidate
    raise TokenBudgetExceededError(
        f"target file and question exceed the token limit ({limit}) even compressed"
    )


def split_file(
    file: ConfigFile, limit: int, estimator: TokenEstimator = estimate_tokens
) -> list[ConfigFile]:
    """Split an oversized file into snippets that each fit the budget alone.

    Snippets are validated independently; no cross-snippet reasoning happens.
    """
    snippets: list[ConfigFile] = []
    start = 0
    entries = file.entries
    while start < len(entries):
        end = start + 1
        best = None
        while end <= len(entries):
            candidate = ConfigFile(file.project, file.version, file.format, entries[start:end])
            prompt = build_prompt(candidate, [], estimator=estimator)
            if prompt.token_estimate <= limit:
                best = candidate
                end += 1
            else:
                break
        if best is None:
            raise TokenBudgetExceededError(
                f"entry {entries[start].name!r} alone exceeds the token limit"
            )
        snippets.append(best)
        start += len(best.entries)
    return snippets
