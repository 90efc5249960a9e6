"""Scoring verdicts against ground truth at file and parameter level.

File-level asks "was the file classified correctly", parameter-level asks
"was each parameter classified correctly". The parameter universe for one
file is its own entry set; flagged names that do not exist in the file count
as false positives on top. Merging is associative and commutative, so results
can be aggregated incrementally or in parallel and the totals agree.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .backend import Backend
from .errors import ConfvalError, check_schema_version
from .misconfig_gen import DatasetSplit, Label, LabeledFile
from .pipeline import PipelineSettings, Verdict, validate_file
from .prompting import SelectionStrategy, ShotDatabase, enumerate_shot_combinations

REPORT_SCHEMA_VERSION = 1
BUCKET_EDGES = (4, 8, 16, 32)


class Level(Enum):
    FILE = "file"
    PARAMETER = "parameter"


class Cell(Enum):
    TP = "tp"
    FP = "fp"
    TN = "tn"
    FN = "fn"


@dataclass(frozen=True)
class ConfusionMatrix:
    level: Level
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion matrix counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.level is not self.level:
            raise ValueError("cannot merge matrices of different levels")
        return ConfusionMatrix(
            self.level,
            self.tp + other.tp,
            self.fp + other.fp,
            self.tn + other.tn,
            self.fn + other.fn,
        )

    def bump(self, cell: Cell, count: int = 1) -> "ConfusionMatrix":
        return self.merge(ConfusionMatrix(self.level, **{cell.value: count}))


def precision(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0


def recall(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0


def f1(cm: ConfusionMatrix) -> float:
    p, r = precision(cm), recall(cm)
    return 2 * p * r / (p + r) if p + r else 0.0


def macro_average(values: list[float]) -> float:
    if not values:
        raise ValueError("macro average needs at least one value")
    return sum(values) / len(values)


@dataclass(frozen=True)
class ScoredFile:
    """One (verdict, truth) pair reduced to confusion cells."""

    project: str
    label: Label
    subcategory: object | None
    entry_count: int
    file_cell: Cell
    param_cm: ConfusionMatrix


def score_file(verdict: Verdict, truth: LabeledFile) -> tuple[Cell, ConfusionMatrix]:
    """Apply the confusion-matrix definitions to one verdict.

    Raises ValueError when the verdict does not belong to the truth file.
    """
    truth_key = truth.file.content_key()
    if verdict.target_key and verdict.target_key != truth_key:
        raise ValueError("verdict does not correspond to the truth file")

    is_misconfig = truth.label is Label.MISCONFIG
    if is_misconfig:
        file_cell = Cell.TP if verdict.hasError else Cell.FN
    else:
        file_cell = Cell.FP if verdict.hasError else Cell.TN

    flagged = set(verdict.err_parameters)
    injected = truth.injected.parameter if is_misconfig else None
    counts = {cell: 0 for cell in Cell}
    for entry in truth.file.entries:
        if entry.name == injected:
            counts[Cell.TP if entry.name in flagged else Cell.FN] += 1
        else:
            counts[Cell.FP if entry.name in flagged else Cell.TN] += 1
    counts[Cell.FP] += len(flagged - {e.name for e in truth.file.entries})
    param_cm = ConfusionMatrix(
        Level.PARAMETER,
        tp=counts[Cell.TP],
        fp=counts[Cell.FP],
        tn=counts[Cell.TN],
        fn=counts[Cell.FN],
    )
    return file_cell, param_cm


def scored_from(verdict: Verdict, truth: LabeledFile) -> ScoredFile:
    file_cell, param_cm = score_file(verdict, truth)
    return ScoredFile(
        project=truth.file.project,
        label=truth.label,
        subcategory=truth.injected.subcategory if truth.injected else None,
        entry_count=len(truth.file.entries),
        file_cell=file_cell,
        param_cm=param_cm,
    )


def file_matrix(results: list[ScoredFile]) -> ConfusionMatrix:
    cm = ConfusionMatrix(Level.FILE)
    for r in results:
        cm = cm.bump(r.file_cell)
    return cm


def parameter_matrix(results: list[ScoredFile]) -> ConfusionMatrix:
    cm = ConfusionMatrix(Level.PARAMETER)
    for r in results:
        cm = cm.merge(r.param_cm)
    return cm


def micro_f1_by_subcategory(results: list[ScoredFile]) -> dict[str, float]:
    """Pool parameter-level cells of misconfig files across projects per
    sub-category; sub-categories with no samples are simply absent."""
    pooled: dict[str, ConfusionMatrix] = {}
    for r in results:
        if r.subcategory is None:
            continue
        slug = r.subcategory.value
        pooled[slug] = pooled.get(slug, ConfusionMatrix(Level.PARAMETER)).merge(r.param_cm)
    return {slug: f1(cm) for slug, cm in sorted(pooled.items())}


def bucket_label(count: int, edges: tuple[int, ...]) -> str:
    previous = 0
    for edge in edges:
        if count <= edge:
            return f"<={edge}" if previous == 0 else f"{previous + 1}-{edge}"
        previous = edge
    return f">{edges[-1]}"


def bucket_by_param_count(results: list[ScoredFile]) -> dict[str, float]:
    """Parameter-level F1 per file-size bucket of BUCKET_EDGES, smallest
    first; empty buckets are omitted."""
    pooled: dict[str, ConfusionMatrix] = {}
    for r in results:
        label = bucket_label(r.entry_count, BUCKET_EDGES)
        pooled[label] = pooled.get(label, ConfusionMatrix(Level.PARAMETER)).merge(r.param_cm)
    # one size from each bucket, smallest bucket first
    sizes = BUCKET_EDGES + (BUCKET_EDGES[-1] + 1,)
    labels = [bucket_label(size, BUCKET_EDGES) for size in sizes]
    return {label: f1(pooled[label]) for label in labels if label in pooled}


# the JSON type of each top-level report key; only failures may be absent
_REPORT_TYPES = {
    "per_project": dict,
    "macro": dict,
    "micro_f1_by_subcategory": dict,
    "f1_by_param_count": dict,
    "files_scored": int,
    "failures": list,
}


@dataclass(frozen=True)
class MetricsReport:
    per_project: dict[str, dict[str, dict[str, float]]]
    macro: dict[str, dict[str, float]]
    micro_f1_subcategory: dict[str, float]
    f1_by_param_count: dict[str, float]
    files_scored: int
    failures: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "per_project": self.per_project,
            "macro": self.macro,
            "micro_f1_by_subcategory": self.micro_f1_subcategory,
            "f1_by_param_count": self.f1_by_param_count,
            "files_scored": self.files_scored,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, doc: object) -> "MetricsReport":
        """Inverse of to_dict. Raises KeyError for a missing key, ValueError
        for a part of the wrong JSON type and SchemaVersionError for a report
        of another schema."""
        if not isinstance(doc, dict):
            raise ValueError("a report must be a JSON object")
        check_schema_version(doc, REPORT_SCHEMA_VERSION, "report")
        doc = {"failures": [], **doc}
        for key, kind in _REPORT_TYPES.items():
            if isinstance(doc[key], bool) or not isinstance(doc[key], kind):
                raise ValueError(f"report key {key!r} must be a JSON {kind.__name__}")
        return cls(
            per_project=doc["per_project"],
            macro=doc["macro"],
            micro_f1_subcategory=doc["micro_f1_by_subcategory"],
            f1_by_param_count=doc["f1_by_param_count"],
            files_scored=doc["files_scored"],
            failures=tuple(doc["failures"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


def _level_metrics(cm: ConfusionMatrix) -> dict[str, float]:
    return {
        "precision": precision(cm),
        "recall": recall(cm),
        "f1": f1(cm),
        "tp": cm.tp,
        "fp": cm.fp,
        "tn": cm.tn,
        "fn": cm.fn,
    }


def build_report(results: list[ScoredFile], failures: list[dict] = ()) -> MetricsReport:
    projects = sorted({r.project for r in results})
    per_project: dict[str, dict[str, dict[str, float]]] = {}
    for project in projects:
        own = [r for r in results if r.project == project]
        per_project[project] = {
            Level.FILE.value: _level_metrics(file_matrix(own)),
            Level.PARAMETER.value: _level_metrics(parameter_matrix(own)),
        }
    macro: dict[str, dict[str, float]] = {}
    for level in (Level.FILE, Level.PARAMETER):
        macro[level.value] = {
            metric: macro_average(
                [per_project[p][level.value][metric] for p in projects]
            )
            if projects
            else 0.0
            for metric in ("precision", "recall", "f1")
        }
    return MetricsReport(
        per_project=per_project,
        macro=macro,
        micro_f1_subcategory=micro_f1_by_subcategory(results),
        f1_by_param_count=bucket_by_param_count(results),
        files_scored=len(results),
        failures=tuple(failures),
    )


def report_csv_tables(report: MetricsReport) -> dict[str, str]:
    """CSV renderings of each report table, keyed by table name."""
    tables: dict[str, str] = {}

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["project", "level", "precision", "recall", "f1", "tp", "fp", "tn", "fn"])
    for project, levels in report.per_project.items():
        for level, metrics in levels.items():
            writer.writerow(
                [project, level]
                + [metrics[k] for k in ("precision", "recall", "f1", "tp", "fp", "tn", "fn")]
            )
    tables["per_project"] = buf.getvalue()

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["subcategory", "micro_f1"])
    for slug, value in report.micro_f1_subcategory.items():
        writer.writerow([slug, value])
    tables["subcategory_f1"] = buf.getvalue()

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["bucket", "f1"])
    for label, value in report.f1_by_param_count.items():
        writer.writerow([label, value])
    tables["param_count_f1"] = buf.getvalue()
    return tables


def run_evaluation(
    datasets: dict[str, DatasetSplit],
    backend: Backend,
    shot_db: ShotDatabase,
    settings: PipelineSettings = PipelineSettings(),
    jobs: int = 1,
) -> MetricsReport:
    """Validate every eval-set file and score it; per-file failures are
    recorded in the report instead of aborting the run."""
    work: list[tuple[str, LabeledFile]] = []
    for project in sorted(datasets):
        work.extend((project, lf) for lf in datasets[project].eval_set)

    def one(item: tuple[str, LabeledFile]):
        project, truth = item
        subcat = truth.bucket if settings.strategy is SelectionStrategy.SAME_SUBCATEGORY else None
        try:
            verdict = validate_file(
                truth.file, backend, shot_db, settings, target_subcategory=subcat
            )
            return scored_from(verdict, truth), None
        except ConfvalError as exc:
            failure = {
                "project": project,
                "content_key": truth.file.content_key(),
                "error": f"{type(exc).__name__}: {exc}",
            }
            return None, failure

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, work))
    else:
        outcomes = [one(item) for item in work]

    results = [scored for scored, _ in outcomes if scored is not None]
    failures = [failure for _, failure in outcomes if failure is not None]
    return build_report(results, failures)


def run_sweep(
    datasets: dict[str, DatasetSplit],
    backend: Backend,
    shot_db: ShotDatabase,
    settings: PipelineSettings = PipelineSettings(),
    max_shots: int = 5,
    jobs: int = 1,
) -> dict[str, MetricsReport]:
    """One evaluation per shot combination (21 of them for max_shots=5)."""
    out: dict[str, MetricsReport] = {}
    for combo in enumerate_shot_combinations(max_shots):
        combo_settings = replace(settings, combination=combo)
        out[combo.label()] = run_evaluation(datasets, backend, shot_db, combo_settings, jobs)
    return out
