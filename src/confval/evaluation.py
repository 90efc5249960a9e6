"""Scoring verdicts against ground truth at file and parameter level.

File-level asks "was the file classified correctly", parameter-level asks
"was each parameter classified correctly". The parameter universe for one
file is its own entry set; flagged names that do not exist in the file count
as false positives on top. Each file is scored once into a file-level and a
parameter-level confusion matrix. Every report table groups the files by
project, sub-category or size bucket and sums each group's matrices cell by
cell, so no table depends on the order the files were scored in; the macro
row averages the per-project ratios.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
from typing import Iterable

from .backend import Backend
from .errors import ConfvalError, check_schema_version, checked, complete
from .misconfig_gen import DatasetSplit, Label, LabeledFile
from .pipeline import PipelineSettings, Verdict, validate_file
from .prompting import ShotDatabase, enumerate_shot_combinations

REPORT_SCHEMA_VERSION = 1
BUCKET_EDGES = (4, 8, 16, 32)


@dataclass(frozen=True)
class ConfusionMatrix:
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


def precision(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp else 0.0


def recall(cm: ConfusionMatrix) -> float:
    return cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else 0.0


def f1(cm: ConfusionMatrix) -> float:
    p, r = precision(cm), recall(cm)
    return 2 * p * r / (p + r) if p + r else 0.0


# a report level's ratios by name, then its confusion counts; the levels in order
_RATIO_OF = {"precision": precision, "recall": recall, "f1": f1}
_COUNTS = [count.name for count in fields(ConfusionMatrix)]
_LEVELS = ("file", "parameter")


def _level_metrics(cm: ConfusionMatrix) -> dict[str, float]:
    ratios = {name: ratio(cm) for name, ratio in _RATIO_OF.items()}
    return {**ratios, **{name: getattr(cm, name) for name in _COUNTS}}


def macro_average(values: list[float]) -> float:
    if not values:
        raise ValueError("macro average needs at least one value")
    return math.fsum(values) / len(values)


@dataclass(frozen=True)
class ScoredFile:
    """One (verdict, truth) pair reduced to a file-level and a
    parameter-level confusion matrix."""

    project: str
    subcategory: object | None
    entry_count: int
    file_cm: ConfusionMatrix
    param_cm: ConfusionMatrix


def scored_from(verdict: Verdict, truth: LabeledFile) -> ScoredFile:
    """Apply the confusion-matrix definitions to one verdict.

    Raises ValueError when the verdict does not belong to the truth file.
    """
    truth_key = truth.file.content_key()
    if verdict.target_key and verdict.target_key != truth_key:
        raise ValueError("verdict does not correspond to the truth file")

    is_misconfig = truth.label is Label.MISCONFIG
    if is_misconfig:
        file_cell = "tp" if verdict.hasError else "fn"
    else:
        file_cell = "fp" if verdict.hasError else "tn"

    # a file's names are unique, so each cell is a set of names; a flag
    # outside the file, the injected name included, is a false positive
    flagged = set(verdict.err_parameters)
    names = {e.name for e in truth.file.entries}
    injected = {truth.injected.parameter} & names if is_misconfig else set()
    return ScoredFile(
        project=truth.file.project,
        subcategory=truth.injected.subcategory if truth.injected else None,
        entry_count=len(truth.file.entries),
        file_cm=ConfusionMatrix(**{file_cell: 1}),
        param_cm=ConfusionMatrix(
            tp=len(flagged & injected),
            fp=len(flagged - injected),
            tn=len(names - flagged - injected),
            fn=len(injected - flagged),
        ),
    )


def _summed(matrices: Iterable[ConfusionMatrix]) -> ConfusionMatrix:
    return ConfusionMatrix(*map(sum, zip(*((cm.tp, cm.fp, cm.tn, cm.fn) for cm in matrices))))


def _pooled(results: list[ScoredFile], key, order=None) -> dict:
    """The results grouped under key(result), keys sorted by order, each
    group mapped to its summed (file-level, parameter-level) matrices; a
    result keyed None is left out."""
    groups: dict[object, list[ScoredFile]] = {}
    for r in results:
        group = key(r)
        if group is not None:
            groups.setdefault(group, []).append(r)
    return {
        group: (_summed(r.file_cm for r in groups[group]), _summed(r.param_cm for r in groups[group]))
        for group in sorted(groups, key=order)
    }


def micro_f1_by_subcategory(results: list[ScoredFile]) -> dict[str, float]:
    """Pool parameter-level cells of misconfig files across projects per
    sub-category; sub-categories with no samples are simply absent."""
    pooled = _pooled(results, lambda r: r.subcategory.value if r.subcategory else None)
    return {slug: f1(param_cm) for slug, (_, param_cm) in pooled.items()}


def bucket_label(count: int, edges: tuple[int, ...]) -> str:
    previous = 0
    for edge in edges:
        if count <= edge:
            return f"<={edge}" if previous == 0 else f"{previous + 1}-{edge}"
        previous = edge
    return f">{edges[-1]}"


# one size from each bucket, smallest bucket first
_BUCKETS = [bucket_label(size, BUCKET_EDGES) for size in BUCKET_EDGES + (BUCKET_EDGES[-1] + 1,)]


def bucket_by_param_count(results: list[ScoredFile]) -> dict[str, float]:
    """Parameter-level F1 per file-size bucket of BUCKET_EDGES, smallest
    first; empty buckets are omitted."""
    pooled = _pooled(results, lambda r: bucket_label(r.entry_count, BUCKET_EDGES), _BUCKETS.index)
    return {bucket: f1(param_cm) for bucket, (_, param_cm) in pooled.items()}


# the JSON types of each report key: schema_version, then MetricsReport's fields
_REPORT_KEYS = {
    "schema_version": (int,),
    "per_project": (dict,),
    "macro": (dict,),
    "micro_f1_by_subcategory": (dict,),
    "f1_by_param_count": (dict,),
    "files_scored": (int,),
    "failures": ([dict],),
}
_NUMBER = (int, float)
# what one level of a report holds: the ratios alone for the macro average,
# with the confusion counts for a project
_RATIOS = dict.fromkeys(_RATIO_OF, _NUMBER)
_LEVEL_METRICS = {**_RATIOS, **dict.fromkeys(_COUNTS, (int,))}


def _check_levels(doc: dict, metrics: dict[str, tuple], what: str) -> None:
    for level, values in complete(doc, dict.fromkeys(_LEVELS, (dict,)), what).items():
        complete(values, metrics, f"{what}[{level!r}]")


@dataclass(frozen=True)
class MetricsReport:
    """One evaluate report; each field is the report key of its name."""

    per_project: dict[str, dict[str, dict[str, float]]]
    macro: dict[str, dict[str, float]]
    micro_f1_by_subcategory: dict[str, float]
    f1_by_param_count: dict[str, float]
    files_scored: int
    failures: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        doc = {key.name: getattr(self, key.name) for key in fields(self)}
        return {"schema_version": REPORT_SCHEMA_VERSION, **doc, "failures": list(self.failures)}

    @classmethod
    def from_dict(cls, doc: object, what: str = "report") -> "MetricsReport":
        """Inverse of to_dict. Raises SpecError, naming the report as what, for
        a missing or unknown key, a missing metric or level, or a part of the
        wrong JSON type at any depth (a bool is no number), and
        SchemaVersionError for a report of another schema."""
        # every field but failures must be in a report
        required = [key.name for key in fields(cls) if key.default is MISSING]
        complete(doc, _REPORT_KEYS, what, required)
        check_schema_version(doc, REPORT_SCHEMA_VERSION, what)
        for project, levels in doc["per_project"].items():
            _check_levels(levels, _LEVEL_METRICS, f"{what} per_project[{project!r}]")
        _check_levels(doc["macro"], _RATIOS, f"{what} macro")
        for key in ("micro_f1_by_subcategory", "f1_by_param_count"):
            checked(doc[key], dict.fromkeys(doc[key], _NUMBER), f"{what} {key}")
        return cls(**{key: doc[key] for key in required}, failures=tuple(doc.get("failures", ())))


def build_report(results: list[ScoredFile], failures: list[dict] = ()) -> MetricsReport:
    # _pooled gives the file-level matrix, then the parameter-level one
    per_project = {
        project: dict(zip(_LEVELS, map(_level_metrics, matrices)))
        for project, matrices in _pooled(results, lambda r: r.project).items()
    }
    macro = {
        level: {
            metric: macro_average([levels[level][metric] for levels in per_project.values()])
            if per_project
            else 0.0
            for metric in _RATIOS
        }
        for level in _LEVELS
    }
    return MetricsReport(
        per_project=per_project,
        macro=macro,
        micro_f1_by_subcategory=micro_f1_by_subcategory(results),
        f1_by_param_count=bucket_by_param_count(results),
        files_scored=len(results),
        failures=tuple(failures),
    )


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def report_csv_tables(report: MetricsReport) -> dict[str, str]:
    """CSV renderings of each report table, keyed by table name."""
    per_project = (
        [project, level, *(metrics[k] for k in _LEVEL_METRICS)]
        for project, levels in report.per_project.items()
        for level, metrics in levels.items()
    )
    return {
        "per_project": _csv(["project", "level", *_LEVEL_METRICS], per_project),
        "subcategory_f1": _csv(["subcategory", "micro_f1"], report.micro_f1_by_subcategory.items()),
        "param_count_f1": _csv(["bucket", "f1"], report.f1_by_param_count.items()),
    }


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
        try:
            verdict = validate_file(
                truth.file, backend, shot_db, settings, target_subcategory=truth.bucket
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
