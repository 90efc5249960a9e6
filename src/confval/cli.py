"""Command-line entry point: gen-dataset, validate, evaluate, report.

Exit codes form a stable contract for CI gating: 0 means the validated file
looks correct, 1 means a misconfiguration verdict, 2 and above mean an
operational error. Every operational error, a failed write to an output path
or to stdout (a closed pipe, a full disk) included, exits 2 with one
``error:`` line on stderr and no traceback; ``main`` is the one place that
turns it into that exit code. Progress goes to stderr; stdout carries machine
output only (verdict or report JSON, count summaries).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from .backend import Backend, BackendConfig, HttpBackend, MockBackend, MockBehavior, MockScript, truth_map
from .config_model import load_config_file
from .errors import ConfvalError, SpecError, checked, read_document
from .evaluation import REPORT_SCHEMA_VERSION, MetricsReport, report_csv_tables, run_evaluation, run_sweep
from .misconfig_gen import DatasetSplit, Label, build_dataset, write_dataset
from .pipeline import PipelineSettings, validate_file
from .prompting import (
    DEFAULT_COMBINATION,
    DEFAULT_QUESTION_TEMPLATE,
    SelectionStrategy,
    ShotCombination,
    ShotDatabase,
    load_corpus,
    shot_db_from,
)
from .constraints import load_spec_set

CONFIG_SCHEMA_VERSION = 1

# The JSON types each framework config key accepts, by section.
_NUMBER = (int, float)
_PATH = (str, type(None))
_BACKEND_KEYS = {
    "model_id": (str,),
    "temperature": _NUMBER,
    "token_limit": (int,),
    "endpoint": (str,),
    "credentials_env": (str,),
    "request_timeout": _NUMBER,
    "max_parallel": (int,),
}
_TOP_KEYS = {
    "schema_version": (int,),
    "backend": (str,),
    "num_queries": (int,),
    "strategy": (str,),
    "retry_bound": (int,),
    "seed": (int,),
    "shots": (dict,),
    "shot_db": _PATH,
    "question_template_path": _PATH,
    "mock": (dict,),
    **_BACKEND_KEYS,
}
_SHOTS_KEYS = {"valid": (int,), "misconfig": (int,)}
_MOCK_KEYS = {"behavior": (str,), "noise_rate": _NUMBER}
# a sweep document: one report per shot combination, keyed by its label
_SWEEP_KEYS = {"schema_version": (int,), "sweep": (dict,)}
_DEFAULT_MOCK = MockScript(noise_rate=0.2)


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything the pipeline needs, loadable from one JSON document.

    Secrets never live in the file; only the name of the environment variable
    holding the API key does. The mock script holds the mock behavior and
    noise rate; the mock echoes the corpus the run reads and draws its noise
    from the run's seed, both filled in when the backend is built.
    """

    backend: str = "mock"
    backend_config: BackendConfig = BackendConfig()
    settings: PipelineSettings = PipelineSettings()
    shot_db: str | None = None
    mock: MockScript = _DEFAULT_MOCK

    def __post_init__(self):
        if self.backend not in ("mock", "http"):
            raise SpecError(f"backend must be 'mock' or 'http', got {self.backend!r}")
        if self.backend == "http" and not self.backend_config.endpoint:
            raise SpecError("backend 'http' needs an endpoint")

    @classmethod
    def from_file(cls, path: str | Path) -> "FrameworkConfig":
        what = f"framework config {path}"
        doc = checked(read_document(path, "framework config", CONFIG_SCHEMA_VERSION), _TOP_KEYS, what)
        shots = checked(doc.get("shots", {}), _SHOTS_KEYS, f"{what} section 'shots'")
        mock = checked(doc.get("mock", {}), _MOCK_KEYS, f"{what} section 'mock'")
        template = DEFAULT_QUESTION_TEMPLATE
        if doc.get("question_template_path"):
            try:
                template = Path(doc["question_template_path"]).read_text(encoding="utf-8").strip()
            except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or an unencodable path
                raise SpecError(
                    f"cannot read question template {doc['question_template_path']!r}: {exc}"
                ) from exc
        try:
            settings = PipelineSettings(
                combination=ShotCombination(
                    shots.get("valid", DEFAULT_COMBINATION.valid_count),
                    shots.get("misconfig", DEFAULT_COMBINATION.misconfig_count),
                ),
                strategy=SelectionStrategy(doc.get("strategy", SelectionStrategy.RANDOM.value)),
                question_template=template,
                **{key: doc[key] for key in ("num_queries", "retry_bound", "seed") if key in doc},
            )
            return cls(
                backend=doc.get("backend", "mock"),
                backend_config=BackendConfig(**{k: doc[k] for k in _BACKEND_KEYS if k in doc}),
                settings=settings,
                shot_db=doc.get("shot_db"),
                mock=MockScript(
                    MockBehavior(mock.get("behavior", _DEFAULT_MOCK.behavior.value)),
                    noise_rate=mock.get("noise_rate", _DEFAULT_MOCK.noise_rate),
                ),
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid framework config: {exc}") from exc


def _set_up(
    cfg: FrameworkConfig, seed: int | None, dataset: str | None
) -> tuple[PipelineSettings, Backend, ShotDatabase, dict[str, DatasetSplit]]:
    """What validate and evaluate run with: the settings (the seed replaced when
    one is given), the backend, the shot database and the corpus at dataset,
    which is read first. A mock echoes the corpus at dataset, else at the
    config's shot_db, and seeds its noise with the settings' seed; the shot
    database comes from shot_db, else from dataset. Each corpus root is read once."""
    load = functools.cache(load_corpus)
    datasets = load(Path(dataset)) if dataset else {}
    settings = cfg.settings if seed is None else replace(cfg.settings, seed=seed)
    if cfg.backend == "http":
        backend: Backend = HttpBackend(cfg.backend_config)
    else:
        source = dataset or cfg.shot_db
        truth = truth_map(load(Path(source)).values()) if source else {}
        backend = MockBackend(replace(cfg.mock, truth=truth, seed=settings.seed), cfg.backend_config)
    source = cfg.shot_db or dataset
    shot_db = shot_db_from(load(Path(source)).values()) if source else ShotDatabase([])
    return settings, backend, shot_db, datasets


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    specs = load_spec_set(args.spec)
    split = build_dataset(specs, rng=random.Random(args.seed))
    project_dir = write_dataset(split, args.out, specs)
    counts: dict[str, dict[str, int]] = {}
    for split_name, files in (("shot_pool", split.shot_pool), ("eval_set", split.eval_set)):
        for lf in files:
            bucket = lf.bucket.value if lf.bucket else "unbucketed"
            slot = counts.setdefault(bucket, {"shot_pool": 0, "eval_set": 0})
            slot[split_name] += 1
    _progress(f"wrote {len(split.shot_pool) + len(split.eval_set)} files to {project_dir}")
    print(json.dumps({"project": specs.project, "per_subcategory": counts}, indent=2, sort_keys=True))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    cfg = FrameworkConfig.from_file(args.config)
    target = load_config_file(args.file, args.project, args.version)
    settings, backend, shot_db, _ = _set_up(cfg, args.seed, None)
    verdict = validate_file(target, backend, shot_db, settings)
    print(json.dumps(verdict.to_report(str(args.file)), indent=2, sort_keys=True))
    return 1 if verdict.hasError else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = FrameworkConfig.from_file(args.config)
    settings, backend, shot_db, datasets = _set_up(cfg, args.seed, args.dataset)
    eval_total = sum(len(split.eval_set) for split in datasets.values())
    fewest, scarce = min((shot_db.count(label), label.value) for label in Label)
    if args.sweep and args.max_shots > fewest:
        # a combination of more shots of one label than the database holds fails on every file
        raise ConfvalError(f"--max-shots {args.max_shots} exceeds the {fewest} {scarce} shots in the shot database")
    _progress(f"evaluating {eval_total} files from {len(datasets)} project(s)")
    if args.sweep:
        sweep = run_sweep(datasets, backend, shot_db, settings, max_shots=args.max_shots, jobs=args.jobs)
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "sweep": {label: report.to_dict() for label, report in sweep.items()},
        }
        reports = list(sweep.values())
    else:
        reports = [run_evaluation(datasets, backend, shot_db, settings, jobs=args.jobs)]
        doc = reports[0].to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
        _progress(f"report written to {args.report}")
    print(text)
    if all(r.files_scored == 0 for r in reports):  # a systemic failure
        failures = [failure["error"] for r in reports for failure in r.failures]
        first = f"; the first: {failures[0]}" if failures else ""
        raise ConfvalError(f"no file was scored: {len(failures)} file validations failed{first}")
    return 0


def _render_report(doc: dict) -> tuple[list[str], MetricsReport | None]:
    """Table lines for a report or sweep document, plus the rebuilt report."""
    if "sweep" in doc:
        sweep = checked(doc, _SWEEP_KEYS, "sweep document")["sweep"]
        lines = [f"{'combination':<12} {'file F1':>8} {'param F1':>9} {'files':>6}"]
        for label, entry in sorted(sweep.items()):
            report = MetricsReport.from_dict(entry, f"sweep[{label!r}]")
            lines.append(
                f"{label:<12} {report.macro['file']['f1']:>8.3f} "
                f"{report.macro['parameter']['f1']:>9.3f} {report.files_scored:>6}"
            )
        return lines, None
    report = MetricsReport.from_dict(doc)
    lines = [f"{'project':<16} {'level':<10} {'precision':>9} {'recall':>7} {'f1':>6}"]
    for project, levels in report.per_project.items():
        for level, metrics in levels.items():
            lines.append(
                f"{project:<16} {level:<10} {metrics['precision']:>9.3f} "
                f"{metrics['recall']:>7.3f} {metrics['f1']:>6.3f}"
            )
    lines += ["", f"{'subcategory':<28} {'micro F1':>8}"]
    lines += [f"{slug:<28} {value:>8.3f}" for slug, value in report.micro_f1_by_subcategory.items()]
    lines += ["", f"{'bucket':<10} {'param F1':>8}"]
    lines += [f"{label:<10} {value:>8.3f}" for label, value in report.f1_by_param_count.items()]
    return lines, report


def cmd_report(args: argparse.Namespace) -> int:
    doc = read_document(args.report, "report", REPORT_SCHEMA_VERSION)
    try:
        lines, report = _render_report(doc)
        tables = report_csv_tables(report) if args.csv and report else {}
        # a lone surrogate in a label can be neither printed nor written as UTF-8
        for line in (*lines, *"".join(tables.values()).splitlines()):
            line.encode("utf-8")
    except (ConfvalError, KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SpecError(f"malformed report {args.report}: {exc!r}") from exc
    if args.csv and report is None:
        raise SpecError(f"--csv needs a single evaluate report; {args.report} is a sweep")
    if tables:
        out_dir = Path(args.csv)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            (out_dir / f"{name}.csv").write_text(text, encoding="utf-8")
        _progress(f"CSV tables written to {out_dir}")
    print("\n".join(lines))
    return 0


def _int_at_least(low: int) -> Callable[[str], int]:
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="confval",
        description="Validate configuration files with an LLM backend and "
        "benchmark the validator against generated corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="generate a labeled corpus from a project spec")
    p.add_argument("--spec", required=True, help="project spec JSON")
    p.add_argument("--out", required=True, help="dataset output root")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_dataset)

    p = sub.add_parser("validate", help="validate one configuration file")
    p.add_argument("--file", required=True)
    p.add_argument("--project", required=True)
    p.add_argument("--version", required=True)
    p.add_argument("--config", required=True, help="framework config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("evaluate", help="score the validator over a dataset's eval set")
    p.add_argument("--dataset", required=True, help="dataset root directory")
    p.add_argument("--config", required=True)
    p.add_argument("--report", default=None, help="where to write the report JSON")
    p.add_argument("--sweep", action="store_true", help="run every shot combination")
    p.add_argument("--max-shots", type=_int_at_least(0), default=5)
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a report JSON as tables")
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None, help="directory for CSV exports")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    An operational error (a ConfvalError, or an OSError from reading an input or
    writing an output path or stdout, such as a closed pipe or a full disk)
    prints one ``error:`` line on stderr and returns 2.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except (ConfvalError, OSError) as exc:
        _progress(f"error: {exc}")
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself failed: point it at devnull, so the flush at exit
            # finds somewhere to write what is still buffered
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
