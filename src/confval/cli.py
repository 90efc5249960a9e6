"""Command-line entry point: gen-dataset, validate, evaluate, report.

Exit codes form a stable contract for CI gating: 0 means the validated file
looks correct, 1 means a misconfiguration verdict, 2 and above mean an
operational error. Progress goes to stderr; stdout carries machine output
only (verdict or report JSON, count summaries).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from .backend import Backend, BackendConfig, HttpBackend, MockBackend, MockBehavior, MockScript, truth_map
from .config_model import load_config_file
from .errors import ConfvalError, SpecError
from .evaluation import MetricsReport, report_csv_tables, run_evaluation, run_sweep
from .misconfig_gen import DatasetSplit, build_dataset, load_dataset, write_dataset
from .pipeline import (
    DEFAULT_NUM_QUERIES,
    DEFAULT_RETRY_BOUND,
    PipelineSettings,
    validate_file,
)
from .prompting import (
    DEFAULT_COMBINATION,
    DEFAULT_QUESTION_TEMPLATE,
    SelectionStrategy,
    ShotCombination,
    ShotDatabase,
    load_shot_db,
)
from .constraints import load_spec_set

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class FrameworkConfig:
    """Everything the pipeline needs, loadable from one JSON document.

    Secrets never live in the file; only the name of the environment variable
    holding the API key does.
    """

    backend: str = "mock"
    model_id: str = "gpt-4-class"
    temperature: float = 0.2
    token_limit: int = 8192
    endpoint: str = ""
    credentials_env: str = "CONFVAL_API_KEY"
    request_timeout: float = 60.0
    max_parallel: int = 4
    num_queries: int = DEFAULT_NUM_QUERIES
    shot_valid: int = DEFAULT_COMBINATION.valid_count
    shot_misconfig: int = DEFAULT_COMBINATION.misconfig_count
    strategy: str = SelectionStrategy.RANDOM.value
    retry_bound: int = DEFAULT_RETRY_BOUND
    seed: int = 0
    shot_db: str | None = None
    question_template_path: str | None = None
    mock_behavior: str = MockBehavior.ECHO_GROUND_TRUTH.value
    mock_noise_rate: float = 0.2
    mock_seed: int | None = None
    mock_truth_from: str | None = None

    def __post_init__(self):
        if self.backend not in ("mock", "http"):
            raise SpecError(f"backend must be 'mock' or 'http', got {self.backend!r}")
        # build every derived object once, so a bad value fails at load time
        try:
            self.backend_config()
            self._settings(DEFAULT_QUESTION_TEMPLATE, None)
            MockScript(MockBehavior(self.mock_behavior), noise_rate=self.mock_noise_rate)
        except (TypeError, ValueError) as exc:
            raise SpecError(f"invalid framework config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "FrameworkConfig":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError(f"cannot read framework config {path}: {exc}") from exc
        shots = doc.pop("shots", None)
        mock = doc.pop("mock", None)
        doc.pop("schema_version", None)
        kwargs = dict(doc)
        if shots:
            kwargs["shot_valid"] = shots.get("valid", DEFAULT_COMBINATION.valid_count)
            kwargs["shot_misconfig"] = shots.get("misconfig", DEFAULT_COMBINATION.misconfig_count)
        if mock:
            kwargs["mock_behavior"] = mock.get("behavior", MockBehavior.ECHO_GROUND_TRUTH.value)
            kwargs["mock_noise_rate"] = mock.get("noise_rate", 0.2)
            kwargs["mock_seed"] = mock.get("seed")
            kwargs["mock_truth_from"] = mock.get("truth_from")
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise SpecError(f"invalid framework config: {exc}") from exc

    def backend_config(self) -> BackendConfig:
        return BackendConfig(
            model_id=self.model_id,
            temperature=self.temperature,
            token_limit=self.token_limit,
            endpoint=self.endpoint,
            credentials_env=self.credentials_env,
            request_timeout=self.request_timeout,
            max_parallel=self.max_parallel,
        )

    def pipeline_settings(self, seed: int | None = None) -> PipelineSettings:
        template = DEFAULT_QUESTION_TEMPLATE
        if self.question_template_path:
            try:
                template = Path(self.question_template_path).read_text(encoding="utf-8").strip()
            except OSError as exc:
                raise SpecError(f"cannot read question template: {exc}") from exc
        return self._settings(template, seed)

    def _settings(self, template: str, seed: int | None) -> PipelineSettings:
        return PipelineSettings(
            num_queries=self.num_queries,
            combination=ShotCombination(self.shot_valid, self.shot_misconfig),
            strategy=SelectionStrategy(self.strategy),
            retry_bound=self.retry_bound,
            seed=self.seed if seed is None else seed,
            question_template=template,
        )


def _load_datasets(root: Path) -> dict[str, DatasetSplit]:
    manifests = sorted(root.glob("*/manifest.json"))
    if not manifests and (root / "manifest.json").exists():
        manifests = [root / "manifest.json"]
    if not manifests:
        raise ConfvalError(f"no dataset manifest found under {root}")
    datasets: dict[str, DatasetSplit] = {}
    for manifest in manifests:
        project, split = load_dataset(manifest.parent)
        datasets[project] = split
    return datasets


def _make_backend(cfg: FrameworkConfig, seed: int | None, truth_root: Path | None) -> Backend:
    if cfg.backend == "http":
        return HttpBackend(cfg.backend_config())
    truth: dict[str, str] = {}
    source = cfg.mock_truth_from or cfg.shot_db
    if truth_root is not None:
        source = str(truth_root)
    if source:
        datasets = _load_datasets(Path(source))
        truth = truth_map(datasets.values())
    effective_seed = cfg.mock_seed
    if effective_seed is None:
        effective_seed = cfg.seed if seed is None else seed
    script = MockScript(
        behavior=MockBehavior(cfg.mock_behavior),
        truth=truth,
        noise_rate=cfg.mock_noise_rate,
        seed=effective_seed,
    )
    return MockBackend(script, cfg.backend_config())


def _shot_database(cfg: FrameworkConfig, fallback_root: Path | None) -> ShotDatabase:
    source = cfg.shot_db or (str(fallback_root) if fallback_root else None)
    if not source:
        return ShotDatabase([])
    return load_shot_db(Path(source))


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    try:
        specs = load_spec_set(args.spec)
        split = build_dataset(specs, rng=random.Random(args.seed))
        project_dir = write_dataset(split, args.out, specs)
    except ConfvalError as exc:
        _progress(f"error: {exc}")
        return 2
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
    try:
        cfg = FrameworkConfig.from_file(args.config)
        target = load_config_file(args.file, args.project, args.version)
        backend = _make_backend(cfg, args.seed, None)
        shot_db = _shot_database(cfg, None)
        settings = cfg.pipeline_settings(args.seed)
        verdict = validate_file(target, backend, shot_db, settings)
    except ConfvalError as exc:
        _progress(f"error: {exc}")
        return 2
    except OSError as exc:
        _progress(f"error: {exc}")
        return 2
    print(json.dumps(verdict.to_report(str(args.file)), indent=2, sort_keys=True))
    return 1 if verdict.hasError else 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    try:
        cfg = FrameworkConfig.from_file(args.config)
        dataset_root = Path(args.dataset)
        datasets = _load_datasets(dataset_root)
        backend = _make_backend(cfg, args.seed, dataset_root)
        shot_db = _shot_database(cfg, dataset_root)
        settings = cfg.pipeline_settings(args.seed)
        eval_total = sum(len(split.eval_set) for split in datasets.values())
        _progress(f"evaluating {eval_total} files from {len(datasets)} project(s)")
        if args.sweep:
            reports = run_sweep(
                datasets, backend, shot_db, settings, max_shots=args.max_shots, jobs=args.jobs
            )
            doc = {
                "schema_version": 1,
                "sweep": {label: report.to_dict() for label, report in reports.items()},
            }
            systemic = all(r.files_scored == 0 for r in reports.values())
        else:
            report = run_evaluation(datasets, backend, shot_db, settings, jobs=args.jobs)
            doc = report.to_dict()
            systemic = report.files_scored == 0
    except ConfvalError as exc:
        _progress(f"error: {exc}")
        return 2
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
        _progress(f"report written to {args.report}")
    print(text)
    return 2 if systemic else 0


def _render_report(doc: dict) -> tuple[list[str], MetricsReport | None]:
    """Table lines for a report or sweep document, plus the rebuilt report."""
    if "sweep" in doc:
        lines = [f"{'combination':<12} {'file F1':>8} {'param F1':>9} {'files':>6}"]
        for label, report in sorted(doc["sweep"].items()):
            macro = report["macro"]
            lines.append(
                f"{label:<12} {macro['file']['f1']:>8.3f} "
                f"{macro['parameter']['f1']:>9.3f} {report['files_scored']:>6}"
            )
        return lines, None
    report = MetricsReport(
        per_project=doc["per_project"],
        macro=doc["macro"],
        micro_f1_subcategory=doc["micro_f1_by_subcategory"],
        f1_by_param_count=doc["f1_by_param_count"],
        files_scored=doc["files_scored"],
        failures=tuple(doc.get("failures", ())),
    )
    lines = [f"{'project':<16} {'level':<10} {'precision':>9} {'recall':>7} {'f1':>6}"]
    for project, levels in report.per_project.items():
        for level, metrics in levels.items():
            lines.append(
                f"{project:<16} {level:<10} {metrics['precision']:>9.3f} "
                f"{metrics['recall']:>7.3f} {metrics['f1']:>6.3f}"
            )
    lines += ["", f"{'subcategory':<28} {'micro F1':>8}"]
    lines += [f"{slug:<28} {value:>8.3f}" for slug, value in report.micro_f1_subcategory.items()]
    lines += ["", f"{'bucket':<10} {'param F1':>8}"]
    lines += [f"{label:<10} {value:>8.3f}" for label, value in report.f1_by_param_count.items()]
    return lines, report


def cmd_report(args: argparse.Namespace) -> int:
    try:
        doc = json.loads(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _progress(f"error: {exc}")
        return 2
    try:
        lines, report = _render_report(doc)
        tables = report_csv_tables(report) if args.csv and report else {}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        _progress(f"error: malformed report {args.report}: {exc!r}")
        return 2
    print("\n".join(lines))
    if tables:
        out_dir = Path(args.csv)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in tables.items():
            (out_dir / f"{name}.csv").write_text(text, encoding="utf-8")
        _progress(f"CSV tables written to {out_dir}")
    return 0


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
    p.add_argument("--max-shots", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render a report JSON as tables")
    p.add_argument("--report", required=True)
    p.add_argument("--csv", default=None, help="directory for CSV exports")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
