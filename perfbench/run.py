#!/usr/bin/env python3
"""The confval benchmark: four workloads, end-to-end metrics, layer tracing.

    python3 perfbench/run.py --workload offline-echo --seed 3 --seconds 25 --trace 0

Run from the repository root. The package is imported from ./src; nothing
is installed. Every run sets up the corpora, then repeats set-up and the
workload's pass until --seconds have gone by, checks every pass's output,
and prints one JSON object as the last line of stdout. With --trace 0 it
holds the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and holds the per-layer metrics. See NOTES.md for what each
workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_DIR = HERE / "specs"
OUT_DIR = HERE / "out"

EVAL_FILES = 586
SHOT_FILES = 110
# The corpus the six spec documents build at REFERENCE_SEED is the one the
# test suite's six-project fixture builds; the digest pins it.
REFERENCE_SEED = 1
REFERENCE_DIGEST = "9418fc70a95479bf8d8ee9bdacd7a648eb4a89745b97147ac09c977392760f4d"
# Frozen output of scripts/noise_recall_expectation.py.
EXPECTED_NOISE_RECALL = 0.9969
NOISE_RECALL_TOLERANCE = 0.05
NOISE_RATE = 0.2

CORPUS_SEEDS_PER_RUN = 4
ENDPOINT_SLOTS = 2
ENDPOINT_SERVICE_S = 0.002


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import confval
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import confval from {ROOT / 'src'}: {exc}")
    if not Path(confval.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: confval resolved outside this checkout: {confval.__file__}")


_import_package()

import confval.cli  # noqa: E402
import confval.constraints  # noqa: E402
import confval.evaluation  # noqa: E402
import confval.misconfig_gen  # noqa: E402
import confval.prompting  # noqa: E402
from confval.backend import BackendConfig, MockBackend, MockBehavior, MockScript, truth_map  # noqa: E402
from confval.config_model import render_config  # noqa: E402
from confval.misconfig_gen import Label  # noqa: E402
from confval.pipeline import PipelineSettings, Verdict  # noqa: E402
from confval.prompting import SelectionStrategy, ShotDatabase, estimate_tokens, shot_from_labeled  # noqa: E402

from fakes import Meter, MessyBackend, SimulatedEndpoint  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


@dataclass(frozen=True)
class Evaluate:
    strategy: SelectionStrategy
    jobs: int
    backend: str  # "echo", "messy" or "endpoint"


EVALUATE = {
    "offline-echo": Evaluate(SelectionStrategy.RANDOM, jobs=1, backend="echo"),
    "offline-messy-cosine": Evaluate(SelectionStrategy.COSINE_SIMILARITY, jobs=1, backend="messy"),
    "remote-evaluate": Evaluate(SelectionStrategy.RANDOM, jobs=2, backend="endpoint"),
}
WORKLOADS = (*EVALUATE, "corpus-build")


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"perfbench: check failed: {message}", file=sys.stderr)


# --- set-up ---


def spec_paths() -> list[Path]:
    return sorted(SPEC_DIR.glob("*.json"))


def project_seed(seed: int, index: int) -> int:
    return 100 * seed + index


@dataclass
class Corpus:
    specs: list
    splits: dict
    shot_db: ShotDatabase
    truth: dict


def set_up(seed: int) -> Corpus:
    """Load the spec documents; build the corpora, shot database and truth map."""
    specs = [confval.constraints.load_spec_set(path) for path in spec_paths()]
    splits = {
        spec.project: confval.misconfig_gen.build_dataset(spec, rng=random.Random(project_seed(seed, i)))
        for i, spec in enumerate(specs)
    }
    shot_db = ShotDatabase(shot_from_labeled(lf) for split in splits.values() for lf in split.shot_pool)
    return Corpus(specs, splits, shot_db, truth_map(splits.values()))


def corpus_keys(splits: dict) -> list[str]:
    return [lf.file.content_key() for split in splits.values() for lf in split.shot_pool + split.eval_set]


def check_reference_corpus(checks: Checks) -> None:
    corpus = set_up(REFERENCE_SEED)
    evals = sum(len(s.eval_set) for s in corpus.splits.values())
    shots = sum(len(s.shot_pool) for s in corpus.splits.values())
    digest = hashlib.sha256("".join(corpus_keys(corpus.splits)).encode()).hexdigest()
    checks.expect(
        (evals, shots, digest) == (EVAL_FILES, SHOT_FILES, REFERENCE_DIGEST),
        f"spec documents rebuild {evals} eval / {shots} shot files, digest {digest[:12]}, "
        f"at the reference seed; expected {EVAL_FILES} / {SHOT_FILES}, {REFERENCE_DIGEST[:12]}",
    )


# --- evaluate workloads ---


def make_backend(kind: str, corpus: Corpus, seed: int):
    config = BackendConfig(max_parallel=2)
    if kind == "messy":
        noisy = MockBackend(
            MockScript(MockBehavior.NOISE_WITH_RATE, truth=corpus.truth, noise_rate=NOISE_RATE, seed=seed),
            config,
        )
        return MessyBackend(noisy, seed)
    echo = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=corpus.truth), config)
    if kind == "endpoint":
        return SimulatedEndpoint(echo, ENDPOINT_SLOTS, ENDPOINT_SERVICE_S)
    return echo


def param_recall(report: dict) -> float:
    tp = sum(levels["parameter"]["tp"] for levels in report["per_project"].values())
    fn = sum(levels["parameter"]["fn"] for levels in report["per_project"].values())
    return tp / (tp + fn)


def evaluate_pass(workload: str, corpus: Corpus, seed: int, tracer: Tracer | None = None) -> dict:
    spec = EVALUATE[workload]
    inner = make_backend(spec.backend, corpus, seed)
    meter = Meter(inner)
    backend = tracer.backend(meter) if tracer else meter
    settings = PipelineSettings(strategy=spec.strategy, seed=seed)
    latencies: list[float] = []
    validate_file = confval.evaluation.validate_file

    def timed_validate_file(*args, **kwargs):
        started = time.perf_counter()
        try:
            return validate_file(*args, **kwargs)
        finally:
            latencies.append((time.perf_counter() - started) * 1000.0)

    confval.evaluation.validate_file = timed_validate_file
    try:
        with tracer or contextlib.nullcontext():
            started = time.perf_counter()
            report = confval.evaluation.run_evaluation(
                corpus.splits, backend, corpus.shot_db, settings, jobs=spec.jobs
            )
            wall = time.perf_counter() - started
    finally:
        confval.evaluation.validate_file = validate_file
    doc = report.to_dict()
    files = report.files_scored + len(report.failures)
    out = {
        "wall": wall,
        "files": files,
        "failed": len(report.failures),
        "report": json.dumps(doc, sort_keys=True),
        "param_f1": doc["macro"]["parameter"]["f1"],
        "param_recall": param_recall(doc),
        "calls_per_file": meter.calls / files,
        "prompt_tokens_per_file": meter.prompt_tokens / files,
        "latencies": latencies,
        "peak_in_flight": meter.peak_in_flight,
    }
    if isinstance(inner, SimulatedEndpoint):
        out["queue_waits_ms"] = [w * 1000.0 for w in inner.queue_waits_s()]
        out["busy_share"] = inner.requests * inner.service_s / (inner.slots * wall)
    return out


def check_evaluate_pass(workload: str, result: dict, checks: Checks) -> None:
    checks.expect(result["files"] == EVAL_FILES, f"{workload}: {result['files']} files attempted")
    checks.expect(result["failed"] == 0, f"{workload}: {result['failed']} files failed")
    checks.expect(len(result["latencies"]) == result["files"], f"{workload}: per-file latency count")
    if workload == "offline-echo":
        checks.expect(result["param_f1"] == 1.0, f"offline-echo: param F1 {result['param_f1']}")
    if workload == "offline-messy-cosine":
        recall = result["param_recall"]
        checks.expect(
            abs(recall - EXPECTED_NOISE_RECALL) <= NOISE_RECALL_TOLERANCE,
            f"offline-messy-cosine: recall {recall:.4f} vs {EXPECTED_NOISE_RECALL}",
        )


# --- corpus-build workload ---


def corpus_reference(corpus_seed: int) -> dict:
    """Content keys and generation-time oracle calls of the library build."""
    calls = 0
    original = confval.misconfig_gen.oracle_validate

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    confval.misconfig_gen.oracle_validate = counting
    try:
        corpus = set_up(corpus_seed)
    finally:
        confval.misconfig_gen.oracle_validate = original
    return {"keys": corpus_keys(corpus.splits), "oracle_calls": calls}


def corpus_pass(specs: list, out: Path, corpus_seed: int, tracer: Tracer | None = None) -> dict:
    """gen-dataset through the CLI, read back, oracle-check every file."""
    codes, read_back, checked, latencies = [], {}, [], []
    cli_output = io.StringIO()
    with tracer or contextlib.nullcontext():
        started = time.perf_counter()
        with contextlib.redirect_stdout(cli_output), contextlib.redirect_stderr(cli_output):
            for i, path in enumerate(spec_paths()):
                codes.append(confval.cli.main([
                    "gen-dataset", "--spec", str(path), "--out", str(out),
                    "--seed", str(project_seed(corpus_seed, i)),
                ]))
        for spec in specs:
            _, read_back[spec.project] = confval.misconfig_gen.load_dataset(out / spec.project)
        shot_db = confval.prompting.load_shot_db(out)
        for spec in specs:
            split = read_back[spec.project]
            for lf in split.shot_pool + split.eval_set:
                t0 = time.perf_counter()
                found = confval.constraints.oracle_validate(lf.file, spec)
                latencies.append((time.perf_counter() - t0) * 1000.0)
                checked.append((lf, found))
        wall = time.perf_counter() - started
    shots = sum(len(shot_db.pool(p, label)) for p in shot_db.projects() for label in Label)
    return {
        "wall": wall,
        "codes": codes,
        "read_back": read_back,
        "shots": shots,
        "checked": checked,
        "latencies": latencies,
    }


def oracle_verdict(found: list) -> Verdict:
    names = tuple(sorted({v.parameter for v in found}))
    return Verdict(
        canonical_key=(bool(found), names),
        tally=1,
        total_votes=1,
        reasons=tuple(v.detail for v in found),
        all_responses=(),
    )


def score_corpus_pass(result: dict, reference: dict, checks: Checks) -> dict:
    """Check the pass and turn it into end-to-end figures.

    The rule oracle is scored as the validator: every misconfig file must
    trip it exactly once, on the injected parameter and sub-category, and
    every valid file never, so its parameter F1 and recall are 1.0.
    """
    checks.expect(result["codes"] == [0] * len(result["codes"]), f"gen-dataset exit codes {result['codes']}")
    keys = corpus_keys(result["read_back"])
    checks.expect(keys == reference["keys"], "read-back corpus differs from the library build")
    evals = sum(len(s.eval_set) for s in result["read_back"].values())
    checks.expect(
        (evals, result["shots"]) == (EVAL_FILES, SHOT_FILES),
        f"corpus-build: {evals} eval / {result['shots']} shot files read back",
    )
    failed, scored, tokens = 0, [], 0
    for lf, found in result["checked"]:
        if lf.label is Label.MISCONFIG:
            ok = (
                len(found) == 1
                and found[0].parameter == lf.injected.parameter
                and found[0].subcategory is lf.injected.subcategory
            )
        else:
            ok = not found
        failed += not ok
        scored.append(confval.evaluation.scored_from(oracle_verdict(found), lf))
        tokens += estimate_tokens(render_config(lf.file, lf.file.format))
    checks.expect(failed == 0, f"corpus-build: {failed} files disagree with the oracle")
    doc = confval.evaluation.build_report(scored).to_dict()
    files = len(result["checked"])
    return {
        "wall": result["wall"],
        "report": json.dumps(doc, sort_keys=True),
        "files": files,
        "failed": failed,
        "param_f1": doc["macro"]["parameter"]["f1"],
        "param_recall": param_recall(doc),
        "calls_per_file": (reference["oracle_calls"] + files) / files,
        "prompt_tokens_per_file": tokens / files,
        "latencies": result["latencies"],
    }


class CorpusBuild:
    """Cycles through CORPUS_SEEDS_PER_RUN corpus seeds derived from the run
    seed, writing every pass into the same directory inside the checkout."""

    def __init__(self, seed: int, specs: list, checks: Checks):
        self.seeds = [seed * CORPUS_SEEDS_PER_RUN + k for k in range(CORPUS_SEEDS_PER_RUN)]
        self.references = {s: corpus_reference(s) for s in self.seeds}
        self.specs = specs
        self.checks = checks
        self.out = OUT_DIR / f"corpus-{os.getpid()}"

    def run_pass(self, index: int, tracer: Tracer | None = None) -> dict:
        corpus_seed = self.seeds[index % len(self.seeds)]
        result = corpus_pass(self.specs, self.out, corpus_seed, tracer)
        return score_corpus_pass(result, self.references[corpus_seed], self.checks)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


# --- runs ---


def p98(values: list[float]) -> float:
    return statistics.quantiles(values, n=50)[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_set_up(seed: int, times: list[float]) -> Corpus:
    started = time.perf_counter()
    corpus = set_up(seed)
    times.append(time.perf_counter() - started)
    return corpus


def repeat(seconds: float, one_pass) -> list:
    """one_pass(index) at least once, then again until seconds have passed."""
    deadline = time.perf_counter() + seconds
    passes = [one_pass(0)]
    while time.perf_counter() < deadline:
        passes.append(one_pass(len(passes)))
    return passes


# Per-pass figures that repeat exactly at a fixed seed; reported as medians.
PER_PASS = (
    ("calls_per_file", "count"),
    ("prompt_tokens_per_file", "count"),
    ("param_f1", "ratio"),
    ("param_recall", "ratio"),
)


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict:
    """Throughput is all files over all pass time, and latency percentiles
    pool every file of every pass. Host speed here shifts between states
    within a run; pooling weighs them by the time spent in each, where a
    median of per-pass figures snaps to whichever state held most passes."""
    latencies = [ms for p in passes for ms in p["latencies"]]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "files_per_s": {"value": sum(p["files"] for p in passes) / sum(p["wall"] for p in passes), "unit": "1/s"},
        "file_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
        "file_ms_p98": {"value": p98(latencies), "unit": "ms"},
    }
    for name, unit in PER_PASS:
        metrics[name] = {"value": statistics.median(p[name] for p in passes), "unit": unit}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return metrics


def run_untraced(workload: str, seed: int, seconds: float, checks: Checks) -> tuple[dict, list[dict], dict]:
    """Sets up once, then again before each pass, so the set-up times sample
    the host across the whole run as the passes do."""
    setup_times: list[float] = []
    corpus = timed_set_up(seed, setup_times)
    extra: dict = {}
    if workload == "corpus-build":
        build = CorpusBuild(seed, corpus.specs, checks)

        def one_pass(index: int) -> dict:
            timed_set_up(seed, setup_times)
            return build.run_pass(index)

        try:
            passes = repeat(seconds, one_pass)
        finally:
            build.close()
        extra["corpus_seeds"] = build.seeds
    else:
        passes = repeat(seconds, lambda _: evaluate_pass(workload, timed_set_up(seed, setup_times), seed))
        for p in passes:
            check_evaluate_pass(workload, p, checks)
        checks.expect(len({p["report"] for p in passes}) == 1, f"{workload}: reports differ between passes")
        if workload == "remote-evaluate":
            echo = evaluate_pass("offline-echo", corpus, seed)
            checks.expect(echo["report"] == passes[0]["report"], "remote-evaluate report differs from offline-echo")
            extra["peak_in_flight"] = max(p["peak_in_flight"] for p in passes)
    extra["setup_s"] = spread(setup_times)
    return end_to_end(passes, setup_times), passes, extra


def run_traced(workload: str, seed: int, seconds: float, checks: Checks) -> tuple[dict, list[dict], dict]:
    tracer = Tracer()
    with tracer:
        corpus = set_up(seed)
    if workload == "corpus-build":
        build = CorpusBuild(seed, corpus.specs, checks)
        run_pass = build.run_pass
    else:
        build = None

        def run_pass(_index, tracer=None):
            result = evaluate_pass(workload, corpus, seed, tracer)
            check_evaluate_pass(workload, result, checks)
            return result

    try:
        pairs = repeat(seconds, lambda i: (run_pass(i), run_pass(i, tracer)))
    finally:
        if build:
            build.close()
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    for u, t in pairs:
        same = (u["report"], u["files"], u["failed"]) == (t["report"], t["files"], t["failed"])
        checks.expect(same, f"{workload}: traced report differs from untraced report")

    metrics = layer_metrics(tracer, len(traced))
    waits = [w for t in traced for w in t.get("queue_waits_ms", ())]
    metrics["backend.peak_in_flight"] = max(t.get("peak_in_flight", 0) for t in traced)
    metrics["backend.queue_wait_ms_p50"] = statistics.median(waits) if waits else 0.0
    metrics["backend.queue_wait_ms_p98"] = p98(waits) if waits else 0.0
    metrics["backend.endpoint_busy_share"] = statistics.median(t.get("busy_share", 0.0) for t in traced)
    metrics["trace.overhead_share"] = (
        statistics.median(t["wall"] for t in traced) / statistics.median(u["wall"] for u in untraced) - 1.0
    )
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz")
    units = {name: _layer_unit(name) for name in metrics}
    return (
        {name: {"value": float(value), "unit": units[name]} for name, value in sorted(metrics.items())},
        untraced + traced,
        {"spans": len(tracer.spans), "traced_passes": len(traced)},
    )


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", "ms_per_file", "ms_per_call", "_p50", "_p98")):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# --- provenance ---


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def filesystem_of(path: Path) -> str:
    """Mount type holding path, from /proc/self/mounts where it exists."""
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, kind = "", "unknown"
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        if len(fields) > 2 and (target + "/").startswith(fields[1].rstrip("/") + "/") and len(fields[1]) >= len(best):
            best, kind = fields[1], fields[2]
    return kind


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"min": values[0], "max": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values), "n": len(values)}


def pin_to_one_cpu() -> int | None:
    """Run every thread of this process on one CPU.

    confval's Python code holds the GIL, so it uses one core at a time
    anyway. Spread over two vCPUs of a shared host, GIL hand-offs between
    cores stall whenever the host preempts the holder's vCPU, which swung
    per-file p98 latency on the offline workloads between 1 and 8 ms from
    one minute to the next; on one CPU it stayed within 0.6-1.3 ms.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not spec_paths():
        sys.exit(f"perfbench: no spec documents under {SPEC_DIR}")

    cpu = pin_to_one_cpu()
    checks = Checks()
    check_reference_corpus(checks)
    run = run_traced if args.trace else run_untraced
    metrics, passes, extra = run(args.workload, args.seed, args.seconds, checks)
    attempted = sum(p["files"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "temp_dir": str(OUT_DIR.relative_to(ROOT)),
        "temp_fs": filesystem_of(OUT_DIR),
        "pass_wall_s": spread([p["wall"] for p in passes]),
        "check_failures": checks.failures,
        **extra,
    }
    result = {"correct": not checks.failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
