"""Outside-in layer tracing for confval.

The tracer replaces the module attributes that confval's own callers look up
(``confval.pipeline.select_shots``, ``confval.prompting.build_prompt``, ...)
with wrappers that record spans, and puts the originals back on exit. A span
is [name, start, end, parent, file id]; spans stay in memory until the run
writes them out. Self time is a span's duration minus the part of it that
its children cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import threading
import time
from collections import Counter, defaultdict

from confval.backend import Backend
from confval.errors import ResponseFormatError

# (module, attribute the caller looks up, span name). Callers resolve these
# names at call time, so replacing the attribute reroutes every call.
PATCHES = (
    ("confval.evaluation", "run_evaluation", "evaluation.run_evaluation"),
    ("confval.evaluation", "validate_file", "pipeline.validate_file"),
    ("confval.evaluation", "scored_from", "evaluation.score"),
    ("confval.evaluation", "build_report", "evaluation.score"),
    ("confval.pipeline", "select_shots", "prompting.select_shots"),
    ("confval.pipeline", "build_prompt", "prompting.build_prompt"),
    ("confval.prompting", "build_prompt", "prompting.build_prompt"),
    ("confval.pipeline", "fit_to_budget", "prompting.fit_to_budget"),
    ("confval.prompting", "render_config", "config_model.render_config"),
    ("confval.misconfig_gen", "render_config", "config_model.render_config"),
    ("confval.prompting", "rank_by_similarity", "textsim.rank_by_similarity"),
    ("confval.pipeline", "query_batch", "backend.query_batch"),
    ("confval.pipeline", "parse_response", "responses.parse_response"),
    ("confval.pipeline", "validate_response", "responses.validate_response"),
    ("confval.pipeline", "vote", "pipeline.vote"),
    ("confval.pipeline", "dominant_representative", "textsim.dominant_representative"),
    ("confval.misconfig_gen", "build_dataset", "misconfig_gen.build_dataset"),
    ("confval.cli", "build_dataset", "misconfig_gen.build_dataset"),
    ("confval.misconfig_gen", "oracle_validate", "constraints.oracle_validate"),
    ("confval.constraints", "oracle_validate", "constraints.oracle_validate"),
    ("confval.cli", "write_dataset", "misconfig_gen.write_dataset"),
    ("confval.misconfig_gen", "load_dataset", "misconfig_gen.load_dataset"),
    ("confval.prompting", "load_dataset", "misconfig_gen.load_dataset"),
    ("confval.config_model", "load_config_file", "config_model.load_config_file"),
    ("confval.cli", "cmd_gen_dataset", "cli.gen_dataset"),
)

NAME, START, END, PARENT, FILE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ambient: int | None = None  # parent for spans on pool threads
        self._by_prompt: dict[int, int] = {}  # id(prompt) -> open query_batch span
        self._saved: list[tuple[object, str, object]] = []

    # --- spans ---

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None, file: str | None = None) -> int:
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else self._ambient
        if file is None and parent is not None:
            file = self.spans[parent][FILE]
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, file])
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # --- patching ---

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span_name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        special = {
            "pipeline.validate_file": self._validate_file,
            "backend.query_batch": self._query_batch,
            "responses.parse_response": self._parse_response,
            "responses.validate_response": self._validate_response,
            "evaluation.run_evaluation": self._run_evaluation,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special is not None:
                return special(name, fn, args, kwargs)
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            files = _file_count(name, args, result)
            if files:
                self.count(f"{name}.files", files)
            return result

        return wrapper

    def _validate_file(self, name, fn, args, kwargs):
        sid = self.open(name, file=args[0].content_key()[:16])
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def _query_batch(self, name, fn, args, kwargs):
        prompt = args[1]
        sid = self.open(name)
        self._by_prompt[id(prompt)] = sid
        try:
            return fn(*args, **kwargs)
        finally:
            del self._by_prompt[id(prompt)]
            self.close(sid)

    def _parse_response(self, name, fn, args, kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        except ResponseFormatError:
            self.count("discards.parse")
            raise
        finally:
            self.close(sid)

    def _validate_response(self, name, fn, args, kwargs):
        sid = self.open(name)
        try:
            rule = fn(*args, **kwargs)
        finally:
            self.close(sid)
        self.count(f"discards.{rule}" if rule else "accepted")
        return rule

    def _run_evaluation(self, name, fn, args, kwargs):
        sid = self.open(name)
        self._ambient = sid
        try:
            return fn(*args, **kwargs)
        finally:
            self._ambient = None
            self.close(sid)

    def backend(self, inner: Backend) -> Backend:
        return _TracedBackend(inner, self)

    # --- output ---

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for sid, (name, start, end, parent, file) in enumerate(self.spans):
                out.write(json.dumps([sid, name, start, end, parent, file]) + "\n")


class _TracedBackend(Backend):
    """Spans Backend.query; the parent is the query_batch that sent the prompt,
    which runs on another thread than the pool thread making the call."""

    def __init__(self, inner: Backend, tracer: Tracer):
        self.inner = inner
        self.config = inner.config
        self.tracer = tracer

    def query(self, prompt) -> str:
        sid = self.tracer.open("backend.query", parent=self.tracer._by_prompt.get(id(prompt)))
        try:
            return self.inner.query(prompt)
        finally:
            self.tracer.close(sid)


def _file_count(name: str, args, result) -> int:
    if name == "misconfig_gen.build_dataset":
        return len(result.shot_pool) + len(result.eval_set)
    if name == "misconfig_gen.write_dataset":
        return len(args[0].shot_pool) + len(args[0].eval_set)
    if name == "misconfig_gen.load_dataset":
        return len(result[1].shot_pool) + len(result[1].eval_set)
    return 0


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(sid, []), start, end)
        for sid, (name, start, end, parent, _) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, traced_passes: int) -> dict[str, float]:
    """Per-layer figures from every span a run recorded.

    "per_file" divides by the files the workload processes: eval files on
    the evaluate workloads, corpus files written on corpus-build. The
    generation layers divide by corpus files built. Counts of discards are
    per traced pass. A function the workload never calls reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    self_ms: Counter = Counter()
    total_ms: Counter = Counter()
    calls: Counter = Counter()
    gen_oracle_calls = 0
    for sid, span in enumerate(spans):
        name = span[NAME]
        self_ms[name] += selfs[sid] * 1000.0
        total_ms[name] += (span[END] - span[START]) * 1000.0
        calls[name] += 1
        if name == "constraints.oracle_validate":
            parent = spans[span[PARENT]][NAME] if span[PARENT] is not None else None
            gen_oracle_calls += parent == "misconfig_gen.build_dataset"

    counts = tracer.counts
    eval_files = calls["pipeline.validate_file"]
    work_files = eval_files or counts["misconfig_gen.write_dataset.files"]
    built = counts["misconfig_gen.build_dataset.files"]
    parsed = calls["responses.parse_response"]

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    out = {
        "backend.query_batch.self_ms_per_file": per(self_ms["backend.query_batch"], eval_files),
        "prompting.build_prompt.calls_per_file": per(calls["prompting.build_prompt"], eval_files),
        "prompting.build_prompt.self_ms_per_file": per(self_ms["prompting.build_prompt"], eval_files),
        "prompting.fit_to_budget.self_ms_per_file": per(self_ms["prompting.fit_to_budget"], eval_files),
        "config_model.render_config.calls_per_file": per(calls["config_model.render_config"], work_files),
        "config_model.render_config.self_ms_per_file": per(self_ms["config_model.render_config"], work_files),
        "prompting.select_shots.self_ms_per_file": per(self_ms["prompting.select_shots"], eval_files),
        "textsim.rank_by_similarity.self_ms_per_file": per(self_ms["textsim.rank_by_similarity"], eval_files),
        "textsim.dominant_representative.self_ms_per_file": per(
            self_ms["textsim.dominant_representative"], eval_files
        ),
        "pipeline.vote.self_ms_per_file": per(self_ms["pipeline.vote"], eval_files),
        "responses.parse_response.self_ms_per_call": per(self_ms["responses.parse_response"], parsed),
        "responses.accepted_share": per(counts["accepted"], parsed),
        "pipeline.rounds_per_file": per(calls["backend.query_batch"], eval_files),
        "pipeline.validate_file.self_ms_per_file": per(self_ms["pipeline.validate_file"], eval_files),
        "evaluation.run_evaluation.self_ms": per(
            self_ms["evaluation.run_evaluation"], calls["evaluation.run_evaluation"]
        ),
        "evaluation.score.self_ms_per_file": per(self_ms["evaluation.score"], eval_files),
        "misconfig_gen.build_dataset.self_ms_per_file": per(self_ms["misconfig_gen.build_dataset"], built),
        "misconfig_gen.write_dataset.ms_per_file": per(
            total_ms["misconfig_gen.write_dataset"], counts["misconfig_gen.write_dataset.files"]
        ),
        "misconfig_gen.load_dataset.self_ms_per_file": per(
            self_ms["misconfig_gen.load_dataset"], counts["misconfig_gen.load_dataset.files"]
        ),
        "config_model.load_config_file.ms_per_file": per(
            total_ms["config_model.load_config_file"], calls["config_model.load_config_file"]
        ),
        "constraints.oracle_validate.calls_per_file": per(gen_oracle_calls, built),
        "constraints.oracle_validate.self_ms_per_file": per(self_ms["constraints.oracle_validate"], built),
        "cli.gen_dataset.self_ms": per(self_ms["cli.gen_dataset"], calls["cli.gen_dataset"]),
    }
    for kind in ("parse", "R1", "R2", "R3", "R4"):
        out[f"responses.discards.{kind}"] = per(counts[f"discards.{kind}"], traced_passes)
    return out
