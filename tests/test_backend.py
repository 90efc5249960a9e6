import gc
import json
import os
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
import requests

import confval
from confval.backend import (
    MALFORMED_TEXT,
    RETRY_ATTEMPTS,
    Backend,
    BackendConfig,
    HttpBackend,
    MockBackend,
    MockBehavior,
    MockScript,
    _request_pool,
    _RequestPool,
    prompt_fingerprint,
    query,
    query_batch,
    truth_map,
)
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat
from confval.constraints import Subcategory
from confval.errors import BackendError
from confval.evaluation import run_evaluation
from confval.misconfig_gen import DatasetSplit, InjectedFault, Label, LabeledFile
from confval.pipeline import PipelineSettings
from confval.prompting import ShotDatabase, build_prompt, shot_from_labeled

from conftest import Counting


def target_file(names=("a", "b", "c"), project="demo"):
    return ConfigFile(project, "1.0", ConfigFormat.XML, tuple(ConfigEntry(n, "1") for n in names))


def misconfig_labeled(names=("a", "b", "c"), flagged="a"):
    fault = InjectedFault(flagged, Subcategory.RANGE_PORT, "too large")
    return LabeledFile(target_file(names), Label.MISCONFIG, fault, bucket=Subcategory.RANGE_PORT)


def corpus_of(*files):
    """A corpus whose eval set holds just these files."""
    return DatasetSplit((), files)


def wait_until(predicate, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.001)
    return predicate()


def pool_idle(pool):
    """Every pool thread waits for a task and none is queued."""
    return pool.backlog == -len(pool.threads)


def within_deadline(fn, seconds=10.0):
    """fn() on a helper thread, so a batch that never completes fails the test instead of hanging it."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    helper = threading.Thread(target=run, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"no result within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# A backend whose requests wait (sleep) is always served by the pool's threads;
# an instant one is asked on the caller's thread from its second batch on.
WAIT = 0.0005


class TestBackendConfig:
    def test_defaults_match_framework_defaults(self):
        cfg = BackendConfig()
        assert cfg.temperature == 0.2
        assert cfg.token_limit == 8192

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": 2.5},
            {"temperature": -0.1},
            {"token_limit": 0},
            {"max_parallel": 0},
            {"request_timeout": 0},
            # a socket timeout past threading.TIMEOUT_MAX, or not a number, fails in urllib3
            {"request_timeout": float("nan")},
            {"request_timeout": float("inf")},
            {"request_timeout": 1e10},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackendConfig(**kwargs)

    def test_longest_timeout_accepted(self):
        assert BackendConfig(request_timeout=threading.TIMEOUT_MAX).request_timeout == threading.TIMEOUT_MAX


class TestMockBackend:
    def test_echo_ground_truth(self):
        labeled = misconfig_labeled()
        truth = truth_map([corpus_of(labeled)])
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        prompt = build_prompt(labeled.file, [])
        text = query(backend, prompt)
        assert json.loads(text)["errParameter"] == ["a"]

    @pytest.mark.parametrize("behavior", [MockBehavior.ECHO_GROUND_TRUTH, MockBehavior.NOISE_WITH_RATE])
    def test_valid_fallback_built_only_for_files_without_truth(self, monkeypatch, behavior):
        labeled = misconfig_labeled()
        backend = MockBackend(MockScript(behavior, noise_rate=0.0, truth=truth_map([corpus_of(labeled)])))
        valid_text = confval.backend.valid_answer().to_json()

        def unexpected():
            raise AssertionError("built the valid answer for a file the truth map holds")

        monkeypatch.setattr(confval.backend, "valid_answer", unexpected)
        assert json.loads(query(backend, build_prompt(labeled.file, [])))["errParameter"] == ["a"]
        monkeypatch.undo()
        assert query(backend, build_prompt(target_file(("x", "y")), [])) == valid_text

    def test_always_valid(self):
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID))
        text = query(backend, build_prompt(target_file(), []))
        assert json.loads(text) == {"hasError": False, "errParameter": [], "reason": []}

    def test_malformed_is_not_json(self):
        backend = MockBackend(MockScript(MockBehavior.MALFORMED))
        text = query(backend, build_prompt(target_file(), []))
        assert text == MALFORMED_TEXT
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_scripted_override_by_call_index(self):
        prompt = build_prompt(target_file(), [])
        fp = prompt_fingerprint(prompt.text)
        script = MockScript(
            MockBehavior.ALWAYS_VALID,
            responses={(fp, 0): "first", (fp, 1): "second"},
        )
        backend = MockBackend(script)
        assert query(backend, prompt) == "first"
        assert query(backend, prompt) == "second"
        assert json.loads(query(backend, prompt))["hasError"] is False

    def test_over_budget_prompt_never_reaches_backend(self):
        backend = Counting(MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(token_limit=5)))
        prompt = build_prompt(target_file(), [])
        with pytest.raises(BackendError):
            query(backend, prompt)
        assert backend.calls == 0

    def test_noise_bit_deterministic_across_runs(self):
        labeled = misconfig_labeled()
        prompt = build_prompt(labeled.file, [])

        def run():
            script = MockScript(
                MockBehavior.NOISE_WITH_RATE,
                truth=truth_map([corpus_of(labeled)]),
                noise_rate=0.5,
                seed=42,
            )
            backend = MockBackend(script)
            return [query(backend, prompt) for _ in range(50)]

        assert run() == run()

    def test_noise_rate_binomial_expectation(self):
        labeled = misconfig_labeled(names=tuple(f"p{i}" for i in range(8)), flagged="p0")
        truth = truth_map([corpus_of(labeled)])
        prompt = build_prompt(labeled.file, [])
        script = MockScript(
            MockBehavior.NOISE_WITH_RATE, truth=truth, noise_rate=0.2, seed=7
        )
        backend = MockBackend(script)
        expected = truth[labeled.file.content_key()]
        corrupted = sum(query(backend, prompt) != expected for _ in range(500))
        # raw corruption is Bin(500, 0.2); 1/16 of corruptions echo the truth
        assert 60 <= corrupted <= 130

    def test_batch_respects_parallel_bound(self):
        backend = Counting(
            MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=3)),
            delay=0.005,
        )
        prompt = build_prompt(target_file(), [])
        results = query_batch(backend, prompt, 12)
        assert len(results) == 12
        assert backend.calls == 12
        assert backend.peak <= 3

    def test_cap_holds_across_evaluation_jobs(self, dataset):
        # four file workers share the backend's request pool, so at most
        # max_parallel requests are in flight, and the report does not change
        split = replace(dataset, eval_set=dataset.eval_set[:16])
        shot_db = ShotDatabase(shot_from_labeled(lf) for lf in split.shot_pool)

        def run(jobs):
            backend = Counting(
                MockBackend(
                    MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth_map([split])),
                    BackendConfig(max_parallel=2),
                ),
                delay=0.002,
            )
            report = run_evaluation({"demo": split}, backend, shot_db, PipelineSettings(seed=3), jobs=jobs)
            return report, backend.peak

        serial, _ = run(1)
        parallel, peak = run(4)
        assert peak <= 2
        assert parallel.to_dict() == serial.to_dict()

    def test_batches_share_one_pool_without_backend_init(self):
        class Gauge(Backend):
            # never calls Backend.__init__, like wrapping backends do
            def __init__(self, config):
                self.config = config
                self.lock = threading.Lock()
                self.in_flight = 0
                self.peak = 0
                self.servers = set()
                self.calls = 0

            def query(self, prompt):
                with self.lock:
                    self.calls += 1
                    self.in_flight += 1
                    self.peak = max(self.peak, self.in_flight)
                    self.servers.add(threading.get_ident())
                time.sleep(0.001)
                with self.lock:
                    self.in_flight -= 1
                return "{}"

        backend = Gauge(BackendConfig(max_parallel=2))
        prompt = build_prompt(target_file(), [])
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(query_batch(backend, prompt, 5)))
            for _ in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [["{}"] * 5] * 6
        assert backend.calls == 30  # each slot issued exactly once
        # six first callers racing for the pool still get one pool of two threads
        assert len(backend.servers) <= 2
        assert backend.peak <= 2

    def test_request_threads_end_with_backend(self):
        gc.collect()
        before = set(threading.enumerate())
        backend = Counting(
            MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=3)), WAIT
        )
        assert len(query_batch(backend, build_prompt(target_file(), []), 6)) == 6
        assert set(threading.enumerate()) - before
        del backend
        gc.collect()
        deadline = time.monotonic() + 5.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not set(threading.enumerate()) - before
        assert threading.active_count() <= len(before)

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_foreign_error_stops_the_batch(self, parallel):
        release = threading.Event()

        class Failing(Backend):
            def __init__(self):
                self.config = BackendConfig(max_parallel=parallel)
                self.lock = threading.Lock()
                self.calls = 0

            def query(self, prompt):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                if call == 1:
                    raise RuntimeError("backend bug")
                # every other slot stays in flight until the error has reached the caller
                release.wait(timeout=30)
                return "{}"

        backend = Failing()
        with pytest.raises(RuntimeError, match="backend bug"):
            query_batch(backend, build_prompt(target_file(), []), 8)
        release.set()
        _request_pool(backend).shutdown(wait=True)
        # the failing slot, plus at most the one other thread's slot in flight
        assert backend.calls <= parallel

    def test_threads_start_on_demand(self):
        gc.collect()
        before = set(threading.enumerate())
        backend = Counting(
            MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=64)), WAIT
        )
        prompt = build_prompt(target_file(), [])
        assert len(query_batch(backend, prompt, 6)) == 6
        started = [t for t in set(threading.enumerate()) - before if t.name.startswith("confval-request")]
        assert 1 <= len(started) <= 6
        # every thread waits again before the batch's caller is signalled, so the next
        # batches of this caller find them idle and start none
        for _ in range(5):
            assert len(query_batch(backend, prompt, 6)) == 6
        assert set(threading.enumerate()) - before == set(started)

    def test_huge_cap_costs_only_what_is_used(self):
        """Permits, like threads, are made on first need: a cap of 10**9 builds in
        bounded time and memory, and a batch mints no more permits than its slots."""
        tracemalloc.start()
        try:
            began = time.perf_counter()
            pool = _RequestPool(10**9)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pool.shutdown()
        assert elapsed < 1.0
        assert peak < 64 * 1024
        gc.collect()
        before = set(threading.enumerate())
        backend = Counting(
            MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=10**9)), WAIT
        )
        prompt = build_prompt(target_file(), [])
        assert len(within_deadline(lambda: query_batch(backend, prompt, 6))) == 6
        started = [t for t in set(threading.enumerate()) - before if t.name.startswith("confval-request")]
        assert 1 <= len(started) <= 6
        assert 1 <= _request_pool(backend).minted <= 6

    def test_concurrent_batches_fill_the_cap(self):
        release = threading.Event()

        class Blocking(Backend):
            def __init__(self):
                self.config = BackendConfig(max_parallel=8)
                self.lock = threading.Lock()
                self.in_flight = self.peak = self.calls = 0

            def query(self, prompt):
                with self.lock:
                    self.calls += 1
                    self.in_flight += 1
                    self.peak = max(self.peak, self.in_flight)
                release.wait(timeout=30)
                with self.lock:
                    self.in_flight -= 1
                return "{}"

        backend = Blocking()
        prompt = build_prompt(target_file(), [])
        results = []
        callers = [
            threading.Thread(target=lambda: results.append(query_batch(backend, prompt, 4)))
            for _ in range(3)
        ]
        for caller in callers:
            caller.start()
        wait_until(lambda: backend.in_flight >= 8)
        time.sleep(0.05)  # room for a ninth request, if the pool allowed one
        peak_while_blocked = backend.peak
        release.set()
        for caller in callers:
            caller.join(timeout=30)
        assert not any(caller.is_alive() for caller in callers)
        assert peak_while_blocked == 8
        assert backend.peak == 8
        assert results == [["{}"] * 4] * 3
        assert backend.calls == 12

    def test_queued_batches_are_served_whole_in_order(self):
        entered, gate = threading.Event(), threading.Event()
        prompts = {name: build_prompt(target_file((name,)), []) for name in ("first", "second", "third")}
        names = {id(prompt): name for name, prompt in prompts.items()}

        class Recording(Backend):
            def __init__(self):
                self.config = BackendConfig(max_parallel=1)
                self.order = []

            def query(self, prompt):
                entered.set()
                gate.wait(timeout=30)
                self.order.append(names[id(prompt)])
                return names[id(prompt)]

        backend = Recording()
        pool = _request_pool(backend)
        results = {}

        def ask(name):
            results[name] = query_batch(backend, prompts[name], 3)

        callers = [threading.Thread(target=ask, args=(name,)) for name in prompts]
        callers[0].start()
        assert entered.wait(timeout=10)  # the pool's one thread is busy with "first"
        for queued, caller in enumerate(callers[1:], start=1):
            caller.start()
            assert wait_until(lambda: pool.tasks.qsize() == queued)
        gate.set()
        for caller in callers:
            caller.join(timeout=30)
        assert not any(caller.is_alive() for caller in callers)
        assert backend.order == ["first"] * 3 + ["second"] * 3 + ["third"] * 3
        assert results == {name: [name] * 3 for name in prompts}

    def test_pool_outlives_a_foreign_error(self):
        class FailsOnce(Backend):
            def __init__(self):
                self.config = BackendConfig(max_parallel=8)
                self.lock = threading.Lock()
                self.calls = 0

            def query(self, prompt):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                time.sleep(WAIT)
                if call == 4:
                    raise RuntimeError("backend bug")
                return "{}"

        backend = FailsOnce()
        prompt = build_prompt(target_file(), [])
        pool = _request_pool(backend)
        assert within_deadline(lambda: query_batch(backend, prompt, 3)) == ["{}"] * 3
        threads = list(pool.threads)
        with pytest.raises(RuntimeError, match="backend bug"):
            within_deadline(lambda: query_batch(backend, prompt, 3))
        # the batch's other drain tasks may still be running; an idle pool starts no thread
        assert wait_until(lambda: pool_idle(pool))
        assert within_deadline(lambda: query_batch(backend, prompt, 3)) == ["{}"] * 3
        assert pool.threads == threads
        assert all(thread.is_alive() for thread in threads)

    def test_foreign_error_does_not_wait_for_slots_in_flight(self):
        entered, release = threading.Event(), threading.Event()

        class FailsSecond(Backend):
            def __init__(self):
                self.config = BackendConfig(max_parallel=2)
                self.lock = threading.Lock()
                self.calls = 0

            def query(self, prompt):
                with self.lock:
                    self.calls += 1
                    call = self.calls
                if call == 1:
                    entered.set()
                    release.wait(timeout=30)
                    return "{}"
                entered.wait(timeout=30)
                raise RuntimeError("backend bug")

        backend = FailsSecond()
        try:
            # the first call is still in flight when the error reaches the caller
            with pytest.raises(RuntimeError, match="backend bug"):
                within_deadline(lambda: query_batch(backend, build_prompt(target_file(), []), 4))
        finally:
            release.set()
        _request_pool(backend).shutdown(wait=True)
        assert backend.calls == 2

    def test_pool_counts_hold_under_contention(self):
        backend = Counting(
            MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=3)), WAIT
        )
        prompt = build_prompt(target_file(), [])
        sizes = [1 + (i * 5) % 7 for i in range(20)]
        failures = []

        def ask():
            for size in sizes:
                if len(query_batch(backend, prompt, size)) != size:
                    failures.append(size)

        callers = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert not failures
        assert backend.calls == 8 * sum(sizes)
        assert backend.peak <= 3
        # a lost update to the count of queued tasks and waiting threads would show here
        pool = _request_pool(backend)
        assert wait_until(lambda: pool_idle(pool))
        assert 1 <= len(pool.threads) <= 3

    def test_offline_import_leaves_requests_unloaded(self):
        code = "import sys, confval, confval.cli; print('requests' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(confval.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_batch_single(self):
        backend = Counting(MockBackend(MockScript(MockBehavior.ALWAYS_VALID)), WAIT)
        results = query_batch(backend, build_prompt(target_file(), []), 1)
        assert len(results) == 1


class Switching(Backend):
    """Records the thread of every request; sleeps while slow, raises while failing."""

    def __init__(self, max_parallel=1):
        self.config = BackendConfig(max_parallel=max_parallel)
        self.slow = self.failing = False
        self.threads = []

    def query(self, prompt):
        self.threads.append(threading.current_thread().name)
        if self.slow:
            time.sleep(0.002)
        if self.failing:
            raise RuntimeError("backend bug")
        return "{}"


class TestWaveDispatch:
    """A batch goes to the pool's threads while the last request measured
    waited, and is asked on the caller's thread otherwise."""

    def batch(self, backend, monkeypatch, count=3):
        """(pool.waits before the batch, threads that served it, drain tasks it queued)."""
        pool, seen, queued = _request_pool(backend), len(backend.threads), []
        submit = _RequestPool.submit

        def counted(pool, batch, drains):
            queued.append(drains)
            submit(pool, batch, drains)

        prompt = build_prompt(target_file(), [])
        with monkeypatch.context() as patch:
            patch.setattr(_RequestPool, "submit", counted)
            waits = pool.waits
            assert within_deadline(lambda: query_batch(backend, prompt, count)) == ["{}"] * count
        return waits, set(backend.threads[seen:]), sum(queued)

    def test_instant_backend_answers_on_the_callers_thread(self, monkeypatch):
        backend = Switching(max_parallel=2)
        waits, threads, queued = self.batch(backend, monkeypatch)
        assert waits and queued == 2 and all(t.startswith("confval-request_") for t in threads)
        inline = 0
        for _ in range(50):
            waits, threads, queued = self.batch(backend, monkeypatch)
            pooled = all(t.startswith("confval-request_") for t in threads)
            # the rule itself, batch by batch: waited -> drain tasks on pool threads, else none
            assert (queued == 2 and pooled) if waits else (queued == 0 and len(threads) == 1 and not pooled)
            inline += not waits
        # an instant request seldom looks as if it waited (the host may preempt it)
        assert inline >= 45

    def test_waiting_backend_is_served_only_by_pool_threads(self, monkeypatch):
        backend = Switching(max_parallel=2)
        backend.slow = True
        for count in (1, 3, 5, 2, 4, 1):
            waits, threads, queued = self.batch(backend, monkeypatch, count)
            assert waits and queued == min(count, 2)
            assert threads and all(t.startswith("confval-request_") for t in threads)
        assert _request_pool(backend).waits

    def test_backend_that_turns_slow_goes_back_to_the_pool(self, monkeypatch):
        backend = Switching()
        pool = _request_pool(backend)
        self.batch(backend, monkeypatch)
        assert wait_until(lambda: self.batch(backend, monkeypatch)[2] == 0, seconds=5)
        backend.slow = True
        self.batch(backend, monkeypatch)  # its first slow request, on whichever thread
        assert pool.waits
        for _ in range(3):
            waits, threads, queued = self.batch(backend, monkeypatch)
            assert waits and queued == 1 and threads == {"confval-request_0"}
        backend.slow = False
        waits, threads, queued = self.batch(backend, monkeypatch)
        assert waits and queued == 1  # the flag is the last slow request's
        assert wait_until(lambda: self.batch(backend, monkeypatch)[2] == 0, seconds=5)
        assert not any(t.startswith("confval-request_") for t in backend.threads[-3:])

    def test_inline_foreign_error_returns_its_permit(self, monkeypatch):
        backend = Switching(max_parallel=1)
        pool = _request_pool(backend)
        self.batch(backend, monkeypatch)
        # an inline batch after which the flag still reads "does not wait", so the next is inline too
        assert wait_until(lambda: not self.batch(backend, monkeypatch)[0] and not pool.waits, seconds=5)
        backend.failing = True
        seen = len(backend.threads)
        with pytest.raises(RuntimeError, match="backend bug"):
            query_batch(backend, build_prompt(target_file(), []), 4)
        # no further slot was asked, and on this thread
        assert backend.threads[seen:] == [threading.current_thread().name]
        assert pool.permits.qsize() == 1
        backend.failing = False
        # the one permit is back: the next batch, inline or pooled, completes
        assert within_deadline(lambda: query_batch(backend, build_prompt(target_file(), []), 3)) == ["{}"] * 3


class _StubResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body

    def json(self):
        if self._body is None:
            raise ValueError("no body")
        return self._body


class _StubSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def http_backend(outcomes, monkeypatch, **cfg_kwargs):
    monkeypatch.setenv("CONFVAL_API_KEY", "sk-test")
    sleeps = []
    config = BackendConfig(endpoint="https://llm.example/api", **cfg_kwargs)
    backend = HttpBackend(config, session=_StubSession(outcomes), sleep=sleeps.append)
    return backend, sleeps


def ok_body(content="done"):
    return {"choices": [{"message": {"content": content}}]}


class TestHttpBackend:
    def test_success(self, monkeypatch):
        backend, _ = http_backend([_StubResponse(200, ok_body("hello"))], monkeypatch)
        assert query(backend, build_prompt(target_file(), [])) == "hello"

    def test_rate_limit_retried_with_backoff(self, monkeypatch):
        backend, sleeps = http_backend(
            [_StubResponse(429), _StubResponse(429), _StubResponse(200, ok_body())],
            monkeypatch,
        )
        assert query(backend, build_prompt(target_file(), [])) == "done"
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # doubling base, jitter at most 25%

    def test_auth_failure_not_retried(self, monkeypatch):
        backend, sleeps = http_backend([_StubResponse(401)], monkeypatch)
        with pytest.raises(BackendError) as exc_info:
            query(backend, build_prompt(target_file(), []))
        assert exc_info.value.category == "auth"
        assert not exc_info.value.retryable
        assert sleeps == []
        assert backend._session.calls == 1

    def test_server_errors_exhaust_retries(self, monkeypatch):
        backend, sleeps = http_backend([_StubResponse(503)] * 5, monkeypatch)
        with pytest.raises(BackendError, match="giving up"):
            query(backend, build_prompt(target_file(), []))
        assert backend._session.calls == 5
        assert len(sleeps) == 4

    def test_timeout_categorized_and_retried(self, monkeypatch):
        backend, _ = http_backend(
            [requests.Timeout("slow"), _StubResponse(200, ok_body())], monkeypatch
        )
        assert query(backend, build_prompt(target_file(), [])) == "done"

    def test_missing_credentials(self, monkeypatch):
        monkeypatch.delenv("CONFVAL_API_KEY", raising=False)
        config = BackendConfig(endpoint="https://llm.example/api")
        backend = HttpBackend(config, session=_StubSession([]))
        with pytest.raises(BackendError) as exc_info:
            query(backend, build_prompt(target_file(), []))
        assert exc_info.value.category == "auth"

    def test_bad_response_shape(self, monkeypatch):
        # content that is not a string would meet the parser as a TypeError
        for body in ({"unexpected": True}, ok_body(None), ok_body(["part"])):
            backend, sleeps = http_backend([_StubResponse(200, body)], monkeypatch)
            with pytest.raises(BackendError) as exc_info:
                query(backend, build_prompt(target_file(), []))
            assert exc_info.value.category == "protocol"
            assert not exc_info.value.retryable
            assert sleeps == []


class _ChatHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        content = f"echo:{payload['model']}:{len(payload['messages'])}"
        body = json.dumps(ok_body(content)).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_http_backend_against_local_server(monkeypatch):
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        monkeypatch.setenv("CONFVAL_API_KEY", "sk-local")
        config = BackendConfig(
            endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat", model_id="test-model"
        )
        backend = HttpBackend(config)
        text = query(backend, build_prompt(target_file(), []))
        assert text == "echo:test-model:1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_longest_timeout_against_a_closed_port_is_a_backend_error(monkeypatch):
    """The longest timeout BackendConfig accepts is one the socket layer takes:
    a refused connection is retried and given up as a BackendError."""
    with socket.socket() as probe:  # a local port that nothing listens on once closed
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    monkeypatch.setenv("CONFVAL_API_KEY", "sk-local")
    config = BackendConfig(endpoint=f"http://127.0.0.1:{port}/v1/chat", request_timeout=threading.TIMEOUT_MAX)
    sleeps = []
    backend = HttpBackend(config, sleep=sleeps.append)
    try:
        with pytest.raises(BackendError, match="giving up") as exc_info:
            query(backend, build_prompt(target_file(), []))
    finally:
        backend._session.close()
    assert exc_info.value.category == "transport"
    assert len(sleeps) == RETRY_ATTEMPTS - 1
