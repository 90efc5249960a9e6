import gc
import json
import sys
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from confval.backend import (
    MALFORMED_TEXT,
    Backend,
    BackendConfig,
    HttpBackend,
    MockBackend,
    MockBehavior,
    MockScript,
    prompt_fingerprint,
    query,
    query_batch,
    truth_map,
)
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat
from confval.constraints import Subcategory
from confval.errors import BackendError
from confval.evaluation import run_evaluation
from confval.misconfig_gen import InjectedFault, Label, LabeledFile
from confval.pipeline import PipelineSettings
from confval.prompting import ShotDatabase, build_prompt, shot_from_labeled


def target_file(names=("a", "b", "c"), project="demo"):
    return ConfigFile(project, "1.0", ConfigFormat.XML, tuple(ConfigEntry(n, "1") for n in names))


def misconfig_labeled(names=("a", "b", "c"), flagged="a"):
    fault = InjectedFault(flagged, Subcategory.RANGE_PORT, "too large")
    return LabeledFile(target_file(names), Label.MISCONFIG, fault)


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
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BackendConfig(**kwargs)


class TestMockBackend:
    def test_echo_ground_truth(self):
        labeled = misconfig_labeled()
        truth = truth_map([labeled])
        backend = MockBackend(MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth))
        prompt = build_prompt(labeled.file, [])
        text = query(backend, prompt)
        assert json.loads(text)["errParameter"] == ["a"]

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
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(token_limit=5))
        prompt = build_prompt(target_file(), [])
        with pytest.raises(BackendError):
            query(backend, prompt)
        assert backend.total_calls == 0

    def test_noise_bit_deterministic_across_runs(self):
        labeled = misconfig_labeled()
        prompt = build_prompt(labeled.file, [])

        def run():
            script = MockScript(
                MockBehavior.NOISE_WITH_RATE,
                truth=truth_map([labeled]),
                noise_rate=0.5,
                seed=42,
            )
            backend = MockBackend(script)
            return [query(backend, prompt) for _ in range(50)]

        assert run() == run()

    def test_noise_rate_binomial_expectation(self):
        labeled = misconfig_labeled(names=tuple(f"p{i}" for i in range(8)), flagged="p0")
        truth = truth_map([labeled])
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
        backend = MockBackend(
            MockScript(MockBehavior.ALWAYS_VALID),
            BackendConfig(max_parallel=3),
            delay=0.005,
        )
        prompt = build_prompt(target_file(), [])
        results = query_batch(backend, prompt, 12)
        assert len(results) == 12
        assert backend.max_in_flight_seen <= 3

    def test_cap_holds_across_evaluation_jobs(self, dataset):
        # four file workers share the backend's request pool, so at most
        # max_parallel requests are in flight, and the report does not change
        split = replace(dataset, eval_set=dataset.eval_set[:16])
        shot_db = ShotDatabase(shot_from_labeled(lf) for lf in split.shot_pool)

        def run(jobs):
            backend = MockBackend(
                MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth=truth_map([split])),
                BackendConfig(max_parallel=2),
                delay=0.002,
            )
            report = run_evaluation({"demo": split}, backend, shot_db, PipelineSettings(seed=3), jobs=jobs)
            return report, backend.max_in_flight_seen

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

            def query(self, prompt):
                with self.lock:
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
        # six first callers racing for the pool still get one pool of two threads
        assert len(backend.servers) <= 2
        assert backend.peak <= 2

    def test_request_threads_end_with_backend(self):
        gc.collect()
        before = set(threading.enumerate())
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID), BackendConfig(max_parallel=3))
        assert len(query_batch(backend, build_prompt(target_file(), []), 6)) == 6
        assert set(threading.enumerate()) - before
        del backend
        gc.collect()
        deadline = time.monotonic() + 5.0
        while set(threading.enumerate()) - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not set(threading.enumerate()) - before
        assert threading.active_count() <= len(before)

    def test_batch_single(self):
        backend = MockBackend(MockScript(MockBehavior.ALWAYS_VALID))
        results = query_batch(backend, build_prompt(target_file(), []), 1)
        assert len(results) == 1


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
        backend, _ = http_backend([_StubResponse(200, {"unexpected": True})], monkeypatch)
        with pytest.raises(BackendError) as exc_info:
            query(backend, build_prompt(target_file(), []))
        assert exc_info.value.category == "protocol"


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
        thread.join(timeout=5)
