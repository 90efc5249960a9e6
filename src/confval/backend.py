"""Pluggable text-in/text-out model backends.

HttpBackend speaks a chat-completion style JSON exchange (one user message
per query) with bounded, jittered exponential backoff on retryable failures.
MockBackend is the test double: scripted responses plus four default
behaviors, bit-deterministic for a fixed seed regardless of thread
interleaving because every response is a pure function of
(seed, prompt fingerprint, per-prompt call index).

Concurrency has one owner: each backend object gets one request pool of
config.max_parallel threads, created on first use and shared by every
caller. max_parallel is therefore a per-backend limit on requests in flight
across all `evaluate --jobs` workers; --jobs only overlaps files.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping

import requests

from .errors import BackendError
from .prompting import Prompt
from .responses import misconfig_answer, valid_answer

RETRY_ATTEMPTS = 5
BACKOFF_BASE_SECONDS = 1.0


@dataclass(frozen=True)
class BackendConfig:
    model_id: str = "gpt-4-class"
    temperature: float = 0.2
    token_limit: int = 8192
    endpoint: str = ""
    credentials_env: str = "CONFVAL_API_KEY"
    request_timeout: float = 60.0
    max_parallel: int = 4

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be within [0, 2]")
        if self.token_limit <= 0:
            raise ValueError("token_limit must be positive")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if self.max_parallel <= 0:
            raise ValueError("max_parallel must be positive")


class Backend:
    """Interface: .config plus query(prompt) returning the raw completion."""

    config: BackendConfig

    def query(self, prompt: Prompt) -> str:
        raise NotImplementedError


def prompt_fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def query(backend: Backend, prompt: Prompt) -> str:
    """Single completion; refuses over-budget prompts before any network I/O."""
    if prompt.token_estimate > backend.config.token_limit:
        raise BackendError(
            f"prompt estimate {prompt.token_estimate} exceeds token limit "
            f"{backend.config.token_limit}",
            category="protocol",
            retryable=False,
        )
    return backend.query(prompt)


# One request pool per backend. Keyed weakly, so a backend's worker threads
# exit once the backend is collected; the pool itself holds no reference to
# its backend. Kept outside the object so subclasses need not call
# Backend.__init__.
_pools: weakref.WeakKeyDictionary[Backend, ThreadPoolExecutor] = weakref.WeakKeyDictionary()
_pools_lock = threading.Lock()


def _request_pool(backend: Backend) -> ThreadPoolExecutor:
    with _pools_lock:
        pool = _pools.get(backend)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=backend.config.max_parallel, thread_name_prefix="confval-request"
            )
            _pools[backend] = pool
        return pool


def query_batch(backend: Backend, prompt: Prompt, count: int) -> list[str | BackendError]:
    """count completions through the backend's shared request pool; slot order kept.

    The pool has config.max_parallel threads and serves every caller of this
    backend, so concurrent batches (one per `--jobs` file worker) together
    never have more than max_parallel requests in flight.

    A slot whose query ultimately fails contributes its BackendError instead
    of text; callers decide how to treat partial failure.
    """
    if count < 1:
        raise ValueError("count must be at least 1")

    def one(_slot: int) -> str | BackendError:
        try:
            return query(backend, prompt)
        except BackendError as exc:
            return exc

    return list(_request_pool(backend).map(one, range(count)))


# --- scripted mock ---


class MockBehavior(Enum):
    ECHO_GROUND_TRUTH = "echo_ground_truth"
    ALWAYS_VALID = "always_valid"
    MALFORMED = "malformed"
    NOISE_WITH_RATE = "noise_with_rate"


MALFORMED_TEXT = "Sorry, I cannot answer in the requested structure right now."


@dataclass(frozen=True)
class MockScript:
    """Scripted responses override the default behavior per (fingerprint,
    call index); everything else follows the behavior."""

    behavior: MockBehavior = MockBehavior.ECHO_GROUND_TRUTH
    responses: Mapping[tuple[str, int], str] = field(default_factory=dict)
    truth: Mapping[str, str] = field(default_factory=dict)
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.behavior is MockBehavior.NOISE_WITH_RATE and not (0.0 <= self.noise_rate <= 1.0):
            raise ValueError("noise_rate must be within [0, 1]")


def truth_map(splits) -> dict[str, str]:
    """content_key -> ground-truth answer JSON, for echoing mocks.

    Accepts any iterable of LabeledFile or of DatasetSplit objects.
    """
    from .misconfig_gen import DatasetSplit, Label  # cycle-free local import

    out: dict[str, str] = {}

    def add(labeled):
        if labeled.label is Label.VALID:
            answer = valid_answer()
        else:
            answer = misconfig_answer(labeled.injected.parameter, labeled.injected.reason)
        out[labeled.file.content_key()] = answer.to_json()

    for item in splits:
        if isinstance(item, DatasetSplit):
            for labeled in item.shot_pool + item.eval_set:
                add(labeled)
        else:
            add(item)
    return out


class MockBackend(Backend):
    """Deterministic offline backend with concurrency instrumentation."""

    def __init__(self, script: MockScript, config: BackendConfig | None = None, delay: float = 0.0):
        self.script = script
        self.config = config or BackendConfig()
        self.delay = delay
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._in_flight = 0
        self.max_in_flight_seen = 0
        self.total_calls = 0

    def query(self, prompt: Prompt) -> str:
        fingerprint = prompt_fingerprint(prompt.text)
        with self._lock:
            index = self._calls.get(fingerprint, 0)
            self._calls[fingerprint] = index + 1
            self.total_calls += 1
            self._in_flight += 1
            self.max_in_flight_seen = max(self.max_in_flight_seen, self._in_flight)
        try:
            if self.delay:
                time.sleep(self.delay)
            return self._respond(prompt, fingerprint, index)
        finally:
            with self._lock:
                self._in_flight -= 1

    def _respond(self, prompt: Prompt, fingerprint: str, index: int) -> str:
        scripted = self.script.responses.get((fingerprint, index))
        if scripted is not None:
            return scripted
        behavior = self.script.behavior
        if behavior is MockBehavior.ALWAYS_VALID:
            return valid_answer().to_json()
        if behavior is MockBehavior.MALFORMED:
            return MALFORMED_TEXT
        truth = self.script.truth.get(prompt.target.content_key(), valid_answer().to_json())
        if behavior is MockBehavior.ECHO_GROUND_TRUTH:
            return truth
        # NOISE_WITH_RATE: corruption is a pure function of (seed, prompt, index)
        rng = _derived_rng(self.script.seed, fingerprint, index)
        if rng.random() >= self.script.noise_rate:
            return truth
        if rng.random() < 0.5:
            return valid_answer().to_json()
        flagged = rng.choice(prompt.target.names())
        return misconfig_answer(flagged, f"value of {flagged} looks wrong").to_json()


def _derived_rng(seed: int, fingerprint: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{fingerprint}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# --- HTTP chat-completion backend ---


class HttpBackend(Backend):
    """POSTs {model, messages, temperature} and reads choices[0].message.content.

    The API key comes from the environment variable named in the config and
    is never logged. session and sleep are injectable for tests.
    """

    def __init__(
        self,
        config: BackendConfig,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if not config.endpoint:
            raise ValueError("HttpBackend requires an endpoint URL")
        self.config = config
        self._session = session or requests.Session()
        self._sleep = sleep
        self._rng = rng or random.Random()

    def query(self, prompt: Prompt) -> str:
        last: BackendError | None = None
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return self._query_once(prompt)
            except BackendError as exc:
                if not exc.retryable:
                    raise
                last = exc
                if attempt < RETRY_ATTEMPTS - 1:
                    backoff = BACKOFF_BASE_SECONDS * (2**attempt)
                    self._sleep(backoff * (1.0 + 0.25 * self._rng.random()))
        raise BackendError(
            f"giving up after {RETRY_ATTEMPTS} attempts: {last}",
            category=last.category,
            retryable=False,
        )

    def _query_once(self, prompt: Prompt) -> str:
        key = os.environ.get(self.config.credentials_env, "")
        if not key:
            raise BackendError(
                f"missing API key: environment variable {self.config.credentials_env} is unset",
                category="auth",
                retryable=False,
            )
        payload = {
            "model": self.config.model_id,
            "messages": [{"role": "user", "content": prompt.text}],
            "temperature": self.config.temperature,
        }
        try:
            response = self._session.post(
                self.config.endpoint,
                json=payload,
                headers={"Authorization": f"Bearer {key}"},
                timeout=self.config.request_timeout,
            )
        except requests.Timeout as exc:
            raise BackendError(f"request timed out: {exc}", "timeout", retryable=True) from exc
        except requests.RequestException as exc:
            raise BackendError(f"transport failure: {exc}", "transport", retryable=True) from exc

        status = response.status_code
        if status == 429:
            raise BackendError("rate limited", "rate_limit", retryable=True)
        if status in (401, 403):
            raise BackendError(f"authentication failed (HTTP {status})", "auth", retryable=False)
        if 400 <= status < 500:
            raise BackendError(f"request rejected (HTTP {status})", "http", retryable=False)
        if status >= 500:
            raise BackendError(f"server error (HTTP {status})", "http", retryable=True)
        try:
            body = response.json()
            return body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                f"unexpected response shape: {exc}", "protocol", retryable=False
            ) from exc
