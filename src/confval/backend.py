"""Pluggable text-in/text-out model backends.

HttpBackend speaks a chat-completion style JSON exchange (one user message
per query) with bounded, jittered exponential backoff on retryable failures.
MockBackend is the test double: scripted responses plus four default
behaviors, bit-deterministic for a fixed seed regardless of thread
interleaving because every response is a pure function of
(seed, prompt fingerprint, per-prompt call index). The fingerprint is hashed
once per prompt (Prompt.fingerprint), not once per query.

Concurrency has one owner: each backend gets one request pool, and every
request holds one of its config.max_parallel permits, so the cap holds across
all `evaluate --jobs` workers. While requests wait (wall minus CPU time > CPU
time), pool threads run each batch's drain tasks first in, first out; else
the caller asks the slots itself, as threads cannot overlap GIL-bound work.

`requests` is imported only by HttpBackend, so offline runs never load it.
"""

from __future__ import annotations

import os
import queue
import random
import threading
import time
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import BackendError
from .prompting import Prompt, derived_rng, labeled_answer, prompt_fingerprint  # noqa: F401  (re-exported)
from .responses import misconfig_answer, valid_answer

if TYPE_CHECKING:
    import requests

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
        if not (0 < self.request_timeout <= threading.TIMEOUT_MAX):  # NaN included
            raise ValueError(f"request_timeout must be within (0, {threading.TIMEOUT_MAX:g}] seconds")
        if self.max_parallel <= 0:
            raise ValueError("max_parallel must be positive")


class Backend:
    """Interface: .config plus query(prompt) returning the raw completion."""

    config: BackendConfig

    def query(self, prompt: Prompt) -> str:
        raise NotImplementedError


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


# One request pool per backend, held outside it (subclasses need not call Backend.__init__)
# and keyed weakly: a pool holds no reference to its backend and shuts down once it is collected.
_pools: weakref.WeakKeyDictionary[Backend, _RequestPool] = weakref.WeakKeyDictionary()
_pools_lock = threading.Lock()


class _Batch:
    """One query_batch call: results, slot counter, pending drain tasks, completion signal."""

    def __init__(self, backend: Backend, prompt: Prompt, count: int):
        self.backend, self.prompt, self.results = backend, prompt, [None] * count
        self.next_slot, self.pending, self.error = 0, min(count, backend.config.max_parallel), None
        self.lock, self.done = threading.Lock(), threading.Lock()
        self.done.acquire()  # held until the batch is over; the caller blocks on it

    def drain(self, pool: _RequestPool, ask: Callable[[Backend, Prompt], str]) -> BaseException | None:
        while True:  # issues slots until none is left or one raises
            with self.lock:
                slot, self.next_slot = self.next_slot, self.next_slot + 1
            if slot >= len(self.results):
                return None
            try:  # a permit is held by every request in flight
                permit = pool.permits.get_nowait()
            except queue.Empty:
                permit = pool.mint_or_wait()
            try:
                self.results[slot] = ask(self.backend, self.prompt)
            except BackendError as exc:
                self.results[slot] = exc
            except BaseException as exc:  # handed to the caller; the thread lives on
                return exc
            finally:
                pool.permits.put(permit)


class _RequestPool:
    """Up to max_parallel permits and daemon threads, both made on first need, and one FIFO queue of drain tasks."""

    def __init__(self, max_parallel: int):
        self.max_parallel, self.closed = max_parallel, False
        self.tasks, self.lock, self.threads = queue.SimpleQueue(), threading.Lock(), []
        self.backlog = 0  # tasks queued minus threads waiting; a thread starts only while > 0
        self.permits = queue.SimpleQueue()  # the free permits; C-level, unlike threading.Semaphore
        self.minted = 0  # permits made so far
        self.waits = True  # did the last measured request wait? A first batch goes to the threads

    def mint_or_wait(self) -> int:
        """A new permit while fewer than max_parallel exist, else the next one freed."""
        with self.lock:
            if self.minted < self.max_parallel:
                self.minted += 1
                return self.minted
        return self.permits.get()

    def note(self, wall: float, cpu: float) -> None:  # requests begun at (perf_counter, thread_time)
        cpu = time.thread_time() - cpu
        self.waits = time.perf_counter() - wall - cpu > cpu

    def timed_query(self, backend: Backend, prompt: Prompt) -> str:  # a pool thread's request
        wall, cpu = time.perf_counter(), time.thread_time()
        try:
            return query(backend, prompt)
        finally:
            self.note(wall, cpu)

    def submit(self, batch: _Batch, drains: int) -> None:
        with self.lock:
            if self.closed:
                raise RuntimeError("request pool is shut down")
            for _ in range(drains):
                self.tasks.put(batch)
            self.backlog += drains
            while self.backlog > 0 and len(self.threads) < self.max_parallel:
                name = f"confval-request_{len(self.threads)}"
                self.threads.append(threading.Thread(target=self._serve, name=name, daemon=True))
                self.threads[-1].start()
                self.backlog -= 1

    def _serve(self) -> None:
        while (batch := self.tasks.get()) is not None:
            error = batch.drain(self, self.timed_query)
            with self.lock:
                self.backlog -= 1  # waiting again before the caller is signalled and submits more
            with batch.lock:
                if error is not None and batch.error is None:  # no further slot; the batch is over
                    batch.error, batch.next_slot, batch.pending = error, len(batch.results), 1
                batch.pending -= 1  # never reaches 0 again after the first foreign error
                if batch.pending == 0:
                    batch.done.release()
            del batch, error  # hold no backend while waiting

    def shutdown(self, wait: bool = True) -> None:
        with self.lock:
            self.closed = True
            for _ in self.threads:
                self.tasks.put(None)
        for thread in self.threads if wait else ():
            thread.join()


def _request_pool(backend: Backend) -> _RequestPool:
    with _pools_lock:
        pool = _pools.get(backend)
        if pool is None:
            pool = _pools[backend] = _RequestPool(backend.config.max_parallel)
            weakref.finalize(backend, pool.shutdown, False)
        return pool


def query_batch(backend: Backend, prompt: Prompt, count: int) -> list[str | BackendError]:
    """count completions through the backend's shared request pool; slot order kept.

    Every request holds one of the pool's max_parallel permits. If the last request
    measured waited (blocked longer than it ran), as is assumed for a first batch, the
    batch queues min(count, max_parallel) drain tasks for the pool's threads, first in,
    first out, and blocks until the last one finishes. Otherwise the caller asks the
    slots itself and times them for the next batch. A failed slot holds its
    BackendError; callers decide how to treat partial failure. Any other exception
    reaches the caller at once; no further slot is issued, though slots already in
    flight on pool threads run to completion.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    pool, batch = _request_pool(backend), _Batch(backend, prompt, count)
    if pool.waits:
        pool.submit(batch, batch.pending)
        batch.done.acquire()
    else:
        wall, cpu = time.perf_counter(), time.thread_time()
        batch.error = batch.drain(pool, query)
        pool.note(wall, cpu)
    if batch.error is not None:
        raise batch.error
    return batch.results


# --- scripted mock ---


class MockBehavior(Enum):
    ECHO_GROUND_TRUTH = "echo_ground_truth"
    ALWAYS_VALID = "always_valid"
    MALFORMED = "malformed"
    NOISE_WITH_RATE = "noise_with_rate"


MALFORMED_TEXT = "Sorry, I cannot answer in the requested structure right now."
# serialised once: the always-valid mock, a missing truth and a noise flip all send it
VALID_ANSWER_JSON = valid_answer().to_json()


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
    """content_key -> ground-truth answer JSON over every file of the given
    corpora (DatasetSplit objects), for echoing mocks."""
    return {
        labeled.file.content_key(): labeled_answer(labeled).to_json()
        for split in splits
        for labeled in split.shot_pool + split.eval_set
    }


class MockBackend(Backend):
    """Deterministic offline backend: each answer is a pure function of
    (seed, prompt fingerprint, per-prompt call index)."""

    def __init__(self, script: MockScript, config: BackendConfig | None = None):
        self.script = script
        self.config = config or BackendConfig()
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}

    def query(self, prompt: Prompt) -> str:
        fingerprint = prompt.fingerprint
        with self._lock:
            index = self._calls.get(fingerprint, 0)
            self._calls[fingerprint] = index + 1
        return self._respond(prompt, fingerprint, index)

    def _respond(self, prompt: Prompt, fingerprint: str, index: int) -> str:
        scripted = self.script.responses.get((fingerprint, index))
        if scripted is not None:
            return scripted
        behavior = self.script.behavior
        if behavior is MockBehavior.ALWAYS_VALID:
            return VALID_ANSWER_JSON
        if behavior is MockBehavior.MALFORMED:
            return MALFORMED_TEXT
        truth = self.script.truth.get(prompt.target.content_key(), VALID_ANSWER_JSON)
        if behavior is MockBehavior.ECHO_GROUND_TRUTH:
            return truth
        # NOISE_WITH_RATE: corruption is a pure function of (seed, prompt, index)
        rng = derived_rng(self.script.seed, fingerprint, index)
        if rng.random() >= self.script.noise_rate:
            return truth
        if rng.random() < 0.5 or not prompt.target.entries:  # nothing to flag
            return VALID_ANSWER_JSON
        flagged = rng.choice(prompt.target.names())
        return misconfig_answer(flagged, f"value of {flagged} looks wrong").to_json()


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
        if session is None:
            import requests

            session = requests.Session()
        self._session = session
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
        import requests

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
            content = body["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                f"unexpected response shape: {exc}", "protocol", retryable=False
            ) from exc
        if not isinstance(content, str):
            raise BackendError(
                f"completion content is {type(content).__name__}, not a string",
                "protocol",
                retryable=False,
            )
        return content
