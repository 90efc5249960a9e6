"""Benchmark-side backends: a messy-output wrapper, a simulated endpoint, a meter.

All three implement confval's Backend interface, so the package under test
sees an ordinary backend and nothing under src/ has to change.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
import threading
import time

from confval.backend import Backend, prompt_fingerprint

# Kinds of invalid completion the messy wrapper produces, with what confval's
# parser or rule filter must say about each (checked in test_fakes.py).
INVALID_KINDS = ("no_json", "two_objects", "R1", "R2", "R3", "R4")


class MessyBackend(Backend):
    """Alters a fixed share of the inner backend's completions.

    A share ``prose_rate`` comes back wrapped in prose and a ```json fence
    but still parses to the same answer; a share ``invalid_rate`` comes back
    invalid, one of INVALID_KINDS. The choice is a pure function of
    (seed, prompt fingerprint, call index). The index must be the one the
    inner mock used for the same call, or the pairing of inner answer and
    alteration would depend on thread interleaving; so the index is taken
    and the inner call made under one lock. The inner mock answers at once,
    so holding the lock costs little.
    """

    def __init__(self, inner: Backend, seed: int, prose_rate: float = 0.1, invalid_rate: float = 0.1):
        if prose_rate < 0 or invalid_rate < 0 or prose_rate + invalid_rate > 1:
            raise ValueError("rates must be non-negative and sum to at most 1")
        self.inner = inner
        self.config = inner.config
        self.seed = seed
        self.prose_rate = prose_rate
        self.invalid_rate = invalid_rate
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fingerprints: dict[int, tuple[object, str]] = {}

    def query(self, prompt) -> str:
        with self._lock:
            cached = self._fingerprints.get(id(prompt))
            if cached is None or cached[0] is not prompt:
                cached = (prompt, prompt_fingerprint(prompt.text))
                self._fingerprints[id(prompt)] = cached
            fingerprint = cached[1]
            index = self._calls.get(fingerprint, 0)
            self._calls[fingerprint] = index + 1
            text = self.inner.query(prompt)
        kind = self.kind_for(fingerprint, index)
        return text if kind is None else corrupt(kind, text, prompt.target.names())

    def kind_for(self, fingerprint: str, index: int) -> str | None:
        """'prose', one of INVALID_KINDS, or None for an unaltered answer."""
        rng = _rng(self.seed, fingerprint, index)
        u = rng.random()
        if u < self.invalid_rate:
            return rng.choice(INVALID_KINDS)
        if u < self.invalid_rate + self.prose_rate:
            return "prose"
        return None


def corrupt(kind: str, text: str, names: list[str]) -> str:
    """Rewrite one completion as the given kind."""
    if kind == "prose":
        return f"Here is my review of the file.\n```json\n{text}\n```\nHope this helps."
    if kind == "no_json":
        return "I could not decide whether this configuration is correct."
    if kind == "two_objects":
        return f"{text}\nOn second thought:\n{text}"
    a, b = names[0], names[-1] if len(names) > 1 else names[0] + ".other"
    doc = {
        "R1": {"hasError": False, "errParameter": [a], "reason": ["looks odd"]},
        "R2": {"hasError": True, "errParameter": [], "reason": []},
        "R3": {"hasError": True, "errParameter": [a, b], "reason": ["looks odd"]},
        "R4": {"hasError": True, "errParameter": [a, a], "reason": ["looks odd", "looks odd"]},
    }[kind]
    return json.dumps(doc)


def _rng(seed: int, fingerprint: str, index: int) -> random.Random:
    digest = hashlib.sha256(f"messy:{seed}:{fingerprint}:{index}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class SimulatedEndpoint(Backend):
    """A model server with ``slots`` decode slots and a FIFO queue.

    Each request is served for ``service_s`` seconds on the slot that frees
    first, in order of arrival; the caller's thread sleeps until its service
    ends. The schedule is computed under a lock on arrival, so the server
    throughput does not depend on when sleeping threads wake. ``answer``
    supplies the completion text.
    """

    def __init__(self, answer: Backend, slots: int, service_s: float):
        if slots < 1 or service_s <= 0:
            raise ValueError("slots must be positive and service_s positive")
        self.answer = answer
        self.config = answer.config
        self.slots = slots
        self.service_s = service_s
        self._lock = threading.Lock()
        self._free_at = [0.0] * slots
        self.requests = 0
        # (arrival, start, end) per request, in arrival order
        self.schedule: list[tuple[float, float, float]] = []

    def query(self, prompt) -> str:
        with self._lock:
            arrival = time.perf_counter()
            start = max(arrival, heapq.heappop(self._free_at))
            end = start + self.service_s
            heapq.heappush(self._free_at, end)
            self.schedule.append((arrival, start, end))
            self.requests += 1
        text = self.answer.query(prompt)
        delay = end - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        return text

    def queue_waits_s(self) -> list[float]:
        return [start - arrival for arrival, start, _ in self.schedule]


class Meter(Backend):
    """Counts requests, prompt tokens and requests in flight."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.config = inner.config
        self._lock = threading.Lock()
        self.calls = 0
        self.prompt_tokens = 0
        self.in_flight = 0
        self.peak_in_flight = 0

    def query(self, prompt) -> str:
        with self._lock:
            self.calls += 1
            self.prompt_tokens += prompt.token_estimate
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            return self.inner.query(prompt)
        finally:
            with self._lock:
                self.in_flight -= 1
