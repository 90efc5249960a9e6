"""Tests for the benchmark's fake backends.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from confval.backend import BackendConfig, MockBackend, MockBehavior, MockScript  # noqa: E402
from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat  # noqa: E402
from confval.errors import ResponseFormatError  # noqa: E402
from confval.prompting import build_prompt  # noqa: E402
from confval.responses import misconfig_answer, parse_response, valid_answer, validate_response  # noqa: E402

from fakes import INVALID_KINDS, MessyBackend, SimulatedEndpoint, corrupt  # noqa: E402

NAMES = ["db.port", "db.host", "cache.size", "log.dir"]
TARGET = ConfigFile(
    "stormdb", "2.1.0", ConfigFormat.INI, tuple(ConfigEntry(n, f"v{i}") for i, n in enumerate(NAMES))
)
PROMPT = build_prompt(TARGET, [])
ANSWERS = [valid_answer().to_json(), misconfig_answer("db.port", "port out of range").to_json()]


def echo_backend(answer: str) -> MockBackend:
    script = MockScript(MockBehavior.ECHO_GROUND_TRUTH, truth={TARGET.content_key(): answer})
    return MockBackend(script, BackendConfig(max_parallel=4))


@pytest.mark.parametrize("answer", ANSWERS)
@pytest.mark.parametrize(
    "kind, message",
    [("no_json", "no JSON object"), ("two_objects", "expected one JSON object, found 2")],
)
def test_unparseable_kinds_raise_the_intended_format_error(answer, kind, message):
    with pytest.raises(ResponseFormatError, match=message):
        parse_response(corrupt(kind, answer, NAMES))


@pytest.mark.parametrize("answer", ANSWERS)
@pytest.mark.parametrize("kind", ["R1", "R2", "R3", "R4"])
def test_rule_kinds_violate_exactly_their_rule(answer, kind):
    assert validate_response(parse_response(corrupt(kind, answer, NAMES))) == kind


@pytest.mark.parametrize("answer", ANSWERS)
def test_prose_kind_still_parses_to_the_same_answer(answer):
    parsed = parse_response(corrupt("prose", answer, NAMES))
    assert parsed == parse_response(answer)
    assert validate_response(parsed) is None


def test_corrupted_shares_stay_within_tolerance_of_the_rates():
    # 40,000 draws: one binomial standard deviation at p=0.1 is 0.0015, so a
    # tolerance of 0.006 is four of them.
    messy = MessyBackend(echo_backend(ANSWERS[0]), seed=7, prose_rate=0.1, invalid_rate=0.1)
    kinds = Counter(messy.kind_for(f"fp{f}", i) for f in range(400) for i in range(100))
    draws = sum(kinds.values())
    invalid = sum(kinds[k] for k in INVALID_KINDS)
    assert abs(invalid / draws - 0.1) <= 0.006
    assert abs(kinds["prose"] / draws - 0.1) <= 0.006
    for kind in INVALID_KINDS:
        assert abs(kinds[kind] / invalid - 1 / len(INVALID_KINDS)) <= 0.03


def test_messy_output_does_not_depend_on_thread_interleaving():
    # The inner noise mock answers by call index too, so an alteration paired
    # with the wrong inner answer changes the multiset of completions.
    def completions(threads: int) -> Counter:
        script = MockScript(
            MockBehavior.NOISE_WITH_RATE, truth={TARGET.content_key(): ANSWERS[1]}, noise_rate=0.5, seed=1
        )
        inner = MockBackend(script, BackendConfig(max_parallel=4))
        messy = MessyBackend(inner, seed=3, prose_rate=0.3, invalid_rate=0.3)
        texts: list[str] = []
        lock = threading.Lock()

        def worker():
            for _ in range(200 // threads):
                text = messy.query(PROMPT)
                with lock:
                    texts.append(text)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=30)
            assert not t.is_alive()
        return Counter(texts)

    assert completions(1) == completions(8)


def max_overlap(intervals: list[tuple[float, float]]) -> int:
    events = sorted([(s, 1) for s, _ in intervals] + [(e, -1) for _, e in intervals])
    level = peak = 0
    for _, step in events:  # at equal times, -1 sorts first: a slot freed is reused
        level += step
        peak = max(peak, level)
    return peak


def test_endpoint_never_serves_more_than_its_cap_under_stress():
    slots, service_s, threads, per_thread = 2, 0.0005, 16, 25
    endpoint = SimulatedEndpoint(echo_backend(ANSWERS[0]), slots, service_s)
    errors: list[Exception] = []

    def worker():
        try:
            for _ in range(per_thread):
                assert endpoint.query(PROMPT) == ANSWERS[0]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        wall = time.perf_counter() - started
    finally:
        sys.setswitchinterval(old)

    assert not any(t.is_alive() for t in pool)
    assert errors == []
    total = threads * per_thread
    assert endpoint.requests == len(endpoint.schedule) == total
    assert sum(start > arrival for arrival, start, _ in endpoint.schedule) > total // 2  # it queued
    assert max_overlap([(start, end) for _, start, end in endpoint.schedule]) <= slots
    starts = [start for _, start, _ in endpoint.schedule]
    assert starts == sorted(starts)  # first come, first served
    assert all(start >= arrival for arrival, start, _ in endpoint.schedule)
    assert wall >= total * service_s / slots
