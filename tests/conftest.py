"""Shared fixtures: synthetic project specs, generated corpora and a
counting backend wrapper.

The demo projects are sized so that most sub-categories clear the
sample-of-five threshold (one shot plus four eval files) while a few stay
below it, exercising the all-to-eval path. Dependency parameter ranges are
chosen so satisfying pairs are easy to draw and violating pairs exist.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from confval.backend import Backend
from confval.config_model import ConfigFormat
from confval.constraints import (
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    SpecSet,
    ValueKind,
    VersionChange,
    build_spec_set,
)
from confval.misconfig_gen import build_dataset


class Counting(Backend):
    """Wraps a backend to count its calls and the most of them in flight at
    once; each call is held for delay seconds before it reaches the inner
    backend, so that calls overlap."""

    def __init__(self, inner: Backend, delay: float = 0.0):
        self.inner = inner
        self.config = inner.config
        self.delay = delay
        self._lock = threading.Lock()
        self._in_flight = 0
        self.calls = 0
        self.peak = 0

    def query(self, prompt) -> str:
        with self._lock:
            self.calls += 1
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            if self.delay:
                time.sleep(self.delay)
            return self.inner.query(prompt)
        finally:
            with self._lock:
                self._in_flight -= 1


DEFAULT_COUNTS = {
    ValueKind.INTEGER: 6,
    ValueKind.LONG: 2,
    ValueKind.FLOAT: 3,
    ValueKind.BOOLEAN: 5,
    ValueKind.STRING: 4,
    ValueKind.PATH: 6,
    ValueKind.URL: 2,
    ValueKind.IP_ADDRESS: 5,
    ValueKind.PORT: 6,
    ValueKind.PERMISSION: 5,
    ValueKind.ENUM: 5,
    ValueKind.NUMBER_WITH_UNIT: 3,
}

_KIND_STEMS = {
    ValueKind.INTEGER: ("rpc.timeout.ms", (1, 60000), "3000"),
    ValueKind.LONG: ("journal.segment.bytes", (1024, 2**40), "1048576"),
    ValueKind.FLOAT: ("load.factor", (0.0, 1.0), "0.75"),
    ValueKind.BOOLEAN: ("feature.enabled", None, "false"),
    ValueKind.STRING: ("node.label", None, "worker"),
    ValueKind.PATH: ("data.dir", None, "/var/lib/node"),
    ValueKind.URL: ("endpoint.uri", None, "http://127.0.0.1:8080/api"),
    ValueKind.IP_ADDRESS: ("bind.address", None, "0.0.0.0"),
    ValueKind.PORT: ("listen.port", (0, 65535), "8020"),
    ValueKind.PERMISSION: ("file.mode", None, "644"),
    ValueKind.ENUM: ("sync.mode", None, None),
    ValueKind.NUMBER_WITH_UNIT: ("cache.size", None, "64mb"),
}


def _kind_params(project: str, kind: ValueKind, count: int) -> list[ParameterSpec]:
    stem, numeric_range, default = _KIND_STEMS[kind]
    out = []
    for i in range(count):
        name = f"{project}.{stem}.{i}" if count > 1 else f"{project}.{stem}"
        extra = {}
        if kind is ValueKind.ENUM:
            extra["options"] = ("strict", "lenient", "off")
            default = "strict"
        if kind is ValueKind.NUMBER_WITH_UNIT:
            extra["units"] = ("kb", "mb", "gb")
        description = None
        if i % 2 == 0:
            description = f"Controls {stem.replace('.', ' ')} for worker {i}."
        out.append(
            ParameterSpec(
                name=name,
                kind=kind,
                numeric_range=numeric_range,
                default_value=default,
                description=description,
                **extra,
            )
        )
    return out


def _dependency_params(project: str) -> list[ParameterSpec]:
    mk = lambda name, rng, default: ParameterSpec(  # noqa: E731
        name=f"{project}.{name}",
        kind=ValueKind.INTEGER,
        numeric_range=rng,
        default_value=default,
    )
    return [
        ParameterSpec(
            name=f"{project}.auth.enabled",
            kind=ValueKind.BOOLEAN,
            default_value="true",
            description="Enables secure authentication.",
        ),
        mk("auth.update.interval", (1, 3600), "600"),
        ParameterSpec(
            name=f"{project}.cache.enabled",
            kind=ValueKind.BOOLEAN,
            default_value="true",
        ),
        mk("cache.ttl.seconds", (60, 86400), "3600"),
        mk("io.bytes.per.checksum", (512, 8192), "1024"),
        mk("io.buffer.size", (2048, 65536), "8192"),
        mk("quota.soft.limit", (256, 4096), "512"),
        mk("quota.hard.limit", (1024, 8192), "4096"),
    ]


def _dependencies(project: str) -> list[DependencyConstraint]:
    p = lambda name: f"{project}.{name}"  # noqa: E731
    return [
        DependencyConstraint(
            DependencyKind.CONTROL, p("auth.enabled"), p("auth.update.interval"),
            Comparator.EQ, "true",
        ),
        DependencyConstraint(
            DependencyKind.CONTROL, p("cache.enabled"), p("cache.ttl.seconds"),
            Comparator.EQ, "true",
        ),
        DependencyConstraint(
            DependencyKind.VALUE_RELATIONSHIP,
            p("io.bytes.per.checksum"), p("io.buffer.size"), Comparator.LE,
        ),
        DependencyConstraint(
            DependencyKind.VALUE_RELATIONSHIP,
            p("quota.soft.limit"), p("quota.hard.limit"), Comparator.LE,
        ),
    ]


def _version_changes(project: str, version: str) -> list[VersionChange]:
    return [
        VersionChange(
            v1="1.9.0",
            v2=version,
            removed_in_v2=frozenset({f"{project}.legacy.sync.mode", f"{project}.old.retry.count"}),
        ),
        VersionChange(
            v1=version,
            v2="9.9.0",
            added_in_v2=frozenset({f"{project}.future.async.mode"}),
        ),
    ]


def demo_spec_set(
    project: str = "stormdb",
    version: str = "2.1.0",
    file_format: ConfigFormat = ConfigFormat.XML,
    counts: dict | None = None,
) -> SpecSet:
    merged = dict(DEFAULT_COUNTS)
    merged.update(counts or {})
    params: list[ParameterSpec] = []
    for kind, count in merged.items():
        if count:
            params.extend(_kind_params(project, kind, count))
    params.extend(_dependency_params(project))
    return build_spec_set(
        project,
        version,
        file_format,
        params,
        _dependencies(project),
        _version_changes(project, version),
    )


def six_project_specs() -> list[SpecSet]:
    return [
        demo_spec_set("stormdb", "2.1.0"),
        demo_spec_set("quorumd", "0.9.4", counts={ValueKind.URL: 0}),
        demo_spec_set("cachefly", "5.0.1", file_format=ConfigFormat.INI),
        demo_spec_set("blobstore", "3.3.6", counts={ValueKind.PORT: 8, ValueKind.ENUM: 3}),
        demo_spec_set("meshgate", "1.2.0", counts={ValueKind.PERMISSION: 0}),
        demo_spec_set(
            "tinyreg",
            "7.1.1",
            file_format=ConfigFormat.INI,
            counts={
                ValueKind.INTEGER: 3,
                ValueKind.PATH: 3,
                ValueKind.IP_ADDRESS: 2,
                ValueKind.PORT: 3,
                ValueKind.PERMISSION: 2,
                ValueKind.ENUM: 2,
                ValueKind.URL: 1,
            },
        ),
    ]


@pytest.fixture
def spec_set() -> SpecSet:
    return demo_spec_set()


@pytest.fixture
def dataset(spec_set):
    return build_dataset(spec_set, rng=random.Random(7))


@pytest.fixture(scope="session")
def six_datasets():
    datasets = {}
    for i, specs in enumerate(six_project_specs()):
        datasets[specs.project] = (specs, build_dataset(specs, rng=random.Random(100 + i)))
    return datasets
