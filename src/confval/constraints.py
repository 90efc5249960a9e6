"""Machine-readable parameter specs and the rule-based validity oracle.

The oracle decides ground truth for generated corpora and for scoring: it
checks each entry's value shape (syntax), its value domain (range), parameter
dependencies, and version applicability, and reports one violation per fault.

Check precedence per entry is version, then syntax, then range; dependency
constraints are evaluated last and are skipped when an operand already failed
a value-level check (a broken value cannot be compared meaningfully).

Violation.detail is the corpus's ground-truth reason: generation copies it
into each misconfigured file's label, so it reaches manifests, shot answers
and prompt tokens. A change of wording here is a change of output.

What a check needs from the specs is worked out once per spec, not once per
value: each ParameterSpec keeps its kind rule, its numeric bounds and its
syntax matcher (with a number_with_unit spec's unit pattern compiled once),
and each SpecSet keeps its version-known names and a (parameter, version) ->
Violation table for the version records. Both are frozen, so what they keep
cannot go stale; it takes no part in ==, hash or repr. Per-file objects keep
nothing.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

from .config_model import ConfigEntry, ConfigFile, ConfigFormat, frozen_cached_property
from .errors import (
    DependencyEvalError,
    SpecError,
    UnknownParameterError,
    check_schema_version,
    checked,
    read_document,
)


class ValueKind(Enum):
    INTEGER = "integer"
    FLOAT = "float"
    LONG = "long"
    BOOLEAN = "boolean"
    STRING = "string"
    PATH = "path"
    URL = "url"
    IP_ADDRESS = "ip_address"
    PORT = "port"
    PERMISSION = "permission"
    ENUM = "enum"
    NUMBER_WITH_UNIT = "number_with_unit"


class Comparator(Enum):
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="

    def negate(self) -> "Comparator":
        return _NEGATION[self]


_NEGATION = {
    Comparator.GT: Comparator.LE,
    Comparator.LE: Comparator.GT,
    Comparator.GE: Comparator.LT,
    Comparator.LT: Comparator.GE,
    Comparator.EQ: Comparator.NE,
    Comparator.NE: Comparator.EQ,
}


class Category(Enum):
    SYNTAX = "syntax"
    RANGE = "range"
    DEPENDENCY = "dependency"
    VERSION = "version"


class Subcategory(Enum):
    """The 15 violation sub-categories; each knows its category."""

    SYNTAX_DATA_TYPE = "syntax/data_type"
    SYNTAX_PATH = "syntax/path"
    SYNTAX_URL = "syntax/url"
    SYNTAX_IP_ADDRESS = "syntax/ip_address"
    SYNTAX_PORT = "syntax/port"
    SYNTAX_PERMISSION = "syntax/permission"
    RANGE_NUMERIC = "range/basic_numeric"
    RANGE_BOOL = "range/bool"
    RANGE_ENUM = "range/enum"
    RANGE_IP_ADDRESS = "range/ip_address"
    RANGE_PORT = "range/port"
    RANGE_PERMISSION = "range/permission"
    DEPENDENCY_CONTROL = "dependency/control"
    DEPENDENCY_VALUE_RELATIONSHIP = "dependency/value_relationship"
    VERSION_PARAMETER_CHANGE = "version/parameter_change"

    @property
    def category(self) -> Category:
        return Category(self.value.split("/", 1)[0])


ALL_SUBCATEGORIES = tuple(Subcategory)


class DependencyKind(Enum):
    CONTROL = "control"
    VALUE_RELATIONSHIP = "value_relationship"


@dataclass(frozen=True)
class DependencyConstraint:
    """Either p2's presence is gated on p1 comparing to a literal value
    (control), or p1's value must compare to p2's value (value relationship)."""

    kind: DependencyKind
    p1: str
    p2: str
    comparator: Comparator
    value: str | None = None

    def __post_init__(self):
        if self.p1 == self.p2:
            raise ValueError("dependency must relate two distinct parameters")
        if self.kind is DependencyKind.CONTROL and self.value is None:
            raise ValueError("control dependency requires a literal value")
        if self.kind is DependencyKind.VALUE_RELATIONSHIP and self.value is not None:
            raise ValueError("value relationship must not carry a literal value")

    @property
    def subcategory(self) -> Subcategory:
        return Subcategory(f"dependency/{self.kind.value}")

    @property
    def carrier(self) -> str:
        """The parameter a violation lands on: p2, set without its enabling
        condition, for a control dependency; p1 for a value relationship."""
        return self.p2 if self.kind is DependencyKind.CONTROL else self.p1


@dataclass(frozen=True)
class VersionChange:
    v1: str
    v2: str
    removed_in_v2: frozenset[str] = field(default_factory=frozenset)
    added_in_v2: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.v1 == self.v2:
            raise ValueError("version change needs two distinct versions")
        object.__setattr__(self, "removed_in_v2", frozenset(self.removed_in_v2))
        object.__setattr__(self, "added_in_v2", frozenset(self.added_in_v2))
        if self.removed_in_v2 & self.added_in_v2:
            raise ValueError("a parameter cannot be both removed and added in v2")


_INT32 = (-(2**31), 2**31 - 1)
_INT64 = (-(2**63), 2**63 - 1)
_FLOAT = (-1.7976931348623157e308, 1.7976931348623157e308)


# Value shapes. URL and IP patterns are kept exactly as published (the IP
# pattern's dot is an unescaped any-char); the range step then demands
# dotted-quad structure.

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_WORD_RE = re.compile(r"^[A-Za-z]+$")
_DIGITS_RE = re.compile(r"^\d+$")
_PERMISSION_RE = re.compile(r"^\d{3}$")
_URL_RE = re.compile(r"[a-z]+://.*")
_IP_RE = re.compile(r"[\d]{1,3}(.[\d]{1,3}){3}")
# Path segments must be non-empty and space-free; bare "/" allowed.
_PATH_RE = re.compile(r"^(/|(/[^/ ]+)+/?)$")


@dataclass(frozen=True)
class KindRule:
    """What one value kind means: the sub-category a malformed value falls in
    and how its label says so, the sub-category of a well-formed value outside
    the domain, the bounds every value and every spec range must lie in
    (None where a value is not one number, so no numeric_range applies), and
    the matcher a well-formed value passes (None where the kind has no shape,
    or where the spec's units decide it)."""

    syntax: Subcategory | None
    range: Subcategory | None
    malformed: str | None = None
    bounds: tuple[float, float] | None = None
    shape: Callable[[str], object] | None = None


_SC = Subcategory
_KIND_RULES = {
    ValueKind.INTEGER: KindRule(
        _SC.SYNTAX_DATA_TYPE, _SC.RANGE_NUMERIC, "is not a valid integer", _INT32, _INT_RE.match
    ),
    ValueKind.LONG: KindRule(
        _SC.SYNTAX_DATA_TYPE, _SC.RANGE_NUMERIC, "is not a valid long", _INT64, _INT_RE.match
    ),
    ValueKind.FLOAT: KindRule(
        _SC.SYNTAX_DATA_TYPE, _SC.RANGE_NUMERIC, "is not a valid float", _FLOAT, _FLOAT_RE.match
    ),
    ValueKind.BOOLEAN: KindRule(
        _SC.SYNTAX_DATA_TYPE, _SC.RANGE_BOOL, "is not a valid boolean", shape=_WORD_RE.match
    ),
    ValueKind.STRING: KindRule(None, None),
    ValueKind.PATH: KindRule(
        _SC.SYNTAX_PATH, None, "is not a well-formed absolute path", shape=_PATH_RE.match
    ),
    ValueKind.URL: KindRule(_SC.SYNTAX_URL, None, "is not a well-formed URL", shape=_URL_RE.fullmatch),
    ValueKind.IP_ADDRESS: KindRule(
        _SC.SYNTAX_IP_ADDRESS, _SC.RANGE_IP_ADDRESS, "is not a well-formed IP address",
        shape=_IP_RE.fullmatch,
    ),
    ValueKind.PORT: KindRule(
        _SC.SYNTAX_PORT, _SC.RANGE_PORT, "is not a numeric port", (0, 65535), _DIGITS_RE.match
    ),
    ValueKind.PERMISSION: KindRule(
        _SC.SYNTAX_PERMISSION, _SC.RANGE_PERMISSION, "is not a three-digit permission",
        shape=_PERMISSION_RE.match,
    ),
    ValueKind.ENUM: KindRule(None, _SC.RANGE_ENUM),
    ValueKind.NUMBER_WITH_UNIT: KindRule(_SC.SYNTAX_DATA_TYPE, None, "uses an unknown unit"),
}


@dataclass(frozen=True)
class ParameterSpec:
    """The correctness spec of one parameter."""

    name: str
    kind: ValueKind
    numeric_range: tuple[float, float] | None = None
    default_value: str | None = None
    options: tuple[str, ...] = ()
    units: tuple[str, ...] = ()
    description: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "units", tuple(self.units))
        if self.kind is ValueKind.ENUM and not self.options:
            raise ValueError(f"{self.name}: enum kind requires options")
        if self.kind is ValueKind.NUMBER_WITH_UNIT and not self.units:
            raise ValueError(f"{self.name}: number_with_unit kind requires units")
        if self.numeric_range is not None:
            lo, hi = self.numeric_range
            if lo > hi:
                raise ValueError(f"{self.name}: empty numeric range [{lo}, {hi}]")
            bounds = self.rule.bounds
            if bounds is None:
                raise ValueError(f"{self.name}: numeric_range not applicable to {self.kind.value}")
            if not (bounds[0] <= lo and hi <= bounds[1]):
                raise ValueError(f"{self.name}: range must stay within {list(bounds)}")
        # Stored here in one order for every spec: instances that gain these
        # attributes in different orders stop sharing their dict keys, which
        # cost about 600 bytes a spec.
        self.rule, self.bounds, self.syntax_match

    @frozen_cached_property
    def rule(self) -> KindRule:
        return _KIND_RULES[self.kind]

    @frozen_cached_property
    def bounds(self) -> tuple[float, float] | None:
        """The range a numeric value must fall in: the spec's own, else its kind's
        (None for a kind whose value is not one number)."""
        return self.rule.bounds if self.numeric_range is None else self.numeric_range

    @frozen_cached_property
    def syntax_match(self) -> Callable[[str], object] | None:
        """What a well-formed value matches; None when any text is well-formed."""
        if self.kind is not ValueKind.NUMBER_WITH_UNIT:
            return self.rule.shape
        alts = "|".join(re.escape(u) for u in self.units)
        return re.compile(r"^[+-]?(\d+\.?\d*|\.\d+) ?(" + alts + r")$").match


@dataclass(frozen=True)
class Violation:
    subcategory: Subcategory
    parameter: str
    detail: str

    @property
    def category(self) -> Category:
        return self.subcategory.category


@dataclass(frozen=True)
class SpecSet:
    """All specs, dependencies and version history for one project. Each
    parameter is held under its own name, and a dependency may relate only
    parameters the set holds."""

    project: str
    version: str
    file_format: ConfigFormat
    parameters: dict[str, ParameterSpec]
    dependencies: tuple[DependencyConstraint, ...] = ()
    version_changes: tuple[VersionChange, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "dependencies", tuple(self.dependencies))
        object.__setattr__(self, "version_changes", tuple(self.version_changes))
        for name, spec in self.parameters.items():
            if name != spec.name:
                raise ValueError(f"parameter {spec.name!r} is held under the name {name!r}")
        for c in self.dependencies:
            for p in (c.p1, c.p2):
                if p not in self.parameters:
                    raise ValueError(f"dependency references unknown parameter: {p}")

    @frozen_cached_property
    def version_violations(self) -> dict[tuple[str, str], Violation]:
        """The violation of each (parameter, file version) that a version-change
        record rules out; the first record, in change order, wins."""
        table: dict[tuple[str, str], Violation] = {}
        for change in self.version_changes:
            for version, names in ((change.v2, change.removed_in_v2), (change.v1, change.added_in_v2)):
                for name in names:
                    detail = f"parameter '{name}' does not exist in version {version}"
                    violation = Violation(Subcategory.VERSION_PARAMETER_CHANGE, name, detail)
                    table.setdefault((name, version), violation)
        return table

    @frozen_cached_property
    def version_known_names(self) -> frozenset[str]:
        """Every parameter some version-change record names."""
        return frozenset(name for name, _ in self.version_violations)


# --- sub-category assignment ---


def assign_subcategories(spec: ParameterSpec, dependencies=()) -> frozenset[Subcategory]:
    """Every sub-category whose specification this parameter satisfies, given the project's constraints."""
    rule = spec.rule
    out = {sc for sc in (rule.syntax, rule.range) if sc is not None}
    out.update(c.subcategory for c in dependencies if c.carrier == spec.name)
    return frozenset(out)


def _range_violation(spec: ParameterSpec, value: str) -> str | None:
    kind, name, bounds = spec.kind, spec.name, spec.bounds
    if bounds is not None:
        lo, hi = bounds
        if lo <= (float(value) if kind is ValueKind.FLOAT else int(value)) <= hi:
            return None
        if kind is ValueKind.PORT:
            return f"value {value} exceeds port range [{int(lo)}, {int(hi)}]"
        return f"value {value} of '{name}' is outside the valid range [{lo:g}, {hi:g}]"
    if kind is ValueKind.BOOLEAN:
        if value.lower() not in ("true", "false"):
            return f"value '{value}' of '{name}' must be true or false"
        return None
    if kind is ValueKind.ENUM:
        if value not in spec.options:
            return f"value '{value}' of '{name}' must be one of {list(spec.options)}"
        return None
    if kind is ValueKind.IP_ADDRESS:
        parts = value.split(".")
        if len(parts) != 4 or not all(_DIGITS_RE.match(p) for p in parts):
            return f"value {value!r} is not a dotted quad of octets"
        if any(int(p) > 255 for p in parts):
            return f"value '{value}' of '{name}' has an octet outside [0, 255]"
        return None
    if kind is ValueKind.PERMISSION:
        if any(digit > "7" for digit in value):
            return f"value {value} of '{name}' is outside the permission range [000, 777]"
        return None
    return None


def value_violation(spec: ParameterSpec, value: str) -> Violation | None:
    """Syntax check first, then range; at most one violation per value."""
    rule, match = spec.rule, spec.syntax_match
    if match is not None and not match(value):
        return Violation(rule.syntax, spec.name, f"value '{value}' of '{spec.name}' {rule.malformed}")
    detail = _range_violation(spec, value)
    if detail is not None:
        return Violation(rule.range, spec.name, detail)
    return None


# --- dependency evaluation ---

_NUMERIC_OPS = {
    Comparator.GT: lambda a, b: a > b,
    Comparator.GE: lambda a, b: a >= b,
    Comparator.EQ: lambda a, b: a == b,
    Comparator.NE: lambda a, b: a != b,
    Comparator.LT: lambda a, b: a < b,
    Comparator.LE: lambda a, b: a <= b,
}


def _as_number(value: str) -> float | None:
    if _INT_RE.match(value) or _FLOAT_RE.match(value):
        return float(value)
    return None


def compare_values(a: str, comparator: Comparator, b: str) -> bool:
    """Numeric comparison when both sides parse as numbers, string equality
    otherwise; ordering comparators demand numeric operands."""
    na, nb = _as_number(a), _as_number(b)
    if na is not None and nb is not None:
        return _NUMERIC_OPS[comparator](na, nb)
    if comparator is Comparator.EQ:
        return a == b
    if comparator is Comparator.NE:
        return a != b
    raise DependencyEvalError(
        f"comparator {comparator.value!r} needs numeric operands, got {a!r} and {b!r}"
    )


def _resolve(name: str, file: ConfigFile, specs: SpecSet) -> str | None:
    entry = file.get(name)
    if entry is not None:
        return entry.value
    spec = specs.parameters.get(name)
    if spec is not None:
        return spec.default_value
    return None


def check_dependency(
    c: DependencyConstraint, file: ConfigFile, specs: SpecSet
) -> Violation | None:
    """Evaluate one constraint against configured (or default) values.

    A violation lands on the constraint's carrier and belongs to its
    subcategory. Constraints with an unresolvable operand are skipped,
    mirroring systems whose defaults satisfy their own constraints.
    """
    if c.kind is DependencyKind.CONTROL:
        v1 = _resolve(c.p1, file, specs)
        if v1 is None or file.get(c.p2) is None:
            return None
        if not compare_values(v1, c.comparator, c.value):
            return Violation(
                c.subcategory,
                c.carrier,
                f"'{c.p2}' is set but '{c.p1}' does not satisfy "
                f"{c.p1} {c.comparator.value} {c.value}",
            )
        return None
    v1 = _resolve(c.p1, file, specs)
    v2 = _resolve(c.p2, file, specs)
    if v1 is None or v2 is None:
        return None
    if not compare_values(v1, c.comparator, v2):
        return Violation(
            c.subcategory,
            c.carrier,
            f"value of '{c.p1}' violates required relation {c.p1} {c.comparator.value} {c.p2}",
        )
    return None


def oracle_validate(file: ConfigFile, specs: SpecSet) -> list[Violation]:
    """Return exactly the violations present in the file; [] means valid.

    Every entry must have a spec or appear in a version-change record;
    anything else raises UnknownParameterError.
    """
    parameters, version_names = specs.parameters, specs.version_known_names
    version_violations, version = specs.version_violations, file.version

    violations: list[Violation] = []
    flagged: set[str] = set()
    for entry in file.entries:
        spec = parameters.get(entry.name)
        if spec is None and entry.name not in version_names:
            raise UnknownParameterError(
                f"no spec and no version record for parameter {entry.name!r}"
            )
        v = version_violations.get((entry.name, version))
        if v is None and spec is not None:  # a version-known name may have no value spec
            v = value_violation(spec, entry.value)
        if v is not None:
            violations.append(v)
            flagged.add(entry.name)

    for c in specs.dependencies:
        if c.p1 in flagged or c.p2 in flagged:
            continue  # a value-level fault shadows constraints touching it
        v = check_dependency(c, file, specs)
        if v is not None:
            violations.append(v)
    return violations


# --- spec documents on disk ---

SPEC_SCHEMA_VERSION = 1

# the JSON types each key of a spec document, a parameter, a dependency and a version change accepts
_SPEC_KEYS = {
    "schema_version": (int,),
    "project": (str,),
    "version": (str,),
    "file_format": (str,),
    "parameters": ([dict],),
    "dependencies": ([dict],),
    "version_changes": ([dict],),
}
_PARAMETER_KEYS = {
    "name": (str,),
    "kind": (str,),
    "range": ([int, float], type(None)),
    "default": (str, type(None)),
    "options": ([str],),
    "units": ([str],),
    "description": (str, type(None)),
}
_DEPENDENCY_KEYS = {
    "kind": (str,), "p1": (str,), "p2": (str,), "comparator": (str,), "value": (str, type(None)),
}
_VERSION_CHANGE_KEYS = {
    "v1": (str,), "v2": (str,), "removed_in_v2": ([str],), "added_in_v2": ([str],),
}
_ITEM_KEYS = {
    "parameters": _PARAMETER_KEYS,
    "dependencies": _DEPENDENCY_KEYS,
    "version_changes": _VERSION_CHANGE_KEYS,
}


def spec_set_from_dict(doc: dict) -> SpecSet:
    checked(doc, _SPEC_KEYS, "spec document")
    for key, types in _ITEM_KEYS.items():
        for i, item in enumerate(doc.get(key, ())):
            checked(item, types, f"spec document {key}[{i}]")
    check_schema_version(doc, SPEC_SCHEMA_VERSION, "spec document")
    try:
        json.dumps(doc, ensure_ascii=False).encode("utf-8")  # no lone surrogates
        project = doc["project"]
        version = doc["version"]
        file_format = ConfigFormat(doc.get("file_format", "xml"))
        deps = [
            DependencyConstraint(
                kind=DependencyKind(item["kind"]),
                p1=item["p1"],
                p2=item["p2"],
                comparator=Comparator(item["comparator"]),
                value=item.get("value"),
            )
            for item in doc.get("dependencies", ())
        ]
        parameters: dict[str, ParameterSpec] = {}
        for item in doc["parameters"]:
            ConfigEntry(item["name"], "")  # a name a configuration file can hold
            if item["name"] in parameters:
                raise SpecError(f"duplicate parameter spec: {item['name']}")
            rng = item.get("range")
            parameters[item["name"]] = ParameterSpec(
                name=item["name"],
                kind=ValueKind(item["kind"]),
                numeric_range=tuple(rng) if rng is not None else None,
                default_value=item.get("default"),
                options=tuple(item.get("options", ())),
                units=tuple(item.get("units", ())),
                description=item.get("description"),
            )
        changes = [
            VersionChange(
                v1=item["v1"],
                v2=item["v2"],
                removed_in_v2=frozenset(item.get("removed_in_v2", ())),
                added_in_v2=frozenset(item.get("added_in_v2", ())),
            )
            for item in doc.get("version_changes", ())
        ]
        return SpecSet(project, version, file_format, parameters, deps, changes)
    except (KeyError, ValueError, TypeError) as exc:
        raise SpecError(f"invalid spec document: {exc}") from exc


def load_spec_set(path: str | Path) -> SpecSet:
    return spec_set_from_dict(read_document(path, "spec document", SPEC_SCHEMA_VERSION))

