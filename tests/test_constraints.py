import json
import pickle
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat
from confval.constraints import (
    _KIND_RULES,
    Category,
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    Subcategory,
    ValueKind,
    VersionChange,
    Violation,
    assign_subcategories,
    check_dependency,
    load_spec_set,
    oracle_validate,
    save_spec_set,
    spec_set_from_dict,
    spec_set_to_dict,
    value_violation,
)
from confval.errors import ConfvalError, DependencyEvalError, SpecError, UnknownParameterError
from confval.misconfig_gen import _draw_valid, _invalid_candidates

from conftest import demo_spec_set, six_project_specs


def spec(kind, name="demo.param", **kw):
    return ParameterSpec(name=name, kind=kind, **kw)


def file_of(specs, mapping, version=None):
    entries = tuple(ConfigEntry(name, value) for name, value in mapping.items())
    return ConfigFile(specs.project, version or specs.version, ConfigFormat.XML, entries)


class TestComparator:
    def test_negation_total(self):
        for comparator in Comparator:
            assert comparator.negate() in Comparator
            assert comparator.negate().negate() is comparator


class TestAssignSubcategories:
    def test_port_gets_syntax_and_range(self):
        assert assign_subcategories(spec(ValueKind.PORT)) == {
            Subcategory.SYNTAX_PORT,
            Subcategory.RANGE_PORT,
        }

    def test_plain_string_gets_nothing(self):
        assert assign_subcategories(spec(ValueKind.STRING)) == frozenset()

    def test_boolean_gets_data_type_and_bool_range(self):
        assert assign_subcategories(spec(ValueKind.BOOLEAN)) == {
            Subcategory.SYNTAX_DATA_TYPE,
            Subcategory.RANGE_BOOL,
        }

    def test_dependency_roles(self):
        control = DependencyConstraint(
            DependencyKind.CONTROL, "demo.flag", "demo.param", Comparator.EQ, "true"
        )
        relation = DependencyConstraint(
            DependencyKind.VALUE_RELATIONSHIP, "demo.param", "demo.upper", Comparator.LE
        )
        got = assign_subcategories(spec(ValueKind.INTEGER), (control, relation))
        assert Subcategory.DEPENDENCY_CONTROL in got  # as the controlled p2
        assert Subcategory.DEPENDENCY_VALUE_RELATIONSHIP in got  # as p1
        # a constraint the parameter does not carry adds nothing
        assert assign_subcategories(spec(ValueKind.INTEGER, name="demo.upper"), (control, relation)) == (
            assign_subcategories(spec(ValueKind.INTEGER))
        )

    @settings(max_examples=60)
    @given(
        kind=st.sampled_from(
            [ValueKind.INTEGER, ValueKind.LONG, ValueKind.FLOAT, ValueKind.PORT]
        ),
        lo=st.integers(min_value=0, max_value=100),
        width=st.integers(min_value=0, max_value=1000),
    )
    def test_adding_range_never_removes_syntax(self, kind, lo, width):
        hi = lo + width
        if kind is ValueKind.PORT:
            hi = min(hi, 65535)
        bare = spec(kind)
        ranged = spec(kind, numeric_range=(lo, hi))
        syntax = {sc for sc in assign_subcategories(bare) if sc.category is Category.SYNTAX}
        assert syntax <= assign_subcategories(ranged)


class TestRangeRule:
    @pytest.mark.parametrize(
        "kind,numeric_range",
        [
            (ValueKind.PERMISSION, (0, 644)),  # a permission is not one number
            (ValueKind.INTEGER, (0, 2**31)),  # past int32
            (ValueKind.PORT, (1, 65536)),
        ],
    )
    def test_range_outside_the_kind_bounds_rejected(self, kind, numeric_range):
        with pytest.raises(ValueError, match="numeric_range not applicable|range must stay within"):
            spec(kind, numeric_range=numeric_range)

    def test_spec_document_with_permission_range_is_a_spec_error(self, tmp_path):
        path = tmp_path / "spec.json"
        parameter = {"name": "file.mode", "kind": "permission", "range": [0, 644]}
        path.write_text(json.dumps({"project": "demo", "version": "1.0", "parameters": [parameter]}))
        with pytest.raises(SpecError, match="file.mode"):
            load_spec_set(path)


class TestValueChecks:
    @pytest.mark.parametrize(
        "kind,value,subcat",
        [
            (ValueKind.PORT, "70000", Subcategory.RANGE_PORT),
            (ValueKind.PORT, "80a0", Subcategory.SYNTAX_PORT),
            (ValueKind.IP_ADDRESS, "256.123.45.6", Subcategory.RANGE_IP_ADDRESS),
            (ValueKind.IP_ADDRESS, "127.x0.0.1", Subcategory.SYNTAX_IP_ADDRESS),
            (ValueKind.PATH, "/hello//world", Subcategory.SYNTAX_PATH),
            (ValueKind.URL, "file///", Subcategory.SYNTAX_URL),
            (ValueKind.INTEGER, "2147483648", Subcategory.RANGE_NUMERIC),
            (ValueKind.INTEGER, "12x4", Subcategory.SYNTAX_DATA_TYPE),
            (ValueKind.BOOLEAN, "yes", Subcategory.RANGE_BOOL),
            (ValueKind.BOOLEAN, "tru3", Subcategory.SYNTAX_DATA_TYPE),
            (ValueKind.PERMISSION, "789", Subcategory.RANGE_PERMISSION),
            (ValueKind.PERMISSION, "75", Subcategory.SYNTAX_PERMISSION),
        ],
    )
    def test_examples(self, kind, value, subcat):
        violation = value_violation(spec(kind), value)
        assert violation is not None
        assert violation.subcategory is subcat
        assert violation.parameter == "demo.param"

    @pytest.mark.parametrize(
        "kind,value",
        [
            (ValueKind.PORT, "8020"),
            (ValueKind.IP_ADDRESS, "10.0.0.1"),
            (ValueKind.PATH, "/var/log"),
            (ValueKind.PATH, "/"),
            (ValueKind.URL, "hdfs://nn:9000/x"),
            (ValueKind.INTEGER, "42"),
            (ValueKind.BOOLEAN, "TRUE"),
            (ValueKind.PERMISSION, "644"),
        ],
    )
    def test_valid_values_pass(self, kind, value):
        assert value_violation(spec(kind), value) is None

    def test_enum_membership(self):
        enum_spec = spec(ValueKind.ENUM, options=("a", "b"))
        assert value_violation(enum_spec, "a") is None
        hit = value_violation(enum_spec, "c")
        assert hit.subcategory is Subcategory.RANGE_ENUM

    def test_unit_numbers(self):
        unit_spec = spec(ValueKind.NUMBER_WITH_UNIT, units=("kb", "mb"))
        assert value_violation(unit_spec, "64mb") is None
        hit = value_violation(unit_spec, "64nounit")
        assert hit.subcategory is Subcategory.SYNTAX_DATA_TYPE


class TestOracle:
    def test_port_out_of_range(self, spec_set):
        file = file_of(spec_set, {"stormdb.listen.port.0": "70000"})
        found = oracle_validate(file, spec_set)
        assert [v.subcategory for v in found] == [Subcategory.RANGE_PORT]
        assert found[0].parameter == "stormdb.listen.port.0"

    def test_defaults_are_valid(self, spec_set):
        mapping = {}
        for name, parameter in list(spec_set.parameters.items())[:10]:
            if parameter.default_value is not None:
                mapping[name] = parameter.default_value
        file = file_of(spec_set, mapping)
        assert oracle_validate(file, spec_set) == []

    def test_unknown_parameter_rejected(self, spec_set):
        file = file_of(spec_set, {"stormdb.never.heard.of.it": "1"})
        with pytest.raises(UnknownParameterError):
            oracle_validate(file, spec_set)

    def test_removed_parameter_flagged(self, spec_set):
        file = file_of(spec_set, {"stormdb.legacy.sync.mode": "1"})
        found = oracle_validate(file, spec_set)
        assert [v.subcategory for v in found] == [Subcategory.VERSION_PARAMETER_CHANGE]

    def test_not_yet_added_parameter_flagged(self, spec_set):
        file = file_of(spec_set, {"stormdb.future.async.mode": "1"})
        found = oracle_validate(file, spec_set)
        assert [v.subcategory for v in found] == [Subcategory.VERSION_PARAMETER_CHANGE]

    def test_deterministic(self, spec_set):
        file = file_of(
            spec_set,
            {"stormdb.listen.port.0": "70000", "stormdb.bind.address.0": "256.1.2.3"},
        )
        first = oracle_validate(file, spec_set)
        assert first == oracle_validate(file, spec_set)
        assert len(first) == 2

    def test_value_fault_shadows_dependency(self, spec_set):
        file = file_of(
            spec_set,
            {"stormdb.io.bytes.per.checksum": "not_an_int", "stormdb.io.buffer.size": "4096"},
        )
        found = oracle_validate(file, spec_set)
        assert [v.subcategory for v in found] == [Subcategory.SYNTAX_DATA_TYPE]


class TestCheckDependency:
    def control(self, spec_set):
        return spec_set.dependencies[0]

    def relation(self, spec_set):
        return next(
            c for c in spec_set.dependencies if c.kind is DependencyKind.VALUE_RELATIONSHIP
        )

    def test_control_violated_when_flag_off(self, spec_set):
        file = file_of(
            spec_set,
            {"stormdb.auth.enabled": "false", "stormdb.auth.update.interval": "300"},
        )
        violation = check_dependency(self.control(spec_set), file, spec_set)
        assert violation is not None
        assert violation.parameter == "stormdb.auth.update.interval"
        assert violation.subcategory is Subcategory.DEPENDENCY_CONTROL

    def test_control_ok_when_dependent_unset(self, spec_set):
        file = file_of(spec_set, {"stormdb.auth.enabled": "false"})
        assert check_dependency(self.control(spec_set), file, spec_set) is None

    def test_relation_satisfied(self, spec_set):
        file = file_of(
            spec_set,
            {"stormdb.io.bytes.per.checksum": "512", "stormdb.io.buffer.size": "4096"},
        )
        assert check_dependency(self.relation(spec_set), file, spec_set) is None

    def test_relation_violated(self, spec_set):
        file = file_of(
            spec_set,
            {"stormdb.io.bytes.per.checksum": "8192", "stormdb.io.buffer.size": "2048"},
        )
        violation = check_dependency(self.relation(spec_set), file, spec_set)
        assert violation is not None
        assert violation.parameter == "stormdb.io.bytes.per.checksum"

    def test_ordering_needs_numbers(self, spec_set):
        relation = self.relation(spec_set)
        file = ConfigFile(
            "stormdb",
            "2.1.0",
            ConfigFormat.XML,
            (
                ConfigEntry(relation.p1, "fast"),
                ConfigEntry(relation.p2, "slow"),
            ),
        )
        with pytest.raises(DependencyEvalError):
            check_dependency(relation, file, spec_set)


def test_spec_document_round_trip(tmp_path):
    specs = demo_spec_set("roundtrip", "4.2.0")
    path = tmp_path / "spec.json"
    save_spec_set(specs, path)
    again = load_spec_set(path)
    assert again.project == specs.project
    assert again.version == specs.version
    assert set(again.parameters) == set(specs.parameters)
    assert again.dependencies == specs.dependencies
    assert again.version_changes == specs.version_changes
    for name, parameter in specs.parameters.items():
        assert again.parameters[name] == parameter


def test_lone_surrogate_in_spec_text_is_a_spec_error():
    doc = spec_set_to_dict(demo_spec_set("surrogate", "1.0.0"))
    doc["parameters"][0]["description"] = "bad \ud800 text"
    with pytest.raises(SpecError, match="surrogates not allowed"):
        spec_set_from_dict(doc)


@pytest.mark.parametrize(
    "name, message", [("", "empty parameter name"), ("a\nb", "line break"), ("a\rb", "line break")]
)
def test_parameter_name_no_config_file_can_hold_is_a_spec_error(name, message):
    doc = spec_set_to_dict(demo_spec_set("badname", "1.0.0"))
    doc["parameters"][0]["name"] = name
    with pytest.raises(SpecError, match=message):
        spec_set_from_dict(doc)


def test_checked_specs_compare_hash_and_pickle_as_fresh_ones(spec_set):
    fresh = demo_spec_set()
    file = file_of(spec_set, {"stormdb.listen.port.0": "70000"}, version="9.9.0")
    found = oracle_validate(file, spec_set)
    for parameter in spec_set.parameters.values():
        value_violation(parameter, "64nounit")
    for name, parameter in spec_set.parameters.items():
        assert parameter == fresh.parameters[name]
        assert hash(parameter) == hash(fresh.parameters[name])
        assert repr(parameter) == repr(fresh.parameters[name])
        again = pickle.loads(pickle.dumps(parameter))
        assert again == parameter
        assert value_violation(again, "64nounit") == value_violation(parameter, "64nounit")
    again = pickle.loads(pickle.dumps(spec_set))
    assert again == spec_set == fresh
    assert oracle_validate(file, again) == found == oracle_validate(file, fresh)


# --- reference: the value checks and the oracle as they were before each spec
# and spec set kept what its checks need ---

_REF_INT_RE = re.compile(r"^[+-]?\d+$")
_REF_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_REF_WORD_RE = re.compile(r"^[A-Za-z]+$")
_REF_DIGITS_RE = re.compile(r"^\d+$")
_REF_PERMISSION_RE = re.compile(r"^\d{3}$")
_REF_URL_RE = re.compile(r"[a-z]+://.*")
_REF_IP_RE = re.compile(r"[\d]{1,3}(.[\d]{1,3}){3}")
_REF_PATH_RE = re.compile(r"^(/[^/ ]+)+/?$")


def _reference_syntax_ok(spec, value):
    kind = spec.kind
    if kind in (ValueKind.INTEGER, ValueKind.LONG):
        return bool(_REF_INT_RE.match(value))
    if kind is ValueKind.FLOAT:
        return bool(_REF_FLOAT_RE.match(value))
    if kind is ValueKind.BOOLEAN:
        return bool(_REF_WORD_RE.match(value))
    if kind is ValueKind.NUMBER_WITH_UNIT:
        alts = "|".join(re.escape(u) for u in spec.units)
        return bool(re.compile(r"^[+-]?(\d+\.?\d*|\.\d+) ?(" + alts + r")$").match(value))
    if kind is ValueKind.PATH:
        return value == "/" or bool(_REF_PATH_RE.match(value))
    if kind is ValueKind.URL:
        return bool(_REF_URL_RE.fullmatch(value))
    if kind is ValueKind.IP_ADDRESS:
        return bool(_REF_IP_RE.fullmatch(value))
    if kind is ValueKind.PORT:
        return bool(_REF_DIGITS_RE.match(value))
    if kind is ValueKind.PERMISSION:
        return bool(_REF_PERMISSION_RE.match(value))
    return True


def _reference_range_violation(spec, value):
    kind, name, bounds = spec.kind, spec.name, _KIND_RULES[spec.kind].bounds
    if bounds is not None:
        lo, hi = spec.numeric_range if spec.numeric_range is not None else bounds
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
        if len(parts) != 4 or not all(_REF_DIGITS_RE.match(p) for p in parts):
            return f"value {value!r} is not a dotted quad of octets"
        if any(int(p) > 255 for p in parts):
            return f"value '{value}' of '{name}' has an octet outside [0, 255]"
        return None
    if kind is ValueKind.PERMISSION:
        if any(digit > "7" for digit in value):
            return f"value {value} of '{name}' is outside the permission range [000, 777]"
        return None
    return None


def _reference_value_violation(spec, value):
    rule = _KIND_RULES[spec.kind]
    if not _reference_syntax_ok(spec, value):
        return Violation(rule.syntax, spec.name, f"value '{value}' of '{spec.name}' {rule.malformed}")
    detail = _reference_range_violation(spec, value)
    if detail is not None:
        return Violation(rule.range, spec.name, detail)
    return None


def _reference_version_violation(name, file_version, changes):
    for change in changes:
        if (file_version == change.v2 and name in change.removed_in_v2) or (
            file_version == change.v1 and name in change.added_in_v2
        ):
            return Violation(
                Subcategory.VERSION_PARAMETER_CHANGE,
                name,
                f"parameter '{name}' does not exist in version {file_version}",
            )
    return None


def _reference_oracle_validate(file, specs):
    version_names = set()
    for change in specs.version_changes:
        version_names |= change.removed_in_v2 | change.added_in_v2
    violations, flagged = [], set()
    for entry in file.entries:
        spec = specs.parameters.get(entry.name)
        if spec is None and entry.name not in version_names:
            raise UnknownParameterError(f"no spec and no version record for parameter {entry.name!r}")
        v = _reference_version_violation(entry.name, file.version, specs.version_changes)
        if v is not None:
            violations.append(v)
            flagged.add(entry.name)
            continue
        if spec is None:
            continue
        v = _reference_value_violation(spec, entry.value)
        if v is not None:
            violations.append(v)
            flagged.add(entry.name)
    for c in specs.dependencies:
        if c.p1 in flagged or c.p2 in flagged:
            continue
        v = check_dependency(c, file, specs)
        if v is not None:
            violations.append(v)
    return violations


def _outcome(check, *args):
    """The result's repr, or the error a check raised, so raising counts too."""
    try:
        return repr(check(*args))
    except (ConfvalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _with_versioned_parameters(specs):
    """The spec set plus a record that removes one spec'd parameter at its
    version and adds another after it, which no demo project has."""
    removed, added = sorted(specs.parameters)[:2]
    change = VersionChange("0.0.1", specs.version, removed_in_v2=frozenset({removed}))
    later = VersionChange(specs.version, "99.0", added_in_v2=frozenset({added}))
    return replace(specs, version_changes=specs.version_changes + (change, later))


SIX_SPECS = six_project_specs()
CHECKED_SPECS = SIX_SPECS + [_with_versioned_parameters(SIX_SPECS[0])]
# shapes the kind patterns tell apart: slashes, dots, signs, exponents, units, line ends
_SHAPE_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from("/ .:+-eEkmgb0179a\n"), max_size=12),
    st.sampled_from(["", "/", "/\n", "\n", " ", "0", "true"]),
)


@st.composite
def parameter_values(draw, parameter):
    """A value the generator would draw as valid, one of its invalid
    candidates for any sub-category, either one with text spliced in, or
    arbitrary text."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    candidates = [_draw_valid(parameter, rng)] + [
        v for subcat in sorted(assign_subcategories(parameter), key=lambda s: s.value)
        for v in _invalid_candidates(parameter, subcat, rng)
    ]
    candidates = [v for v in candidates if v is not None]
    how = draw(st.sampled_from(["drawn", "spliced", "text"]))
    if how == "text" or not candidates:
        return draw(st.one_of(st.text(max_size=12), _SHAPE_TEXT))
    value = draw(st.sampled_from(candidates))
    if how == "spliced":
        at = draw(st.one_of(st.just(len(value)), st.integers(0, len(value))))
        value = value[:at] + draw(_SHAPE_TEXT) + value[at + draw(st.integers(0, 2)):]
    return value


@st.composite
def parameter_and_value(draw):
    specs = draw(st.sampled_from(CHECKED_SPECS))
    kinds = sorted({p.kind for p in specs.parameters.values()}, key=lambda k: k.value)
    kind = draw(st.sampled_from(kinds))
    parameter = draw(st.sampled_from(sorted(
        (p for p in specs.parameters.values() if p.kind is kind), key=lambda p: p.name
    )))
    return parameter, draw(parameter_values(parameter))


@st.composite
def checked_files(draw):
    """A file of one demo project, at its version, either version of any
    version-change record, or an unknown one, over spec'd, version-known and
    (rarely) unknown parameters."""
    specs = draw(st.sampled_from(CHECKED_SPECS))
    versions = {specs.version, "0.0.1-unknown"}
    version_known = set()
    for change in specs.version_changes:
        versions |= {change.v1, change.v2}
        version_known |= change.removed_in_v2 | change.added_in_v2
    known = sorted(specs.parameters) + sorted(version_known)
    names = draw(st.lists(st.sampled_from(known + ["not.in.any.spec"]), unique=True, max_size=10))
    entries = []
    for name in names:
        parameter = specs.parameters.get(name)
        value = draw(parameter_values(parameter) if parameter else _SHAPE_TEXT)
        entries.append(ConfigEntry(name, value))
    version = draw(st.sampled_from(sorted(versions)))
    return ConfigFile(specs.project, version, specs.file_format, tuple(entries)), specs


@settings(max_examples=600, deadline=None)
@given(parameter_and_value())
def test_value_violation_matches_reference(case):
    parameter, value = case
    assert _outcome(value_violation, parameter, value) == _outcome(
        _reference_value_violation, parameter, value
    )


@settings(max_examples=400, deadline=None)
@given(checked_files())
def test_oracle_matches_reference(case):
    file, specs = case
    assert _outcome(oracle_validate, file, specs) == _outcome(_reference_oracle_validate, file, specs)
