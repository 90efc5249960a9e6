import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confval.config_model import ConfigEntry, ConfigFile, ConfigFormat
from confval.constraints import (
    Category,
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    Subcategory,
    ValueKind,
    assign_subcategories,
    check_dependency,
    load_spec_set,
    oracle_validate,
    save_spec_set,
    value_violation,
)
from confval.errors import DependencyEvalError, SpecError, UnknownParameterError

from conftest import demo_spec_set


def spec(kind, name="demo.param", **kw):
    return ParameterSpec(name=name, project="demo", kind=kind, **kw)


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
        with_deps = spec(ValueKind.INTEGER, dependencies=(control, relation))
        got = assign_subcategories(with_deps)
        assert Subcategory.DEPENDENCY_CONTROL in got  # as the controlled p2
        assert Subcategory.DEPENDENCY_VALUE_RELATIONSHIP in got  # as p1

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
