import hashlib
import json
import random
import sys

import pytest

import confval.misconfig_gen
from confval.config_model import ConfigFormat
from confval.constraints import (
    Category,
    Comparator,
    DependencyConstraint,
    DependencyKind,
    ParameterSpec,
    SpecSet,
    Subcategory,
    ValueKind,
    assign_subcategories,
    oracle_validate,
    value_violation,
)
from confval.errors import GenerationError, SpecError
from confval.misconfig_gen import (
    Label,
    LabeledFile,
    build_dataset,
    generate_invalid_value,
    generate_valid_value,
    _eligible_by_subcategory,
    _FileBuilder,
    _safe_companions,
    load_dataset,
    write_dataset,
)

from conftest import demo_spec_set, six_project_specs

# sha256 over the (relative path, bytes) pairs, in path order, of the corpora
# write_dataset emits for six_project_specs() at seed 11. Value generation,
# the oracle's reason text and rendering all feed it.
SEED_11_CORPUS_SHA256 = "866013f2aca66d8beea1c40610aae124f491ba3e579756d718cbedfae861cfe5"


def spec(kind, name="demo.param", **kw):
    return ParameterSpec(name=name, kind=kind, **kw)


class TestGenerateInvalid:
    @pytest.mark.parametrize(
        "kind,subcat,kwargs",
        [
            (ValueKind.PATH, Subcategory.SYNTAX_PATH, {}),
            (ValueKind.IP_ADDRESS, Subcategory.SYNTAX_IP_ADDRESS, {}),
            (ValueKind.IP_ADDRESS, Subcategory.RANGE_IP_ADDRESS, {}),
            (ValueKind.INTEGER, Subcategory.RANGE_NUMERIC, {}),
            (ValueKind.PORT, Subcategory.RANGE_PORT, {}),
            (ValueKind.BOOLEAN, Subcategory.RANGE_BOOL, {}),
            (ValueKind.PERMISSION, Subcategory.RANGE_PERMISSION, {}),
            (ValueKind.ENUM, Subcategory.RANGE_ENUM, {"options": ("a", "b")}),
            (ValueKind.NUMBER_WITH_UNIT, Subcategory.SYNTAX_DATA_TYPE, {"units": ("kb",)}),
        ],
    )
    def test_violates_exactly_the_subcategory(self, kind, subcat, kwargs):
        parameter = spec(kind, **kwargs)
        for seed in range(20):
            value = generate_invalid_value(parameter, subcat, random.Random(seed))
            hit = value_violation(parameter, value)
            assert hit is not None and hit.subcategory is subcat

    def test_canonical_counterexamples_reachable(self):
        outputs = {
            generate_invalid_value(spec(ValueKind.PATH), Subcategory.SYNTAX_PATH, random.Random(s))
            for s in range(50)
        }
        assert "/hello//world" in outputs
        outputs = {
            generate_invalid_value(
                spec(ValueKind.IP_ADDRESS), Subcategory.SYNTAX_IP_ADDRESS, random.Random(s)
            )
            for s in range(50)
        }
        assert "127.x0.0.1" in outputs

    def test_integer_overflow_literal(self):
        outputs = {
            generate_invalid_value(
                spec(ValueKind.INTEGER), Subcategory.RANGE_NUMERIC, random.Random(s)
            )
            for s in range(20)
        }
        assert "2147483648" in outputs  # one past the 32-bit maximum

    def test_unranged_float_reason_quotes_the_oracle_range(self):
        parameter = spec(ValueKind.FLOAT)
        value = generate_invalid_value(parameter, Subcategory.RANGE_NUMERIC, random.Random(0))
        violation = value_violation(parameter, value)
        assert violation.subcategory is Subcategory.RANGE_NUMERIC
        assert f"[{-sys.float_info.max:g}, {sys.float_info.max:g}]" in violation.detail

    def test_unit_misuse_literal(self):
        unit_spec = spec(ValueKind.NUMBER_WITH_UNIT, units=("kb", "mb"))
        outputs = {
            generate_invalid_value(unit_spec, Subcategory.SYNTAX_DATA_TYPE, random.Random(s))
            for s in range(30)
        }
        assert any(v.endswith("nounit") for v in outputs)

    def test_inapplicable_subcategory_rejected(self):
        with pytest.raises(GenerationError, match="not applicable"):
            generate_invalid_value(spec(ValueKind.STRING), Subcategory.RANGE_PORT, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        parameter = spec(ValueKind.PORT)
        a = generate_invalid_value(parameter, Subcategory.RANGE_PORT, random.Random(11))
        b = generate_invalid_value(parameter, Subcategory.RANGE_PORT, random.Random(11))
        assert a == b


class TestGenerateValid:
    def test_port_stays_in_range(self):
        parameter = spec(ValueKind.PORT)
        for seed in range(30):
            value = generate_valid_value(parameter, random.Random(seed))
            assert 0 <= int(value) <= 65535

    def test_default_sometimes_returned(self):
        parameter = spec(ValueKind.PORT, default_value="8020")
        outputs = {generate_valid_value(parameter, random.Random(s)) for s in range(30)}
        assert "8020" in outputs
        assert len(outputs) > 1

    def test_enum_forced_to_options(self):
        parameter = spec(ValueKind.ENUM, options=("a", "b"))
        outputs = {generate_valid_value(parameter, random.Random(s)) for s in range(20)}
        assert outputs <= {"a", "b"}

    def test_every_kind_yields_oracle_valid_values(self):
        for kind in ValueKind:
            kwargs = {}
            if kind is ValueKind.ENUM:
                kwargs["options"] = ("x", "y")
            if kind is ValueKind.NUMBER_WITH_UNIT:
                kwargs["units"] = ("kb",)
            parameter = spec(kind, **kwargs)
            for seed in range(10):
                value = generate_valid_value(parameter, random.Random(seed))
                assert value_violation(parameter, value) is None


class TestInjectDependency:
    def _specs(self, comparator=Comparator.LE):
        params = [
            spec(ValueKind.INTEGER, "demo.low", numeric_range=(0, 1000), default_value="100"),
            spec(ValueKind.INTEGER, "demo.high", numeric_range=(0, 1000), default_value="500"),
            spec(ValueKind.BOOLEAN, "demo.flag", default_value="true"),
            spec(ValueKind.INTEGER, "demo.gated", numeric_range=(1, 100), default_value="10"),
        ]
        deps = [
            DependencyConstraint(
                DependencyKind.VALUE_RELATIONSHIP, "demo.low", "demo.high", comparator
            ),
            DependencyConstraint(
                DependencyKind.CONTROL, "demo.flag", "demo.gated", Comparator.EQ, "true"
            ),
        ]
        return SpecSet("demo", "1.0", ConfigFormat.XML, {p.name: p for p in params}, deps)

    def _inject(self, specs, subcat, parameter, seed):
        # every parameter has a dependency, so no companions pad the pair
        builder = _FileBuilder(specs, random.Random(seed), entries_per_file=2)
        return builder.misconfig_file(subcat, parameter)

    def test_relation_violation_lands_on_p1(self):
        specs = self._specs()
        labeled = self._inject(
            specs, Subcategory.DEPENDENCY_VALUE_RELATIONSHIP, "demo.low", seed=3
        )
        assert labeled.injected.parameter == "demo.low"
        found = oracle_validate(labeled.file, specs)
        assert len(found) == 1
        assert found[0].subcategory is Subcategory.DEPENDENCY_VALUE_RELATIONSHIP

    def test_control_violation_lands_on_gated_parameter(self):
        specs = self._specs()
        labeled = self._inject(specs, Subcategory.DEPENDENCY_CONTROL, "demo.gated", seed=3)
        assert labeled.injected.parameter == "demo.gated"
        assert labeled.file.get("demo.flag").value == "false"
        found = oracle_validate(labeled.file, specs)
        assert [v.subcategory for v in found] == [Subcategory.DEPENDENCY_CONTROL]

    def test_equality_constraint_broken_by_offset(self):
        specs = self._specs(Comparator.EQ)
        labeled = self._inject(
            specs, Subcategory.DEPENDENCY_VALUE_RELATIONSHIP, "demo.low", seed=5
        )
        v1 = labeled.file.get("demo.low").value
        v2 = labeled.file.get("demo.high").value
        assert v1 != v2
        assert len(oracle_validate(labeled.file, specs)) == 1


class TestBuildDataset:
    def test_rich_subcategory_yields_shot_plus_four(self, spec_set, dataset):
        shot_mis = [
            lf
            for lf in dataset.shot_pool
            if lf.label is Label.MISCONFIG and lf.bucket is Subcategory.RANGE_PORT
        ]
        eval_mis = [
            lf
            for lf in dataset.eval_set
            if lf.label is Label.MISCONFIG and lf.bucket is Subcategory.RANGE_PORT
        ]
        assert len(shot_mis) == 1
        assert len(eval_mis) == 4

    def test_sparse_subcategory_goes_all_eval(self, dataset):
        shot = [lf for lf in dataset.shot_pool if lf.bucket is Subcategory.SYNTAX_URL]
        eval_mis = [
            lf
            for lf in dataset.eval_set
            if lf.label is Label.MISCONFIG and lf.bucket is Subcategory.SYNTAX_URL
        ]
        assert shot == []
        assert len(eval_mis) == 2  # both eligible URL parameters

    def test_missing_subcategory_absent(self):
        specs = demo_spec_set("nourl", counts={ValueKind.URL: 0})
        split = build_dataset(specs, rng=random.Random(1))
        buckets = {lf.bucket for lf in split.shot_pool + split.eval_set}
        assert Subcategory.SYNTAX_URL not in buckets

    def test_single_fault_property(self, spec_set, dataset):
        for lf in dataset.shot_pool + dataset.eval_set:
            if lf.label is not Label.MISCONFIG:
                continue
            found = oracle_validate(lf.file, spec_set)
            assert len(found) == 1
            assert found[0].parameter == lf.injected.parameter
            assert found[0].subcategory is lf.injected.subcategory

    def test_reason_is_the_oracle_detail(self, six_datasets):
        for specs, split in six_datasets.values():
            for lf in split.shot_pool + split.eval_set:
                if lf.label is Label.MISCONFIG:
                    assert lf.injected.reason == oracle_validate(lf.file, specs)[0].detail

    def test_each_attempt_calls_the_module_oracle_once(self, spec_set, monkeypatch):
        """The benchmark counts generation attempts by patching
        confval.misconfig_gen.oracle_validate; each assembled file is checked
        once, through that name."""
        calls = {"oracle": 0, "assemble": 0}
        oracle, assemble = confval.misconfig_gen.oracle_validate, _FileBuilder._assemble

        def counting_oracle(file, specs):
            calls["oracle"] += 1
            return oracle(file, specs)

        def counting_assemble(builder, fixed):
            calls["assemble"] += 1
            return assemble(builder, fixed)

        monkeypatch.setattr(confval.misconfig_gen, "oracle_validate", counting_oracle)
        monkeypatch.setattr(_FileBuilder, "_assemble", counting_assemble)
        split = build_dataset(spec_set, rng=random.Random(7))
        assert calls["oracle"] == calls["assemble"] >= len(split.shot_pool) + len(split.eval_set)

    def test_zero_fault_property(self, spec_set, dataset):
        for lf in dataset.shot_pool + dataset.eval_set:
            if lf.label is Label.VALID:
                assert oracle_validate(lf.file, spec_set) == []

    def test_context_width(self, dataset):
        for lf in dataset.shot_pool + dataset.eval_set:
            assert len(lf.file.entries) == 8

    def test_coverage_every_eligible_subcategory(self, spec_set, dataset):
        eligible = set()
        for parameter in spec_set.parameters.values():
            eligible |= assign_subcategories(parameter, spec_set.dependencies)
        eligible.add(Subcategory.VERSION_PARAMETER_CHANGE)
        got = {
            lf.injected.subcategory
            for lf in dataset.eval_set
            if lf.label is Label.MISCONFIG
        }
        assert got == eligible

    def test_reproducible_across_runs(self, spec_set):
        first = build_dataset(spec_set, rng=random.Random(21))
        second = build_dataset(spec_set, rng=random.Random(21))
        fingerprint = lambda split: [  # noqa: E731
            (lf.file.content_key(), lf.label.value) for lf in split.shot_pool + split.eval_set
        ]
        assert fingerprint(first) == fingerprint(second)


def frozen_attach_then_assign(specs):
    """The eligible parameters of each sub-category and the safe companions, as
    derived when every ParameterSpec carried the constraints that name it."""
    attached = {name: tuple(c for c in specs.dependencies if name in (c.p1, c.p2)) for name in specs.parameters}
    eligible = {}
    for name, spec in specs.parameters.items():
        subcategories = {sc for sc in (spec.rule.syntax, spec.rule.range) if sc is not None}
        subcategories.update(c.subcategory for c in attached[name] if c.carrier == name)
        for sc in subcategories:
            eligible.setdefault(sc, []).append(name)
    companions = [
        name for name in specs.parameters if not attached[name] and name not in specs.version_known_names
    ]
    return eligible, companions


class TestSpecSetHoldsDependencies:
    """The SpecSet alone holds the constraints; what generation derives from them
    matches the code that first attached them to both their parameters."""

    @pytest.mark.parametrize("specs", six_project_specs(), ids=lambda specs: specs.project)
    def test_matches_the_attached_derivation(self, specs):
        eligible, companions = frozen_attach_then_assign(specs)
        got = _eligible_by_subcategory(specs)
        del got[Subcategory.VERSION_PARAMETER_CHANGE]  # from version records, not constraints
        assert got == eligible  # the same names in the same (spec) order, so the same draws
        assert {sc for sc in eligible if sc.category is Category.DEPENDENCY} == {
            c.subcategory for c in specs.dependencies
        }
        assert _safe_companions(specs) == companions
        for name, spec in specs.parameters.items():
            assigned = assign_subcategories(spec, specs.dependencies)
            assert assigned == {sc for sc, names in eligible.items() if name in names}


class TestCorpusOnDisk:
    def test_write_then_load_round_trips(self, spec_set, dataset, tmp_path):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        assert (project_dir / "manifest.json").exists()
        project, again = load_dataset(project_dir)
        assert project == spec_set.project
        key = lambda split: [  # noqa: E731
            (lf.file.content_key(), lf.label, lf.injected, lf.bucket)
            for lf in split.shot_pool + split.eval_set
        ]
        assert key(again) == key(dataset)

    def test_tree_layout(self, spec_set, dataset, tmp_path):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        manifest = json.loads((project_dir / "manifest.json").read_text())
        for row in manifest["files"]:
            split, slug, filename = row["path"].split("/")
            assert split in ("shot_pool", "eval_set")
            assert (project_dir / row["path"]).exists()
            assert filename.endswith(f".{row['format']}")

    def test_same_seed_byte_identical_trees(self, spec_set, tmp_path):
        for out in ("a", "b"):
            split = build_dataset(spec_set, rng=random.Random(33))
            write_dataset(split, tmp_path / out, spec_set)
        left = sorted((tmp_path / "a").rglob("*"))
        right = sorted((tmp_path / "b").rglob("*"))
        assert [p.relative_to(tmp_path / "a") for p in left] == [
            p.relative_to(tmp_path / "b") for p in right
        ]
        for lp, rp in zip(left, right):
            if lp.is_file():
                assert lp.read_bytes() == rp.read_bytes()

    def test_overwriting_another_corpus_matches_a_fresh_write(self, spec_set, tmp_path):
        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        write_dataset(build_dataset(spec_set, rng=5), tmp_path / "over", spec_set)
        before = tree(tmp_path / "over")
        for out in ("over", "fresh"):
            write_dataset(build_dataset(spec_set, rng=6), tmp_path / out, spec_set)
        after, fresh = tree(tmp_path / "over"), tree(tmp_path / "fresh")
        assert after == fresh
        assert before.keys() == after.keys()
        assert any(len(before[rel]) > len(after[rel]) for rel in after)  # a file got shorter

    @pytest.mark.parametrize("key", ["split", "label", "format", "bucket", "subcategory"])
    def test_unknown_row_value_names_the_row(self, spec_set, dataset, tmp_path, key):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        manifest = json.loads((project_dir / "manifest.json").read_text())
        index = next(i for i, row in enumerate(manifest["files"]) if "subcategory" in row)
        # checked before the file is read, so the missing file goes unnoticed
        manifest["files"][index].update({key: "bogus", "path": "missing.xml"})
        (project_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match=rf"files\[{index}\]: unknown {key} 'bogus'"):
            load_dataset(project_dir)

    @pytest.mark.parametrize(
        "key",
        ["path", "split", "label", "bucket", "format", "content_key", "parameter", "subcategory", "reason"],
    )
    def test_missing_row_key_names_the_row(self, spec_set, dataset, tmp_path, key):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        manifest = json.loads((project_dir / "manifest.json").read_text())
        index = next(i for i, row in enumerate(manifest["files"]) if row["label"] == "misconfig")
        del manifest["files"][index][key]
        (project_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match=rf"files\[{index}\]: missing key '{key}'"):
            load_dataset(project_dir)

    @pytest.mark.parametrize("bucket", [None, Subcategory.SYNTAX_URL])
    def test_misconfig_file_refuses_a_bucket_not_its_faults(self, dataset, bucket):
        """So write_dataset cannot write a row that load_dataset refuses."""
        lf = next(lf for lf in dataset.eval_set if lf.injected and lf.bucket is not Subcategory.SYNTAX_URL)
        with pytest.raises(ValueError, match=f"contradicts subcategory '{lf.injected.subcategory.value}'"):
            LabeledFile(lf.file, lf.label, lf.injected, bucket=bucket)

    def test_injected_parameter_missing_from_its_file_names_the_row(self, spec_set, dataset, tmp_path):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        manifest = json.loads((project_dir / "manifest.json").read_text())
        index = next(i for i, row in enumerate(manifest["files"]) if row["label"] == "misconfig")
        manifest["files"][index]["parameter"] = "no.such.parameter"
        (project_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            SpecError, match=rf"files\[{index}\]: injected parameter 'no.such.parameter' missing from file"
        ):
            load_dataset(project_dir)

    @pytest.mark.parametrize("escape", ["absolute", "parent"])
    def test_row_path_must_stay_in_the_project(self, spec_set, dataset, tmp_path, escape):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        manifest = json.loads((project_dir / "manifest.json").read_text())
        row = manifest["files"][3]
        real = project_dir / row["path"]
        row["path"] = str(real.resolve()) if escape == "absolute" else f"../{project_dir.name}/{row['path']}"
        (project_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match=r"files\[3\]: path .* leaves the project directory"):
            load_dataset(project_dir)

    def test_unparsable_file_names_the_row_and_the_file(self, spec_set, dataset, tmp_path):
        project_dir = write_dataset(dataset, tmp_path, spec_set)
        row = json.loads((project_dir / "manifest.json").read_text())["files"][2]
        (project_dir / row["path"]).write_text("<configuration><property>")
        with pytest.raises(SpecError) as caught:
            load_dataset(project_dir)
        message = str(caught.value)
        assert f"files[2]: cannot read {project_dir}/{row['path']}: malformed XML" in message
        assert message.count("line 1, column 25") == 1

    def test_seed_11_corpora_are_pinned(self, tmp_path):
        for specs in six_project_specs():
            write_dataset(build_dataset(specs, rng=11), tmp_path, specs)
        files = sorted(
            (p.relative_to(tmp_path).as_posix(), p.read_bytes())
            for p in tmp_path.rglob("*")
            if p.is_file()
        )
        digest = hashlib.sha256()
        for rel, data in files:
            digest.update(f"{rel}\0{len(data)}\0".encode() + data)
        assert digest.hexdigest() == SEED_11_CORPUS_SHA256
