import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import confval
from confval.cli import main
from confval.constraints import ValueKind, save_spec_set
from confval.misconfig_gen import Label

from conftest import demo_spec_set

# sized so the shot pool ends up with a handful of misconfig shots (the
# data-type, numeric-range and both port sub-categories clear the threshold)
SMALL_COUNTS = {
    ValueKind.INTEGER: 3,
    ValueKind.LONG: 0,
    ValueKind.FLOAT: 0,
    ValueKind.BOOLEAN: 2,
    ValueKind.STRING: 8,
    ValueKind.PATH: 2,
    ValueKind.URL: 0,
    ValueKind.IP_ADDRESS: 2,
    ValueKind.PORT: 5,
    ValueKind.PERMISSION: 2,
    ValueKind.ENUM: 2,
    ValueKind.NUMBER_WITH_UNIT: 0,
}


@pytest.fixture
def workspace(tmp_path):
    specs = demo_spec_set("clitest", "1.0.0", counts=SMALL_COUNTS)
    spec_path = tmp_path / "spec.json"
    save_spec_set(specs, spec_path)
    dataset_root = tmp_path / "dataset"
    code = main(["gen-dataset", "--spec", str(spec_path), "--out", str(dataset_root), "--seed", "5"])
    assert code == 0
    return {"specs": specs, "spec_path": spec_path, "dataset": dataset_root, "tmp": tmp_path}


def write_config(tmp_path, **overrides) -> Path:
    doc = {
        "backend": "mock",
        "num_queries": 1,
        "seed": 0,
        "mock": {"behavior": "echo_ground_truth"},
    }
    doc.update(overrides)
    path = tmp_path / "confval.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def manifest_rows(dataset_root, project="clitest"):
    manifest = json.loads((dataset_root / project / "manifest.json").read_text())
    return manifest["files"]


class TestGenDataset:
    def test_writes_manifest_and_counts(self, workspace, capsys, tmp_path):
        code = main(
            ["gen-dataset", "--spec", str(workspace["spec_path"]), "--out", str(tmp_path / "d")]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["project"] == "clitest"
        assert summary["per_subcategory"]
        assert (workspace["dataset"] / "clitest" / "manifest.json").exists()

    def test_missing_spec_exits_nonzero(self, tmp_path, capsys):
        code = main(
            ["gen-dataset", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "d")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        other = tmp_path / "again"
        assert main(
            ["gen-dataset", "--spec", str(workspace["spec_path"]), "--out", str(other), "--seed", "5"]
        ) == 0
        base = workspace["dataset"] / "clitest"
        for path in sorted((other / "clitest").rglob("*")):
            if path.is_file():
                twin = base / path.relative_to(other / "clitest")
                assert twin.read_bytes() == path.read_bytes()


class TestValidate:
    def _pick(self, workspace, label):
        for row in manifest_rows(workspace["dataset"]):
            if row["split"] == "eval_set" and row["label"] == label:
                return workspace["dataset"] / "clitest" / row["path"], row
        raise AssertionError("no such row")

    def _config(self, workspace):
        return write_config(
            workspace["tmp"],
            shot_db=str(workspace["dataset"]),
            mock={"behavior": "echo_ground_truth", "truth_from": str(workspace["dataset"])},
        )

    def test_valid_file_exits_zero(self, workspace, capsys):
        path, _ = self._pick(workspace, "valid")
        config = self._config(workspace)
        code = main(
            [
                "validate",
                "--file", str(path),
                "--project", "clitest",
                "--version", "1.0.0",
                "--config", str(config),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        verdict = json.loads(out)
        assert verdict["hasError"] is False

    def test_misconfig_exits_one_and_names_parameter(self, workspace, capsys):
        path, row = self._pick(workspace, "misconfig")
        config = self._config(workspace)
        code = main(
            [
                "validate",
                "--file", str(path),
                "--project", "clitest",
                "--version", "1.0.0",
                "--config", str(config),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        verdict = json.loads(out)
        assert verdict["errParameters"] == [row["parameter"]]

    def test_unreadable_file_exits_two(self, workspace, capsys):
        config = self._config(workspace)
        code = main(
            [
                "validate",
                "--file", str(workspace["tmp"] / "missing.xml"),
                "--project", "clitest",
                "--version", "1.0.0",
                "--config", str(config),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestEvaluate:
    def test_echo_mock_perfect_report(self, workspace, capsys):
        config = write_config(workspace["tmp"])
        report_path = workspace["tmp"] / "report.json"
        code = main(
            [
                "evaluate",
                "--dataset", str(workspace["dataset"]),
                "--config", str(config),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["macro"]["file"]["f1"] == 1.0
        assert doc["macro"]["parameter"]["f1"] == 1.0
        stdout_doc = json.loads(capsys.readouterr().out)
        assert stdout_doc == doc

    def test_noise_reproducible_under_seed(self, workspace, capsys):
        config = write_config(
            workspace["tmp"],
            mock={"behavior": "noise_with_rate", "noise_rate": 0.4, "seed": 9},
        )

        def run():
            code = main(
                [
                    "evaluate",
                    "--dataset", str(workspace["dataset"]),
                    "--config", str(config),
                    "--seed", "13",
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        assert run() == run()

    def test_systemic_failure_exits_two(self, workspace, capsys):
        config = write_config(workspace["tmp"], mock={"behavior": "malformed"})
        code = main(
            ["evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config)]
        )
        capsys.readouterr()
        assert code == 2

    def test_sweep_emits_21_reports(self, workspace, capsys):
        config = write_config(workspace["tmp"])
        code = main(
            [
                "evaluate",
                "--dataset", str(workspace["dataset"]),
                "--config", str(config),
                "--sweep",
                "--max-shots", "2",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["sweep"]) == 6  # 0..2 shots: 1 + 2 + 3 combinations

    def test_full_sweep_combination_count(self, workspace):
        from confval.prompting import enumerate_shot_combinations

        assert len(enumerate_shot_combinations(5)) == 21


class TestReport:
    def test_tables_and_csv(self, workspace, capsys, tmp_path):
        config = write_config(workspace["tmp"])
        report_path = workspace["tmp"] / "report.json"
        main(
            [
                "evaluate",
                "--dataset", str(workspace["dataset"]),
                "--config", str(config),
                "--report", str(report_path),
            ]
        )
        capsys.readouterr()
        csv_dir = tmp_path / "csv"
        code = main(["report", "--report", str(report_path), "--csv", str(csv_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "clitest" in out
        assert (csv_dir / "per_project.csv").exists()
        assert (csv_dir / "subcategory_f1.csv").exists()

    def test_missing_report_exits_two(self, tmp_path, capsys):
        code = main(["report", "--report", str(tmp_path / "none.json")])
        assert code == 2
        capsys.readouterr()


def run_cli(*args) -> subprocess.CompletedProcess:
    """The CLI in a child interpreter, so the real exit status and stderr show."""
    env = dict(os.environ, PYTHONPATH=str(Path(confval.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "confval.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestExitCodeContract:
    """Bad input is an operational error: exit 2, a named error, no traceback."""

    def _assert_operational_error(self, result, needle):
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert needle in result.stderr

    def _evaluate(self, workspace, **overrides):
        config = write_config(workspace["tmp"], **overrides)
        return run_cli("evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config))

    def test_unknown_strategy(self, workspace):
        result = self._evaluate(workspace, strategy="nope")
        self._assert_operational_error(result, "invalid framework config")

    def test_temperature_out_of_range(self, workspace):
        result = self._evaluate(workspace, temperature=5)
        self._assert_operational_error(result, "temperature")

    def test_missing_question_template(self, workspace):
        missing = workspace["tmp"] / "no-such-question.txt"
        result = self._evaluate(workspace, question_template_path=str(missing))
        self._assert_operational_error(result, "cannot read question template")

    def test_tampered_corpus_file(self, workspace):
        row = manifest_rows(workspace["dataset"])[0]
        path = workspace["dataset"] / "clitest" / row["path"]
        text = path.read_text(encoding="utf-8")
        if row["format"] == "xml":
            extra = "  <property>\n    <name>tampered</name>\n    <value>1</value>\n  </property>\n"
            text = text.replace("</configuration>", extra + "</configuration>")
        else:
            text += "tampered=1\n"
        path.write_text(text, encoding="utf-8")
        result = self._evaluate(workspace)
        self._assert_operational_error(result, "does not match its manifest content_key")
        assert row["path"] in result.stderr

    def test_manifest_without_files(self, workspace):
        path = workspace["dataset"] / "clitest" / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["files"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        result = self._evaluate(workspace)
        self._assert_operational_error(result, "malformed dataset manifest")

    def test_report_without_per_project(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
        result = run_cli("report", "--report", str(path))
        self._assert_operational_error(result, "malformed report")
        assert result.stdout == ""


def test_eval_set_has_both_labels(workspace):
    labels = {row["label"] for row in manifest_rows(workspace["dataset"])}
    assert labels == {Label.VALID.value, Label.MISCONFIG.value}


class TestFrameworkConfig:
    def test_defaults_follow_framework_table(self, tmp_path):
        from confval.cli import FrameworkConfig

        cfg = FrameworkConfig.from_file(write_config(tmp_path, num_queries=10))
        assert cfg.num_queries == 10
        assert cfg.temperature == 0.2
        settings = cfg.pipeline_settings()
        assert settings.combination.valid_count == 1
        assert settings.combination.misconfig_count == 3

    def test_question_template_override(self, tmp_path):
        from confval.cli import FrameworkConfig

        template = tmp_path / "question.txt"
        template.write_text(
            "Inspect this [PROJECT] [VERSION] file and answer in JSON.", encoding="utf-8"
        )
        cfg = FrameworkConfig.from_file(
            write_config(tmp_path, question_template_path=str(template))
        )
        settings = cfg.pipeline_settings()
        assert settings.question_template.startswith("Inspect this [PROJECT]")

    def test_unknown_backend_rejected(self, tmp_path):
        from confval.cli import FrameworkConfig
        from confval.errors import SpecError

        with pytest.raises(SpecError):
            FrameworkConfig.from_file(write_config(tmp_path, backend="quantum"))
