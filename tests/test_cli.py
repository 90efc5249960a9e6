import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import confval
import confval.cli
import confval.misconfig_gen
import confval.prompting
from confval.cli import main
from confval.constraints import Category, Subcategory, ValueKind
from confval.misconfig_gen import Label

from conftest import demo_spec_doc

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
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(demo_spec_doc("clitest", "1.0.0", counts=SMALL_COUNTS)), encoding="utf-8")
    dataset_root = tmp_path / "dataset"
    code = main(["gen-dataset", "--spec", str(spec_path), "--out", str(dataset_root), "--seed", "5"])
    assert code == 0
    return {"spec_path": spec_path, "dataset": dataset_root, "tmp": tmp_path}


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

    @pytest.mark.parametrize("where", ["name", "default", "options"])
    def test_lone_surrogate_in_spec_exits_two(self, workspace, tmp_path, capsys, where):
        doc = json.loads(workspace["spec_path"].read_text(encoding="utf-8"))
        for parameter in doc["parameters"]:
            if where in parameter and parameter["name"].endswith(".0"):
                if where == "options":
                    parameter["options"][0] += "\ud800x"
                else:
                    parameter[where] += "\ud800x"
                break
        else:
            raise AssertionError(f"no parameter with a {where}")
        spec_path = tmp_path / "surrogate.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")  # escaped as \ud800
        code = main(["gen-dataset", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: invalid spec document" in err and "surrogates not allowed" in err

    @pytest.mark.parametrize("fault", ["duplicate", "p1", "p2"])
    def test_contradictory_spec_exits_two(self, tmp_path, capsys, fault):
        """A parameter named twice, or a dependency on a parameter the document lacks."""
        doc = demo_spec_doc("clitest", "1.0.0", counts=SMALL_COUNTS)
        if fault == "duplicate":
            doc["parameters"].append(dict(doc["parameters"][0]))
            needle = f"duplicate parameter spec: {doc['parameters'][0]['name']}"
        else:
            doc["dependencies"][0][fault] = "clitest.nowhere"
            needle = "dependency references unknown parameter: clitest.nowhere"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["gen-dataset", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and needle in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not (tmp_path / "d").exists()

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
            mock={"behavior": "echo_ground_truth"},
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
            mock={"behavior": "noise_with_rate", "noise_rate": 0.4},
        )

        def run(seed):
            code = main(
                [
                    "evaluate",
                    "--dataset", str(workspace["dataset"]),
                    "--config", str(config),
                    "--seed", seed,
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        # the seed drives both the shot draws and the mock's noise
        assert run("13") == run("13") != run("14")

    def test_systemic_failure_exits_two(self, workspace, capsys):
        """A run or sweep that scores no file still prints its report, then
        names the number of failed files and the first failure on one error line."""
        config = write_config(workspace["tmp"], mock={"behavior": "malformed"})
        for sweep in ([], ["--sweep", "--max-shots", "1"]):
            code = main(
                ["evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config), *sweep]
            )
            captured = capsys.readouterr()
            assert code == 2
            doc = json.loads(captured.out)
            reports = list(doc["sweep"].values()) if sweep else [doc]
            failures = [failure["error"] for report in reports for failure in report["failures"]]
            assert failures and failures[0].startswith("ValidationFailedError: no accepted response")
            errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
            assert errors == [
                f"error: no file was scored: {len(failures)} file validations failed; "
                f"the first: {failures[0]}"
            ]

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

    @pytest.mark.parametrize("how", ["latin1", "surrogate_path"])
    def test_unreadable_question_template(self, workspace, how):
        template = workspace["tmp"] / "question.txt"
        template.write_bytes("Is this caf\u00e9 [PROJECT] file valid?".encode("latin-1"))
        path = str(template) if how == "latin1" else "\ud800"
        result = self._evaluate(workspace, question_template_path=path)
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
        original = json.loads(path.read_text(encoding="utf-8"))
        for key in ("project", "version", "files"):
            path.write_text(json.dumps({k: v for k, v in original.items() if k != key}), encoding="utf-8")
            result = self._evaluate(workspace)
            self._assert_operational_error(result, f"dataset manifest {path}: missing key {key!r}")

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--jobs", "0"], "argument --jobs: must be at least 1, got 0"),
            (["--jobs", "-3"], "argument --jobs: must be at least 1, got -3"),
            (["--jobs", "two"], "argument --jobs: invalid integer value: 'two'"),
            (["--sweep", "--max-shots", "-1"], "argument --max-shots: must be at least 0, got -1"),
        ],
    )
    def test_count_flag_out_of_range_is_a_usage_error(self, workspace, flags, needle):
        config = write_config(workspace["tmp"])
        result = run_cli("evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config), *flags)
        self._assert_operational_error(result, needle)
        assert "usage:" in result.stderr
        assert result.stdout == ""

    def test_sweep_of_zero_shots_is_allowed(self, workspace):
        config = write_config(workspace["tmp"])
        dataset = ("--dataset", str(workspace["dataset"]), "--config", str(config))
        result = run_cli("evaluate", *dataset, "--sweep", "--max-shots", "0")
        assert result.returncode == 0, result.stderr
        assert list(json.loads(result.stdout)["sweep"]) == ["0v0m"]

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"shots": 5}, "shots"),
            ({"mock": "x"}, "mock"),
            ({"max_parallel": 1.5}, "max_parallel"),
            ({"shot_db": 5}, "shot_db"),
            ({"seed": "abc"}, "seed"),
        ],
    )
    def test_config_value_of_wrong_json_type(self, workspace, overrides, key):
        result = self._evaluate(workspace, **overrides)
        self._assert_operational_error(result, key)

    @pytest.mark.parametrize("key, value", [("seed", 9), ("seed", None), ("truth_from", "dataset/")])
    @pytest.mark.parametrize("command", ["validate", "evaluate"])
    def test_mock_seed_and_truth_from_are_unknown_keys(self, workspace, key, value, command):
        """The mock takes the run's seed and corpus; a config that sets its own exits 2."""
        config = write_config(workspace["tmp"], mock={"behavior": "noise_with_rate", key: value})
        row = manifest_rows(workspace["dataset"])[0]
        args = {
            "validate": ["--file", str(workspace["dataset"] / "clitest" / row["path"]),
                         "--project", "clitest", "--version", "1.0.0"],
            "evaluate": ["--dataset", str(workspace["dataset"])],
        }[command]
        result = run_cli(command, *args, "--config", str(config))
        self._assert_operational_error(result, f"section 'mock': unknown key {key!r}")
        assert result.stdout == ""

    def test_oversized_file(self, workspace):
        row = manifest_rows(workspace["dataset"])[0]
        config = write_config(workspace["tmp"], token_limit=20, shot_db=str(workspace["dataset"]))
        result = run_cli(
            "validate", "--file", str(workspace["dataset"] / "clitest" / row["path"]),
            "--project", "clitest", "--version", "1.0.0", "--config", str(config),
        )
        self._assert_operational_error(result, "exceed the token limit (20) even compressed")
        assert result.stdout == ""

    @pytest.mark.parametrize("suffix, text", [(".xml", "<configuration></configuration>\n"), (".ini", "")])
    def test_noise_mock_on_file_without_entries(self, workspace, suffix, text):
        """With nothing to flag, a noise answer says valid: exit 0, no traceback."""
        path = workspace["tmp"] / f"empty{suffix}"
        path.write_text(text, encoding="utf-8")
        for seed in (1, 2, 3):
            config = write_config(
                workspace["tmp"], num_queries=10, seed=seed, shots={"valid": 0, "misconfig": 0},
                mock={"behavior": "noise_with_rate", "noise_rate": 1.0},
            )
            result = run_cli(
                "validate", "--file", str(path), "--project", "clitest", "--version", "1.0.0",
                "--config", str(config),
            )
            assert (result.returncode, result.stderr) == (0, "")
            assert json.loads(result.stdout)["hasError"] is False

    @pytest.mark.parametrize("timeout", ["NaN", "Infinity", "1e400", "1e10"])
    def test_request_timeout_the_socket_layer_cannot_take(self, workspace, timeout):
        """Not a number, or past threading.TIMEOUT_MAX, which urllib3 would refuse mid-run."""
        config = workspace["tmp"] / "http.json"
        config.write_text(
            '{"backend": "http", "endpoint": "http://127.0.0.1:9/v1/chat", "request_timeout": %s}' % timeout
        )
        row = manifest_rows(workspace["dataset"])[0]
        result = run_cli(
            "validate", "--file", str(workspace["dataset"] / "clitest" / row["path"]),
            "--project", "clitest", "--version", "1.0.0", "--config", str(config),
        )
        self._assert_operational_error(result, "request_timeout must be within (0, 9.22337e+09] seconds")
        assert result.stdout == ""

    def test_config_document_not_an_object(self, workspace):
        config = workspace["tmp"] / "confval.json"
        config.write_text("[1, 2]", encoding="utf-8")
        result = run_cli("evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config))
        self._assert_operational_error(result, "must be a JSON object")

    def test_report_into_missing_directory(self, workspace):
        config = write_config(workspace["tmp"])
        report = workspace["tmp"] / "missing" / "r.json"
        result = run_cli(
            "evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config),
            "--report", str(report),
        )
        self._assert_operational_error(result, "error:")
        assert result.stdout == ""

    def test_dataset_under_a_regular_file(self, workspace):
        blocker = workspace["tmp"] / "blocker"
        blocker.write_text("", encoding="utf-8")
        result = run_cli(
            "gen-dataset", "--spec", str(workspace["spec_path"]), "--out", str(blocker / "x")
        )
        self._assert_operational_error(result, "error:")

    def test_csv_under_a_regular_file(self, workspace):
        config = write_config(workspace["tmp"])
        report = workspace["tmp"] / "report.json"
        code = main([
            "evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config),
            "--report", str(report),
        ])
        assert code == 0
        blocker = workspace["tmp"] / "blocker"
        blocker.write_text("", encoding="utf-8")
        result = run_cli("report", "--report", str(report), "--csv", str(blocker / "x"))
        self._assert_operational_error(result, "error:")
        assert result.stdout == ""

    def test_csv_of_a_sweep(self, workspace):
        config = write_config(workspace["tmp"])
        sweep = workspace["tmp"] / "sweep.json"
        code = main([
            "evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config),
            "--sweep", "--max-shots", "1", "--report", str(sweep),
        ])
        assert code == 0
        out_dir = workspace["tmp"] / "csv"
        result = run_cli("report", "--report", str(sweep), "--csv", str(out_dir))
        self._assert_operational_error(result, "--csv needs a single evaluate report")
        assert result.stdout == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("document", ["config", "manifest", "spec", "report", "sweep"])
    def test_document_of_another_schema(self, workspace, document):
        tmp = workspace["tmp"]
        config = write_config(tmp, schema_version=2 if document == "config" else 1)
        evaluate = ["evaluate", "--dataset", str(workspace["dataset"]), "--config", str(config)]
        if document in ("report", "sweep"):
            report = tmp / "report.json"
            sweep = ["--sweep", "--max-shots", "1"] if document == "sweep" else []
            assert main([*evaluate, *sweep, "--report", str(report)]) == 0
            doc = json.loads(report.read_text(encoding="utf-8"))
            report.write_text(json.dumps({**doc, "schema_version": 99}), encoding="utf-8")
            result = run_cli("report", "--report", str(report))
        elif document == "spec":
            doc = json.loads(workspace["spec_path"].read_text(encoding="utf-8"))
            spec = tmp / "spec99.json"
            spec.write_text(json.dumps({**doc, "schema_version": 99}), encoding="utf-8")
            result = run_cli("gen-dataset", "--spec", str(spec), "--out", str(tmp / "out99"))
            assert not (tmp / "out99").exists()
        else:
            if document == "manifest":
                path = workspace["dataset"] / "clitest" / "manifest.json"
                manifest = json.loads(path.read_text(encoding="utf-8"))
                path.write_text(json.dumps({**manifest, "schema_version": 99}), encoding="utf-8")
            result = run_cli(*evaluate)
        self._assert_operational_error(result, "only 1 is supported")
        assert result.stdout == ""

    def test_report_without_per_project(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema_version": 1}), encoding="utf-8")
        result = run_cli("report", "--report", str(path))
        self._assert_operational_error(result, "malformed report")
        assert result.stdout == ""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["gen-dataset", "validate", "evaluate", "report"])
    def test_stdout_closed_before_the_write(self, workspace, command, unbuffered):
        tmp, dataset = workspace["tmp"], workspace["dataset"]
        config = write_config(tmp, shot_db=str(dataset))
        argv = {
            "gen-dataset": ["--spec", str(workspace["spec_path"]), "--out", str(tmp / "again")],
            "validate": [
                "--file", str(dataset / "clitest" / manifest_rows(dataset)[0]["path"]),
                "--project", "clitest", "--version", "1.0.0", "--config", str(config),
            ],
            "evaluate": ["--dataset", str(dataset), "--config", str(config)],
            "report": ["--report", str(tmp / "report.json")],
        }[command]
        if command == "report":
            evaluate = ["evaluate", "--dataset", str(dataset), "--config", str(config), "--report", argv[1]]
            assert main(evaluate) == 0
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(confval.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the command writes anything
        try:
            result = subprocess.run(
                [sys.executable, "-m", "confval.cli", command, *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "Exception ignored" not in result.stderr
        assert result.stderr.splitlines()[-1].startswith("error:")


def test_eval_set_has_both_labels(workspace):
    labels = {row["label"] for row in manifest_rows(workspace["dataset"])}
    assert labels == {Label.VALID.value, Label.MISCONFIG.value}


class TestFrameworkConfig:
    def test_defaults_follow_framework_table(self, tmp_path):
        from confval.cli import FrameworkConfig

        cfg = FrameworkConfig.from_file(write_config(tmp_path, num_queries=10))
        assert cfg.settings.num_queries == 10
        assert cfg.backend_config.temperature == 0.2
        assert cfg.settings.combination.valid_count == 1
        assert cfg.settings.combination.misconfig_count == 3

    def test_question_template_override(self, tmp_path):
        from confval.cli import FrameworkConfig

        template = tmp_path / "question.txt"
        template.write_text(
            "Inspect this [PROJECT] [VERSION] file and answer in JSON.", encoding="utf-8"
        )
        cfg = FrameworkConfig.from_file(
            write_config(tmp_path, question_template_path=str(template))
        )
        assert cfg.settings.question_template.startswith("Inspect this [PROJECT]")

    def test_unknown_backend_rejected(self, tmp_path):
        from confval.cli import FrameworkConfig
        from confval.errors import SpecError

        with pytest.raises(SpecError):
            FrameworkConfig.from_file(write_config(tmp_path, backend="quantum"))

    def test_http_backend_needs_an_endpoint(self, tmp_path):
        from confval.cli import FrameworkConfig
        from confval.errors import SpecError

        with pytest.raises(SpecError, match="endpoint"):
            FrameworkConfig.from_file(write_config(tmp_path, backend="http"))


class TestCorpusLoading:
    def test_evaluate_reads_each_project_once(self, workspace, monkeypatch, capsys):
        spec_path = workspace["tmp"] / "spec2.json"
        spec_doc = demo_spec_doc("clitest2", "1.0.0", counts=SMALL_COUNTS)
        spec_path.write_text(json.dumps(spec_doc), encoding="utf-8")
        dataset = workspace["dataset"]
        assert main(["gen-dataset", "--spec", str(spec_path), "--out", str(dataset), "--seed", "6"]) == 0
        calls = []
        original = confval.misconfig_gen.load_dataset

        def counting(project_dir):
            calls.append(Path(project_dir).name)
            return original(project_dir)

        # every module that holds the name, wherever the loader is called from
        for module in (confval.cli, confval.misconfig_gen, confval.prompting):
            if hasattr(module, "load_dataset"):
                monkeypatch.setattr(module, "load_dataset", counting)
        # the shot database and the dataset (the mock's truth) name the same root, spelt differently
        config = write_config(workspace["tmp"], shot_db=f"{dataset}/")
        code = main(["evaluate", "--dataset", str(dataset), "--config", str(config)])
        capsys.readouterr()
        assert code == 0
        assert sorted(calls) == ["clitest", "clitest2"]


# --- the boundary promise: a malformed document exits 2 with a named error ---

README = Path(__file__).resolve().parents[1] / "README.md"

JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "integer": st.integers(),
    "number": st.floats(allow_nan=False, allow_infinity=False),
    "string": st.text(max_size=8),
    "array": st.lists(st.integers(), max_size=3),
    "object": st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
}
NUMBER = {"integer", "number"}
# the JSON kinds each key of the README config accepts (a bool is no number)
ACCEPTED = {
    ("backend",): {"string"},
    ("model_id",): {"string"},
    ("temperature",): NUMBER,
    ("token_limit",): {"integer"},
    ("endpoint",): {"string"},
    ("credentials_env",): {"string"},
    ("max_parallel",): {"integer"},
    ("num_queries",): {"integer"},
    ("shots",): {"object"},
    ("shots", "valid"): {"integer"},
    ("shots", "misconfig"): {"integer"},
    ("strategy",): {"string"},
    ("retry_bound",): {"integer"},
    ("seed",): {"integer"},
    ("shot_db",): {"string", "null"},
    ("question_template_path",): {"string", "null"},
    ("mock",): {"object"},
    ("mock", "behavior"): {"string"},
    ("mock", "noise_rate"): NUMBER,
}
NON_OBJECT = st.one_of(*(strategy for kind, strategy in JSON_KINDS.items() if kind != "object"))
# every document that carries a schema_version: the framework config, a corpus
# manifest, a spec document, a report, and a sweep document or one of its entries
VERSIONED = ("config", "manifest", "spec", "report", "sweep", "sweep entry")
REPORT_KEYS = ("per_project", "macro", "micro_f1_by_subcategory", "f1_by_param_count", "files_scored")
REPORT_SECTIONS = REPORT_KEYS[:4]
COUNT_KEYS = ("tp", "fp", "tn", "fn", "files_scored")


def report_values(doc) -> list[tuple[tuple, set]]:
    """Every value of a report, at every level, as (key path, JSON kinds it
    accepts): counts take integers, ratios any number."""
    paths = [("files_scored",)]
    for project, levels in doc["per_project"].items():
        paths += [("per_project", project, level, key) for level in levels for key in levels[level]]
    paths += [("macro", level, key) for level in doc["macro"] for key in doc["macro"][level]]
    paths += [(section, key) for section in REPORT_SECTIONS[2:] for key in doc[section]]
    return [(path, {"integer"} if path[-1] in COUNT_KEYS else NUMBER) for path in paths]


# what a corpus manifest must hold, as (where, key, JSON kind): the manifest
# itself, or a valid or misconfig file row
MANIFEST_FIELDS = (
    [("manifest", "project", "string"), ("manifest", "version", "string"), ("manifest", "files", "array")]
    + [
        (label, key, "string")
        for label in (Label.VALID.value, Label.MISCONFIG.value)
        for key in ("path", "split", "label", "bucket", "format", "content_key")
    ]
    + [(Label.MISCONFIG.value, key, "string") for key in ("parameter", "subcategory", "reason")]
)


ROW_ONLY_HOWS = ["content_key", "missing_file", "escape", "corrupt_file"]
MISCONFIG_ONLY_HOWS = ["contradict_bucket", "contradict_category"]


@st.composite
def manifest_mutation(draw):
    """One way to break a manifest: a key dropped, a value of a wrong JSON
    type, a wrong content_key, a path to a missing file, a path that leaves
    the project directory to reach a real file, a listed file overwritten
    with malformed markup, or a misconfig row whose bucket or category
    contradicts its sub-category."""
    where, key, kind = draw(st.sampled_from(MANIFEST_FIELDS))
    hows = ["drop", "retype"] + (ROW_ONLY_HOWS if where != "manifest" else [])
    hows += MISCONFIG_ONLY_HOWS if where == Label.MISCONFIG.value else []
    how = draw(st.sampled_from(hows))
    value = draw(st.one_of(*(strategy for k, strategy in JSON_KINDS.items() if k != kind)))
    return where, key, how, draw(st.integers(min_value=0, max_value=10_000)), value


def mutate_manifest(manifest, project_dir, where, key, how, pick, value):
    """Apply the mutation; return the row it broke, or None for the manifest."""
    doc = manifest
    if where != "manifest":
        rows = [row for row in manifest["files"] if row["label"] == where]
        doc = rows[pick % len(rows)]
    if how == "drop":
        del doc[key]
    elif how == "retype":
        doc[key] = value
    elif how == "content_key":
        doc["content_key"] = "0" * 16 if doc["content_key"] != "0" * 16 else "1" * 16
    elif how == "missing_file":
        doc["path"] = f"missing/{doc['path']}"
    elif how == "escape":  # the same, real file, reached from outside
        absolute = str((project_dir / doc["path"]).resolve())
        doc["path"] = absolute if pick % 2 else f"../{project_dir.name}/{doc['path']}"
    elif how == "corrupt_file":
        markup = "<configuration><property>" if doc["format"] == "xml" else "no separator\n"
        (project_dir / doc["path"]).write_text(markup, encoding="utf-8")
    elif how == "contradict_bucket":  # another sub-category, or none
        others = [sc.value for sc in Subcategory if sc.value != doc["subcategory"]] + ["unbucketed"]
        doc["bucket"] = others[pick % len(others)]
    elif how == "contradict_category":
        own = Subcategory(doc["subcategory"]).category.value
        others = [c.value for c in Category if c.value != own]
        doc["category"] = others[pick % len(others)]
    return None if where == "manifest" else doc


# the JSON kinds each key of a spec document accepts, by where it sits: the
# document itself, a parameter, a dependency or a version change
OPTIONAL_TEXT = {"string", "null"}
SPEC_FIELDS = {
    "spec": {
        "schema_version": {"integer"}, "project": {"string"}, "version": {"string"},
        "file_format": {"string"}, "parameters": {"array"}, "dependencies": {"array"},
        "version_changes": {"array"},
    },
    "parameters": {
        "name": {"string"}, "kind": {"string"}, "range": {"array", "null"}, "default": OPTIONAL_TEXT,
        "options": {"array"}, "units": {"array"}, "description": OPTIONAL_TEXT,
    },
    "dependencies": {
        "kind": {"string"}, "p1": {"string"}, "p2": {"string"}, "comparator": {"string"},
        "value": OPTIONAL_TEXT,
    },
    "version_changes": {
        "v1": {"string"}, "v2": {"string"}, "removed_in_v2": {"array"}, "added_in_v2": {"array"},
    },
}


@st.composite
def spec_mutation(draw):
    """One way to break a spec document: a key set to a JSON kind it does not
    accept, or an unknown key, in the document or in one of its items."""
    where = draw(st.sampled_from(sorted(SPEC_FIELDS)))
    key = draw(st.sampled_from(sorted(SPEC_FIELDS[where]) + ["unknown"]))
    accepted = SPEC_FIELDS[where].get(key, set())
    value = draw(st.one_of(*(strategy for kind, strategy in JSON_KINDS.items() if kind not in accepted)))
    return where, key, draw(st.integers(min_value=0, max_value=10_000)), value


def readme_config() -> dict:
    section = README.read_text(encoding="utf-8").split("### Framework config", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


@st.composite
def wrongly_typed_config(draw):
    doc = readme_config()
    path = draw(st.sampled_from(sorted(ACCEPTED)))
    kind = draw(st.sampled_from(sorted(set(JSON_KINDS) - ACCEPTED[path])))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON_KINDS[kind])
    return doc


# pieces of both config dialects, so drawn bytes often parse
CONFIG_TOKENS = [
    "<configuration>", "</configuration>", "<property>", "</property>", "<name>", "</name>",
    "<value>", "</value>", "<description>", "</description>", "<?xml version=\"1.0\"?>",
    "readme.listen.port", "readme.node.label", "a", "=", "8020", "\\", "# ", "\n", " ", "&amp;",
    "<", "\x00", "\ud7ff", "\u00e9",
]


def run_main(*argv) -> tuple[int, str]:
    """main() in this process: the exit code and stderr; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def readme_workspace(tmp_path_factory):
    """A corpus at ./dataset, where the README config looks for it, and a valid
    report.json made from it."""
    root = tmp_path_factory.mktemp("readme")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(demo_spec_doc("readme", "1.0.0", counts=SMALL_COUNTS)), encoding="utf-8")
    dataset = root / "dataset"
    code, _ = run_main("gen-dataset", "--spec", str(spec_path), "--out", str(dataset))
    assert code == 0
    config = write_config(root, mock={"behavior": "echo_ground_truth"})
    code, _ = run_main(
        "evaluate", "--dataset", str(dataset), "--config", str(config),
        "--report", str(root / "report.json"),
    )
    assert code == 0
    return root


class TestBoundaryFuzz:
    fuzz = settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )

    def _evaluate(self, doc) -> tuple[int, str]:
        Path("confval.json").write_text(json.dumps(doc), encoding="utf-8")
        return run_main("evaluate", "--dataset", "dataset", "--config", "confval.json")

    def _with_schema_version(self, document, version) -> tuple[int, str]:
        """The command that reads the document, run on it with the version set."""
        if document == "config":
            return self._evaluate({**readme_config(), "schema_version": version})
        if document == "manifest":
            path = Path("dataset/readme/manifest.json")
            original = path.read_text(encoding="utf-8")
            path.write_text(json.dumps({**json.loads(original), "schema_version": version}), encoding="utf-8")
            try:
                return self._evaluate(readme_config())
            finally:
                path.write_text(original, encoding="utf-8")
        if document == "spec":
            doc = json.loads(Path("spec.json").read_text(encoding="utf-8"))
            Path("versioned.json").write_text(json.dumps({**doc, "schema_version": version}), encoding="utf-8")
            shutil.rmtree("versioned", ignore_errors=True)
            return run_main("gen-dataset", "--spec", "versioned.json", "--out", "versioned")
        if document == "report":
            return self._report(lambda doc: {**doc, "schema_version": version})
        if document == "sweep":
            return self._report(lambda doc: {"schema_version": version, "sweep": {"0v1m": doc}})
        return self._report(
            lambda doc: {"schema_version": 1, "sweep": {"0v1m": {**doc, "schema_version": version}}}
        )

    def _report(self, mutate) -> tuple[int, str]:
        doc = json.loads(Path("report.json").read_text(encoding="utf-8"))
        Path("mutated.json").write_text(json.dumps(mutate(doc)), encoding="utf-8")
        return run_main("report", "--report", "mutated.json")

    def test_table_covers_the_readme_config(self):
        doc = readme_config()
        paths = {(key,) for key in doc}
        paths |= {(key, inner) for key in ("shots", "mock") for inner in doc[key]}
        assert paths == set(ACCEPTED)

    def test_unmutated_documents_succeed(self, readme_workspace, monkeypatch):
        monkeypatch.chdir(readme_workspace)
        assert self._evaluate(readme_config())[0] == 0
        assert self._report(lambda doc: doc)[0] == 0

    @fuzz
    @given(st.one_of(wrongly_typed_config(), NON_OBJECT))
    def test_wrongly_typed_config_exits_two(self, readme_workspace, monkeypatch, doc):
        monkeypatch.chdir(readme_workspace)
        code, err = self._evaluate(doc)
        assert code == 2
        assert "error:" in err

    # more draws than the other fuzz tests: there are 114 (where, key, how) mutations
    @settings(fuzz, max_examples=200)
    @given(manifest_mutation())
    @example((Label.MISCONFIG.value, "bucket", "contradict_bucket", 0, None))
    @example((Label.MISCONFIG.value, "category", "contradict_category", 0, None))
    def test_broken_manifest_exits_two(self, readme_workspace, monkeypatch, mutation):
        monkeypatch.chdir(readme_workspace)
        project_dir = Path("dataset/readme")
        path = project_dir / "manifest.json"
        original = path.read_text(encoding="utf-8")
        manifest = json.loads(original)
        listed = {row["path"]: (project_dir / row["path"]).read_bytes() for row in manifest["files"]}
        row = mutate_manifest(manifest, project_dir, *mutation)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        try:
            code, err = self._evaluate(readme_config())
        finally:
            path.write_text(original, encoding="utf-8")
            for rel, data in listed.items():
                (project_dir / rel).write_bytes(data)
        assert code == 2
        assert "error:" in err
        how = mutation[2]
        if how in ("escape", "corrupt_file", *MISCONFIG_ONLY_HOWS):
            (line,) = [line for line in err.splitlines() if line.startswith("error:")]
            index = manifest["files"].index(row)
            assert f"files[{index}]" in line
            if how == "corrupt_file":
                assert str(project_dir / row["path"]) in line

    # as many draws as the manifest property: there are 27 (where, key) pairs
    @settings(fuzz, max_examples=150)
    @given(spec_mutation())
    def test_broken_spec_exits_two(self, readme_workspace, monkeypatch, mutation):
        monkeypatch.chdir(readme_workspace)
        spec = json.loads(Path("spec.json").read_text(encoding="utf-8"))
        where, key, pick, value = mutation
        (spec if where == "spec" else spec[where][pick % len(spec[where])])[key] = value
        Path("mutated-spec.json").write_text(json.dumps(spec), encoding="utf-8")
        shutil.rmtree("mutated-corpus", ignore_errors=True)
        code, err = run_main("gen-dataset", "--spec", "mutated-spec.json", "--out", "mutated-corpus")
        assert code == 2
        assert "error:" in err
        assert not Path("mutated-corpus").exists()

    @pytest.mark.parametrize(
        "document, command",
        [
            ("spec.json", "gen-dataset"),
            ("confval.json", "validate"),
            ("confval.json", "evaluate"),
            ("dataset/readme/manifest.json", "evaluate"),
            ("report.json", "report"),
        ],
    )
    def test_document_not_utf8_exits_two(self, readme_workspace, monkeypatch, document, command):
        monkeypatch.chdir(readme_workspace)
        Path("confval.json").write_text(json.dumps(readme_config()), encoding="utf-8")
        path = Path(document)
        original = path.read_bytes()
        path.write_bytes(b'{"caf\xe9": 1, ' + original.lstrip()[1:])  # a Latin-1 key
        target = next(Path("dataset/readme/eval_set").rglob("*.*"))
        argv = {
            "gen-dataset": ["--spec", document, "--out", "latin1-corpus"],
            "validate": [
                "--file", str(target), "--project", "readme", "--version", "1.0.0", "--config", document,
            ],
            "evaluate": ["--dataset", "dataset", "--config", "confval.json"],
            "report": ["--report", document],
        }[command]
        try:
            code, err = run_main(command, *argv)
        finally:
            path.write_bytes(original)
        assert code == 2
        assert "error: cannot read" in err and document in err

    @pytest.mark.parametrize("document", VERSIONED)
    def test_supported_schema_version_succeeds(self, readme_workspace, monkeypatch, document):
        monkeypatch.chdir(readme_workspace)
        assert self._with_schema_version(document, 1)[0] == 0

    @fuzz
    @given(st.sampled_from(VERSIONED), st.one_of(st.integers().filter(lambda v: v != 1), st.booleans()))
    def test_unsupported_schema_version_exits_two(self, readme_workspace, monkeypatch, document, version):
        monkeypatch.chdir(readme_workspace)
        code, err = self._with_schema_version(document, version)
        assert code == 2
        assert "error:" in err

    @fuzz
    @given(
        st.one_of(
            st.binary(max_size=200),
            st.lists(st.sampled_from(CONFIG_TOKENS), max_size=30).map("".join).map(str.encode),
        ),
        st.sampled_from([".xml", ".ini"]),
        st.sampled_from(["echo_ground_truth", "always_valid", "malformed"]),
    )
    @example(b"\\readme.node.label=worker", ".ini", "echo_ground_truth")  # escapes to a CR in a name
    def test_raw_bytes_validate_exits_zero_one_or_two(
        self, readme_workspace, monkeypatch, data, suffix, behavior
    ):
        monkeypatch.chdir(readme_workspace)
        Path(f"raw{suffix}").write_bytes(data)
        Path("raw.json").write_text(
            json.dumps({**readme_config(), "num_queries": 3, "mock": {"behavior": behavior}}),
            encoding="utf-8",
        )
        code, _ = run_main(
            "validate", "--file", f"raw{suffix}", "--project", "readme", "--version", "1.0.0",
            "--config", "raw.json",
        )
        assert code in (0, 1, 2)

    @pytest.mark.parametrize("key", REPORT_KEYS)
    def test_report_without_required_key_exits_two(self, readme_workspace, monkeypatch, key):
        monkeypatch.chdir(readme_workspace)
        code, err = self._report(lambda doc: {k: v for k, v in doc.items() if k != key})
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("csv", [False, True], ids=["table", "csv"])
    @pytest.mark.parametrize("section", ["per_project", "micro_f1_by_subcategory", "f1_by_param_count"])
    def test_report_label_with_lone_surrogate_exits_two(self, readme_workspace, monkeypatch, section, csv):
        monkeypatch.chdir(readme_workspace)
        doc = json.loads(Path("report.json").read_text(encoding="utf-8"))
        doc[section]["\ud800"] = next(iter(doc[section].values()))
        Path("surrogate.json").write_text(json.dumps(doc), encoding="utf-8")
        shutil.rmtree("surrogate-csv", ignore_errors=True)
        result = run_cli("report", "--report", "surrogate.json", *(["--csv", "surrogate-csv"] if csv else []))
        assert result.returncode == 2
        assert result.stderr.startswith("error: malformed report surrogate.json: UnicodeEncodeError")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == ""
        assert not Path("surrogate-csv").exists()

    @fuzz
    @given(st.sampled_from(REPORT_SECTIONS), NON_OBJECT)
    def test_report_section_not_an_object_exits_two(
        self, readme_workspace, monkeypatch, key, value
    ):
        monkeypatch.chdir(readme_workspace)
        code, err = self._report(lambda doc: {**doc, key: value})
        assert code == 2
        assert "error:" in err

    def test_report_values_cover_every_level(self, readme_workspace):
        doc = json.loads((readme_workspace / "report.json").read_text(encoding="utf-8"))
        sections = {path[0] for path, _ in report_values(doc)}
        assert sections == {"files_scored", *REPORT_SECTIONS}

    @fuzz
    @given(st.data(), st.sampled_from(["table", "csv", "sweep"]))
    def test_mistyped_report_value_exits_two(self, readme_workspace, monkeypatch, data, form):
        monkeypatch.chdir(readme_workspace)
        doc = json.loads(Path("report.json").read_text(encoding="utf-8"))
        path, accepted = data.draw(st.sampled_from(report_values(doc)))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(
            st.one_of(*(strategy for kind, strategy in JSON_KINDS.items() if kind not in accepted))
        )
        if form == "sweep":
            doc = {"schema_version": 1, "sweep": {"0v1m": doc}}
        Path("mistyped.json").write_text(json.dumps(doc), encoding="utf-8")
        shutil.rmtree("mistyped-csv", ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            csv = ["--csv", "mistyped-csv"] if form == "csv" else []
            code = main(["report", "--report", "mistyped.json", *csv])
        assert code == 2
        assert err.getvalue().startswith("error: malformed report mistyped.json: SpecError")
        assert len(err.getvalue().splitlines()) == 1
        assert out.getvalue() == ""
        assert not Path("mistyped-csv").exists()
