"""The README's examples hold as written against the package: the library
example runs, and its framework config and spec document examples load."""

import ast
import json
import re
from pathlib import Path

from confval.cli import FrameworkConfig
from confval.constraints import spec_set_from_dict

from conftest import demo_spec_doc

README = Path(__file__).resolve().parents[1] / "README.md"
SPEC_PATH = "specs/stormdb.json"


def section(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index(heading) :]


def library_example() -> str:
    return re.search(r"```python\n(.*?)```", section("## Library use"), re.DOTALL).group(1)


def json_example(heading: str) -> str:
    return re.search(r"```json\n(.*?)```", section(heading), re.DOTALL).group(1)


def test_library_example_runs(tmp_path, capsys):
    code = library_example()
    assert f'"{SPEC_PATH}"' in code
    spec = tmp_path / "stormdb.json"
    spec.write_text(json.dumps(demo_spec_doc()), encoding="utf-8")
    exec(compile(code.replace(SPEC_PATH, spec.as_posix()), str(README), "exec"), {})
    report = ast.literal_eval(capsys.readouterr().out)
    assert report["target"] == "eval[0]"
    assert report["tally"] == report["total_votes"] > 0


def test_spec_document_example_loads():
    specs = spec_set_from_dict(json.loads(json_example("### Project spec documents")))
    assert specs.project == "stormdb"
    assert {name for c in specs.dependencies for name in (c.p1, c.p2)} <= set(specs.parameters)


def test_framework_config_example_loads(tmp_path):
    path = tmp_path / "confval.json"
    path.write_text(json_example("### Framework config"), encoding="utf-8")
    cfg = FrameworkConfig.from_file(path)
    assert cfg.shot_db == "dataset/"
    assert cfg.settings.retry_bound == 3
