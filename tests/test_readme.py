"""The README's library example runs as written against the package exports."""

import ast
import re
from pathlib import Path

from confval.constraints import save_spec_set

from conftest import demo_spec_set

README = Path(__file__).resolve().parents[1] / "README.md"
SPEC_PATH = "specs/stormdb.json"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs(tmp_path, capsys):
    code = library_example()
    assert f'"{SPEC_PATH}"' in code
    spec = tmp_path / "stormdb.json"
    save_spec_set(demo_spec_set(), spec)
    exec(compile(code.replace(SPEC_PATH, spec.as_posix()), str(README), "exec"), {})
    report = ast.literal_eval(capsys.readouterr().out)
    assert report["target"] == "eval[0]"
    assert report["tally"] == report["total_votes"] > 0
