import contextlib
import io
import re
from pathlib import Path

from soilfuzz import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["A-4 fair to poor", "A-4"]
    assert 0.0 <= float(lines[2]) <= 1.0


def run_json_example(tmp_path, command):
    """The JSON block of ``command``'s output section, and what the CLI prints.

    The section shows a CSV input, names a command on it, and gives that
    command's output.
    """
    text = README.read_text(encoding="utf-8")
    section = text.split(f"### {command} output", 1)[1].split("\n### ", 1)[0]
    csv_block = re.search(r"```csv\n(.*?)```", section, re.DOTALL).group(1)
    args = re.search(rf"`soilfuzz ({command} [^`]*) IN` prints", section).group(1)
    json_block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "in.csv"
    path.write_text(csv_block, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*args.split(), str(path)]) == 0
    return json_block, out.getvalue()


def test_memberships_json_example_is_real_output(tmp_path):
    shown, printed = run_json_example(tmp_path, "memberships")
    assert printed == shown


def test_classify_json_example_is_real_output(tmp_path):
    shown, printed = run_json_example(tmp_path, "classify")
    assert printed == shown
