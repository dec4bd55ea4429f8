import contextlib
import io
import re
from pathlib import Path

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
