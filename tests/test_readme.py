"""README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first ``python`` fence under README's "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    """Each ``print(...)  # text`` line of the block prints ``text``, in order."""
    prints = [line for line in quick_start().splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.split("#", 1)[1].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
