"""The code-line count that CHANGES.md cites (``code_lines.py``)."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SNIPPET = '''\
"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


def area(r):
    """A function docstring."""

    return (math.pi
            * r ** 2)


TEXT = """a string in code
over two lines"""
'''


def test_counts_statements_not_docstrings_comments_or_blanks():
    # import, def, the return over two lines and the assignment over two
    assert code_lines(SNIPPET) == 6


def test_prints_one_count_per_file(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    script = Path(__file__).with_name("code_lines.py")
    out = subprocess.run([sys.executable, str(script), str(path), str(path)],
                         capture_output=True, text=True, check=True).stdout
    assert out == f"6 {path}\n" * 2
