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


def run(*paths):
    script = Path(__file__).with_name("code_lines.py")
    return subprocess.run([sys.executable, str(script), *map(str, paths)],
                          capture_output=True, text=True, check=True).stdout


def test_prints_one_count_per_file(tmp_path):
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET, encoding="utf-8")
    assert run(path) == f"6 {path}\n"


def test_prints_a_total_for_several_paths_or_a_directory(tmp_path):
    package = tmp_path / "package"
    (package / "sub").mkdir(parents=True)
    first, second = package / "a.py", package / "sub" / "b.py"
    first.write_text(SNIPPET, encoding="utf-8")
    second.write_text("x = 1\n", encoding="utf-8")
    (package / "notes.txt").write_text("not python\n", encoding="utf-8")
    assert run(first, first) == f"6 {first}\n6 {first}\n12 total\n"
    assert run(package) == f"6 {first}\n1 {second}\n7 total\n"
