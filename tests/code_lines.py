"""Code lines per Python file: the lines that hold a token other than a
docstring or a comment.

    python tests/code_lines.py PATH...

prints one ``count path`` line per file, a directory standing for its
``.py`` files at any depth, in sorted order.  Given several paths or a
directory, it then prints a ``count total`` line.  A docstring is any
string literal standing alone as a statement; a line that only continues
one, holds only a comment or is blank does not count.  A statement or a string over several
lines counts every line it spans.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines: set[int] = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        alone = ((k == 0 or tokens[k - 1].type in _LAYOUT)
                 and tokens[k + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type == tokenize.STRING and alone:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: code_lines.py PATH...")
    args = [Path(arg) for arg in sys.argv[1:]]
    total = 0
    for arg in args:
        for path in sorted(arg.rglob("*.py")) if arg.is_dir() else [arg]:
            count = code_lines(path.read_text(encoding="utf-8"))
            print(count, path)
            total += count
    if len(args) > 1 or args[0].is_dir():
        print(total, "total")
