#!/usr/bin/env python3
"""Count the code lines of each module of ``src/forminv``.

A line counts when it holds a token other than a comment, a docstring,
a newline or an indent.  A docstring here is any statement that is a
string literal alone; a token that spans several lines (a long string
argument, say) counts every line it spans.  Blank lines, comments and
docstrings count nothing, so the total moves only with code.

Run from anywhere:

    python scripts/code_lines.py

It prints one line per module, ``<count>  <file>``, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path
from typing import List, Set

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forminv"
# tokens that hold no code; NEWLINE and ENDMARKER end a statement instead
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    lines: Set[int] = set()
    statement: List[tokenize.TokenInfo] = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if not all(t.type == tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
