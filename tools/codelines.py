"""Count the code lines of a Python source tree.

A line counts when it holds a token that is not a comment, a blank or a
docstring.  A docstring is a string statement that opens a module, class or
function body.  A token that spans lines (a multi-line string, say) counts
every line it spans.  Standard library only (``tokenize``).

Usage: ``python tools/codelines.py [DIR ...]`` (default ``src/ropekit``)
prints each module's count, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that hold no code: NEWLINE ends a statement and is kept apart
_IGNORED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """The number of code lines in the Python file ``path``."""
    with open(path, "rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline) if t.type not in _IGNORED]
    lines = set()
    # ``opens`` marks a statement that opens a body: the module's first, or
    # the first after a def or class header's colon
    start, opens, header, depth = True, True, False, 0
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok.type == tokenize.NEWLINE:
            start = True
            i += 1
            continue
        if start:
            j = i
            while j < len(tokens) and tokens[j].type == tokenize.STRING:
                j += 1
            if opens and j > i and (j == len(tokens) or tokens[j].type == tokenize.NEWLINE):
                start = opens = False
                i = j
                continue
            opens = False
        start = False
        lines.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type == tokenize.NAME and tok.string in ("def", "class"):
            header, depth = True, 0
        elif header and tok.type == tokenize.OP:
            if tok.string in "([{":
                depth += 1
            elif tok.string in ")]}":
                depth -= 1
            elif tok.string == ":" and depth == 0:
                start, opens, header = True, True, False
        i += 1
    return len(lines)


def main() -> int:
    roots = [Path(a) for a in sys.argv[1:]] or [Path("src/ropekit")]
    total = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            n = code_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
