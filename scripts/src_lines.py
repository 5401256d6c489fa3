#!/usr/bin/env python3
"""Print the code lines and docstring lines of ``src/``, as ROADMAP.md and
CHANGES.md count them: ``<code> <docstrings>``.

A code line holds a token other than a comment, NL, NEWLINE, INDENT, DEDENT
or ENDMARKER (``tokenize``; a token spanning lines holds each of them) and
is not a docstring line.  Docstring lines are the lines of module, class
and function docstrings (``ast``).
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(path: Path) -> tuple[int, int]:
    """(code lines, docstring lines) of one Python file."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    held = {line for tok in tokens if tok.type not in _LAYOUT and tok.type != tokenize.ENCODING
            for line in range(tok.start[0], tok.end[0] + 1)}
    docs = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    return len(held - docs), len(docs)


def main() -> int:
    totals = [sum(pair) for pair in zip(*(count(p) for p in sorted((ROOT / "src").rglob("*.py"))))]
    print(*totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
