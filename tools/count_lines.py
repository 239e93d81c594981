"""Print the counted lines of each ``src/witrees`` module and their total.

A counted line is a non-blank line that is neither a comment nor part of a
docstring.  Docstrings are found with ``ast``: the string that opens a
module, class or function body.  Comments are found with ``tokenize``: a
line whose only token is a comment.  Run from the repository root:

    python tools/count_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counted_lines(source: str) -> int:
    """Counted lines of one module's source."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = source.splitlines()
    return sum(1 for i in code - docstrings if lines[i - 1].strip())


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "witrees")
    total = 0
    for path in sorted(root.glob("*.py")):
        n = counted_lines(path.read_text())
        total += n
        print(f"{path.stem:<12} {n:>6,}")
    print(f"{'total':<12} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
