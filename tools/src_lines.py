"""Print the size of the library: src lines and code lines per module.

    python tools/src_lines.py [DIR]

Runs from any directory; DIR defaults to the checkout's ``src/codiffsp``.
Src lines are every line of a module, as ``cat src/codiffsp/*.py | wc -l``
counts them.  Code lines leave out docstrings, comments and blank lines: a
line counts when a token other than a comment or a docstring starts on it
or runs through it (``tokenize``), a docstring being the string that opens
a module, class or function body (``ast``).  One row per module, then the
totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in tree."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(text: str) -> tuple[int, int]:
    """(src lines, code lines) of one module's text."""
    doc = _docstring_lines(ast.parse(text))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in doc)
    return text.count("\n"), len(code)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "codiffsp"
    total_src = total_code = 0
    print(f"{'module':<16} {'src':>6} {'code':>6}")
    for path in sorted(src.glob("*.py")):
        lines, code = count(path.read_text())
        total_src, total_code = total_src + lines, total_code + code
        print(f"{path.name:<16} {lines:>6} {code:>6}")
    print(f"{'total':<16} {total_src:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
