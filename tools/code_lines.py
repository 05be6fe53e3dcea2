"""Count the code lines of each Python file under src/ndcheck, and their
total.  A code line holds at least one token that is neither a comment nor
part of a docstring; blank lines, comment lines and docstring lines do not
count.  A statement or string that spans several lines counts each of them.

    python tools/code_lines.py            # every file under src/ndcheck
    python tools/code_lines.py DIR_OR_FILE ...

Stdlib only.  Prints one "count path" line per file, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in TRIVIA:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[Path]) -> list[Path]:
    return sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or [ROOT / "src" / "ndcheck"]
    total = 0
    for f in python_files(paths):
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f.relative_to(ROOT) if f.is_relative_to(ROOT) else f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
