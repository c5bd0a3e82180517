"""Code lines of Python sources: the size measure simplicity work is judged by.

A *code line* holds at least one token that is not a comment and not
layout (newline, indent), and is not part of a docstring — the string
statement that opens a module, class or function body, found through
``ast``.  So comments, blank lines and docstrings, which carry the
design but not the mechanism, are free; every line of code counts,
including each line of a multi-line call or of a non-docstring string.

Usage::

    python benchmarks/tools/loc.py src/repro/shard/service.py src/repro/parallel

prints, per argument (a file, or a directory searched for ``*.py``), the
code lines and the code lines with docstrings counted as code, then the
totals.  ``--help`` prints this text; no argument, or a path that does
not exist, is a one-line usage error (exit status 2).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line count.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(source: str) -> set[int]:
    """Line numbers holding a token that is neither comment nor layout."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(code lines, code lines counting docstrings)`` of one source."""
    tokens = token_lines(source)
    return len(tokens - docstring_lines(ast.parse(source))), len(tokens)


def count_path(path: Path) -> tuple[int, int]:
    """:func:`count` summed over a file or every ``*.py`` under a directory."""
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    code = with_docs = 0
    for f in files:
        c, d = count(f.read_text())
        code += c
        with_docs += d
    return code, with_docs


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    missing = [arg for arg in argv if not Path(arg).exists()]
    if not argv or missing:
        print("usage: loc.py PATH [PATH ...]"
              + (f"; no such file or directory: {missing[0]}" if missing else ""),
              file=sys.stderr)
        return 2
    total = [0, 0]
    print(f"{'code':>7} {'+docs':>7}  path")
    for arg in argv:
        code, with_docs = count_path(Path(arg))
        total[0] += code
        total[1] += with_docs
        print(f"{code:>7} {with_docs:>7}  {arg}")
    if len(argv) > 1:
        print(f"{total[0]:>7} {total[1]:>7}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
