"""Code lines of Python files: lines holding code, less docstrings, comments and blanks.

A line counts when it holds a token other than a comment or a line break
and lies outside every module, class and function docstring (found with
``ast``).  This is the count that net-line reports use, next to the raw
``wc -l`` one.

Usage::

    python tools/code_lines.py src/islandmc/*.py

At least one path is required, so a glob that matches nothing exits 2
with the usage line, as does a path that cannot be read as a file.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("paths", nargs="+", help="Python source files")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        try:
            with open(path) as fh:
                n = code_lines(fh.read())
        except OSError as exc:
            parser.error(str(exc))
        total += n
        print(f"{n:8d} {path}")
    print(f"{total:8d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
