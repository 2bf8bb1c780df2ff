#!/usr/bin/env python3
"""Print the size of the public package: source lines and exported names.

    python ci/size.py

Lines are every line of every ``src/rsgd/*.py`` file, as ``wc -l`` counts
them.  Code lines are those lines less the blank ones, the comment-only ones
and those of docstrings, so trimming prose does not read as a smaller
program.  Exported names are the public attributes of the imported ``rsgd``
package that are not modules (the package has no ``__all__``).  The output
is three lines, ``src_lines <n>``, ``src_code_lines <n>`` and
``exported_names <n>``; it reports and gates nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of source that hold a token other than a comment, and are not
    part of a module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def main() -> int:
    files = sorted((SRC / "rsgd").glob("*.py"))
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    code = sum(code_lines(p.read_text()) for p in files)
    sys.path.insert(0, str(SRC))
    import rsgd

    names = [n for n, v in vars(rsgd).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    print(f"src_lines {lines}")
    print(f"src_code_lines {code}")
    print(f"exported_names {len(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
