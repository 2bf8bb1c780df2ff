"""ci/size.py counts code lines without blanks, comments and docstrings."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("size", ROOT / "ci" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SYNTHETIC = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string that
        is not a docstring"""
        return (x +
                1)
'''


def test_code_lines_of_a_synthetic_file():
    # import, class, def, the two lines of the string and the two of return
    assert size.code_lines(SYNTHETIC) == 7


def test_prints_the_three_figures(capsys):
    assert size.main() == 0
    out = capsys.readouterr().out.split("\n")
    assert [line.split(" ")[0] for line in out if line] == [
        "src_lines", "src_code_lines", "exported_names"]
