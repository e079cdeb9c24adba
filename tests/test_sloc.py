"""The code-line counter in tools/sloc.py, on a fixed snippet."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).resolve().parent.parent / "tools" / "sloc.py")
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide code

# a comment line


class C:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string that is
        not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_outside_docstrings_and_comments():
    # import, class, def, the two lines of `text`, the two of `return`
    assert sloc.count_code_lines(SNIPPET) == 7
