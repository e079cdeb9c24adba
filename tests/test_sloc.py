"""The code-line counter in tools/sloc.py, on a fixed snippet, and its
exit when stdout is closed."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", TOOL)
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


def test_a_closed_stdout_ends_quietly_with_141():
    """The reader of stdout is gone, as `head` is in `sloc.py src | head -1`
    once it has its line: no traceback, and the exit status of SIGPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, str(TOOL), str(TOOL)], stdout=write_end,
                             stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert run.stderr == "", run.stderr
    assert run.returncode == 141
