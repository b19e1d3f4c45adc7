"""The scripts under tools/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(a,
      b):
    """A function docstring."""
    text = """a string that is
no docstring"""
    return (a
            + b)


class C:
    """A class docstring."""
    x = 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # counted: import, both lines of def f, both lines of the string and
    # of the return, class C and x = 1
    assert _load("count_code_lines").code_lines(SNIPPET) == 9


def test_count_code_lines_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# one line\n")
    done = subprocess.run([sys.executable, str(TOOLS / "count_code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split("\n") == ["     9  a.py", "     1  b.py", "    10  total", ""]
