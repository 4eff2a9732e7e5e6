"""tools/code_lines.py sorts every line of a module into one kind."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring,
on two lines."""

# a comment line
x = 1  # code with a trailing comment


def f():
    """A function docstring."""
    s = """a multi-line

string"""
    return s
'''


def test_each_line_has_one_kind():
    # code: lines 5, 8, 10-12 and 13; docstring: 1, 2 and 9; comment: 4;
    # blank: 3, 6 and 7, but not the empty line inside the string
    assert _tool().count(SOURCE) == {"code": 6, "docstring": 3, "comment": 1, "blank": 3}

