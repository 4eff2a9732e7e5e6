"""tools/code_lines.py: the kind of every line of a module, and the code-line delta against a parent."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))   # it imports bench_pairs, as a script would
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


def test_each_line_has_one_kind(monkeypatch):
    # code: lines 5, 8, 10-12 and 13; docstring: 1, 2 and 9; comment: 4;
    # blank: 3, 6 and 7, but not the empty line inside the string
    assert _tool(monkeypatch).count(SOURCE) == {"code": 6, "docstring": 3, "comment": 1, "blank": 3}



def test_the_delta_table_lists_every_module_of_either_side_and_the_total(monkeypatch):
    parent = {"a.py": 100, "b.py": 40, "gone.py": 7}
    change = {"a.py": 90, "b.py": 40, "new.py": 12}
    assert _tool(monkeypatch).delta_table(parent, change) == [
        "module      parent     change      delta",
        "a.py           100         90        -10",
        "b.py            40         40         +0",
        "gone.py          7          0         -7",
        "new.py           0         12        +12",
        "total          147        142         -5",
    ]
