"""No dead helpers: every module-level function or class in src/qgraph is
named somewhere in src/qgraph beyond its own definition, or is exported in
`qgraph.__all__`.  families.py is exempt; it is a public module of graph
constructors.  So are the module-level hooks `__getattr__` and `__dir__`:
the interpreter calls them (PEP 562), no code names them."""

import ast
import collections
import pathlib

import qgraph

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qgraph"
EXEMPT = {"families.py"}
HOOKS = {"__getattr__", "__dir__"}


def _definitions(tree: ast.Module) -> list[ast.AST]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [node for node in tree.body if isinstance(node, kinds)]


def _references(tree: ast.AST) -> collections.Counter:
    """Every name the code refers to: loads, attributes and imported names."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name] += 1
    return names


def test_every_module_level_definition_is_used_or_exported():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    assert len(trees) >= 10
    references = sum((_references(tree) for tree in trees.values()), collections.Counter())
    dead = sorted(
        f"{path.relative_to(SRC)}: {node.name}"
        for path, tree in trees.items()
        if path.name not in EXEMPT
        for node in _definitions(tree)
        # references inside a definition (recursion) do not count
        if references[node.name] == _references(node)[node.name] and node.name not in qgraph.__all__
        and node.name not in HOOKS
    )
    assert not dead, dead
