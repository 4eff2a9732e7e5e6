"""The library is numpy-only: src/qgraph imports the standard library, numpy
and its own modules, and nothing else.  And one module owns each matrix
layout: dispersion leaves the count matrices and their solves to spectral."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qgraph"
ALLOWED = {"numpy", "qgraph"}


def _imported_modules(path: pathlib.Path) -> list[str]:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.split(".")[0] for name in names]


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.rglob("*.py"))
    assert len(files) >= 10
    seen = {name for path in files for name in _imported_modules(path)}
    assert "numpy" in seen
    foreign = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in files
        for name in _imported_modules(path)
        if name not in ALLOWED and name not in sys.stdlib_module_names
    )
    assert not foreign, foreign


def _dotted(node: ast.AST) -> str:
    """The dotted name of an attribute chain such as np.linalg.solve, or ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_dispersion_leaves_matrix_layout_to_the_counts():
    # the count matrices and their solves live in spectral's count classes
    # (`_Count.vertex_function`); dispersion keeps only the sweep logic
    tree = ast.parse((SRC / "dispersion.py").read_text(encoding="utf-8"))
    names = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {getattr(node, "module", None) or "", *(alias.name for alias in node.names)}
    assert not {name for name in names if "linalg" in name.split(".")}
    assert "_TrigCount.matrices" not in names
