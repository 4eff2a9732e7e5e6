"""The library is numpy-only: src/qgraph imports the standard library, numpy
and its own modules, and nothing else."""

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
