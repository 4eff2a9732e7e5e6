"""Count the lines of each module of a package as code, docstring, comment and blank.

    python tools/code_lines.py [package directory, default src/qgraph]

A docstring line is a line of a module, class or function docstring (found
with `ast`).  A comment line holds a comment and nothing else, and a blank
line nothing at all (found with `tokenize`).  Every other line is code,
a line with code and a trailing comment, or inside a multi-line string
that is not a docstring, included.
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a module's tree span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docs = docstring_lines(ast.parse(source))
    comments: set[int] = set()
    code: set[int] = set()
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    out = dict.fromkeys(KINDS, 0)
    for n in range(1, len(source.splitlines()) + 1):
        kind = "docstring" if n in docs else "code" if n in code else "comment" if n in comments else "blank"
        out[kind] += 1
    return out


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else "src/qgraph")
    rows = [(path.relative_to(root).as_posix(), count(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    total = {kind: sum(row[kind] for _, row in rows) for kind in KINDS}
    width = max(len(name) for name, _ in rows + [("total", {})])
    print(f"{'module':<{width}}  " + "  ".join(f"{kind:>9}" for kind in KINDS) + f"  {'lines':>9}")
    for name, row in rows + [("total", total)]:
        print(f"{name:<{width}}  " + "  ".join(f"{row[kind]:>9}" for kind in KINDS) + f"  {sum(row.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
