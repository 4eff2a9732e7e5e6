"""Count the lines of each module of a package as code, docstring, comment and blank.

    python tools/code_lines.py [package directory, default src/qgraph] [--parent REF]

A docstring line is a line of a module, class or function docstring (found
with `ast`).  A comment line holds a comment and nothing else, and a blank
line nothing at all (found with `tokenize`).  Every other line is code,
a line with code and a trailing comment, or inside a multi-line string
that is not a docstring, included.

With --parent REF the tool instead compares code lines with git ref REF,
exported as tools/bench_pairs.py exports it: it prints each module's code
lines, parent -> change (0 where a side lacks the module), and the total
delta.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

from bench_pairs import ROOT, exported

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


def counts(root: pathlib.Path) -> dict[str, dict[str, int]]:
    """Each module's line counts, keyed by its path below root."""
    return {path.relative_to(root).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def delta_table(parent: dict[str, int], change: dict[str, int]) -> list[str]:
    """Each module's code lines, parent -> change, and the total delta;
    a module one side lacks has 0 lines there."""
    names = sorted(parent.keys() | change.keys())
    rows = [(name, parent.get(name, 0), change.get(name, 0)) for name in names]
    rows.append(("total", sum(parent.values()), sum(change.values())))
    width = max(len(name) for name, _, _ in rows)
    out = [f"{'module':<{width}}  {'parent':>9}  {'change':>9}  {'delta':>9}"]
    out += [f"{name:<{width}}  {p:>9}  {c:>9}  {c - p:>+9}" for name, p, c in rows]
    return out


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("package", nargs="?", default="src/qgraph")
    p.add_argument("--parent", help="git ref to compare code lines with")
    args = p.parse_args(argv)
    root = pathlib.Path(args.package)
    rows = counts(root)
    if args.parent is not None:
        with exported(args.parent) as parent_root:
            parent = counts(parent_root / root.resolve().relative_to(ROOT))
        code = [{name: row["code"] for name, row in side.items()} for side in (parent, rows)]
        print(*delta_table(*code), sep="\n")
        return 0
    total = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    width = max(len(name) for name in [*rows, "total"])
    print(f"{'module':<{width}}  " + "  ".join(f"{kind:>9}" for kind in KINDS) + f"  {'lines':>9}")
    for name, row in [*rows.items(), ("total", total)]:
        print(f"{name:<{width}}  " + "  ".join(f"{row[kind]:>9}" for kind in KINDS) + f"  {sum(row.values()):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
