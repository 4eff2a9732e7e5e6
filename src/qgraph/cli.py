"""Command-line entry point: spectra, optimization, dispersion, verification.

Numeric output is printed with 12 significant digits and a '.' decimal
separator; identical inputs (including --seed) give byte-identical
output, so emitted files can serve as golden data.

Each command imports the modules it runs, so `spectrum` and
`eigenfunction` load neither the optimizer nor the delta sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import InvalidInputError, QGraphError
from .graph import graph_to_dict, load_graph, metric
from .spectral import eigenfunction, eigenvalues, spectral_gap


def fmt(x: float) -> str:
    return format(float(x), ".12g")


def _load_metric(path):
    return metric(*load_graph(path))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write output file {out_path}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_spectrum(args) -> int:
    m = _load_metric(args.graph)
    spec = eigenvalues(m, args.kmax)
    lines = ["n,k,multiplicity"]
    for n, pair in enumerate(spec.eigenpairs):
        lines.append(f"{n},{fmt(pair.k)},{pair.multiplicity}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eigenfunction(args) -> int:
    if args.grid < 1:
        raise InvalidInputError(f"--grid must be at least 1, not {args.grid}")
    m = _load_metric(args.graph)
    if args.k is not None:
        k = args.k
    else:
        k, _ = spectral_gap(m)
    basis = eigenfunction(m, k)
    f = basis[0]
    lines = ["edge,x,f"]
    for e in range(m.graph.edge_count):
        xs = np.linspace(0.0, float(m.lengths[e]), args.grid)
        vals = f.at(e, xs)[0]
        for x, v in zip(xs, vals):
            lines.append(f"{e},{fmt(x)},{fmt(v)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_optimize(args) -> int:
    from .optimize import MaximizeOptions, maximize_gap

    g, lengths, _ = load_graph(args.graph)
    res = maximize_gap(g, lengths, MaximizeOptions(seed=args.seed))
    _emit(json.dumps(res.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_infimum(args) -> int:
    from .optimize import infimize_gap

    g, _, _ = load_graph(args.graph)
    res = infimize_gap(g)
    _emit(json.dumps(res.to_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_dispersion(args) -> int:
    from .dispersion import dispersion_curve

    m = _load_metric(args.graph)
    curve = dispersion_curve(m, args.vertex, grid_size=args.grid, k_max=args.kmax)
    n_levels = 6
    lines = ["theta," + ",".join(f"k{i}" for i in range(n_levels))]
    for theta, levels in zip(curve.thetas, curve.levels):
        # a row with fewer levels leaves the missing ones empty, so every row has every field
        row = [fmt(theta)] + [fmt(k) for k in levels[:n_levels]] + [""] * (n_levels - len(levels))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_sgp(args) -> int:
    from .dispersion import spectral_gap_parameter

    m = _load_metric(args.graph)
    rep = spectral_gap_parameter(m, args.vertex)
    doc = {
        "vertex": rep.vertex,
        "theta_sg": rep.theta_sg,
        "classification": rep.classification,
        "k1": rep.k1,
        "k1_multiplicity": rep.k1_multiplicity,
        "dirichlet_k0": rep.dirichlet_k0,
        "dirichlet_multiplicity": rep.dirichlet_multiplicity,
        "k1_is_flat_band": rep.k1_is_flat_band,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_glue(args) -> int:
    from .dispersion import glue

    m1 = _load_metric(args.graph)
    m2 = _load_metric(args.graph2)
    L = args.length
    if L is None:
        k1a, _ = spectral_gap(m1)
        k1b, _ = spectral_gap(m2)
        L = k1a / (k1a + k1b)
    glued = glue(m1, args.vertex, m2, args.vertex2, L)
    doc = graph_to_dict(
        glued.graph,
        lengths=None,
        conditions=glued.conditions,
    )
    doc["lengths"] = [float(x) for x in glued.lengths]
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def cmd_catalog(args) -> int:
    from .optimize import full_catalog

    lines = ["family,params,gap_closed_form,gap_computed,multiplicity_computed"]
    for entry in full_catalog():
        m = metric(entry.graph, entry.lengths)
        k1, mult = spectral_gap(m)
        lines.append(
            f"{entry.family},{'/'.join(str(p) for p in entry.params)},"
            f"{fmt(entry.gap)},{fmt(k1)},{mult}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed)
    lines = []
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        lines.append(f"{res.name} {status} ({res.seconds:.1f}s) {res.summary}")
        if not res.passed:
            for detail in res.details:
                lines.append(f"    {detail}")
    lines.append("verification " + ("PASSED" if all_ok else "FAILED"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraph",
        description="Metric graph spectra and spectral-gap optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to this path instead of stdout")
        return p

    p = add("spectrum", cmd_spectrum, help="eigenvalues up to kmax as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--kmax", type=float, default=6.0)

    p = add("eigenfunction", cmd_eigenfunction, help="sampled eigenfunction as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=float, help="eigenvalue (default: the spectral gap)")
    p.add_argument("--grid", type=int, default=64, help="samples per edge")

    p = add("optimize", cmd_optimize, help="maximize the spectral gap over edge lengths")
    p.add_argument("--graph", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("infimum", cmd_infimum, help="construct the infimizing length assignment")
    p.add_argument("--graph", required=True)

    p = add("dispersion", cmd_dispersion, help="delta-sweep eigenvalue curves as CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--kmax", type=float, default=None)

    p = add("sgp", cmd_sgp, help="spectral gap parameter report as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--vertex", type=int, default=0)

    p = add("glue", cmd_glue, help="glue two graphs at marked vertices")
    p.add_argument("--graph", required=True)
    p.add_argument("--graph2", required=True)
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--vertex2", type=int, default=0)
    p.add_argument("--length", type=float, default=None,
                   help="scale of the first graph (default: the optimal split)")

    p = add("verify", cmd_verify, help="run acceptance criteria; exit 1 on failure")
    p.add_argument("--suite", default="all",
                   help="all, catalog, or a criterion id like A7")
    p.add_argument("--seed", type=int, default=0)

    add("catalog", cmd_catalog, help="closed-form gaps vs computed values as CSV")

    return parser


def main(argv=None) -> int:
    """Run one command; exit code 0 on success, 1 when `verify` fails, 2 on bad input."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QGraphError as exc:
        print(f"qgraph: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
