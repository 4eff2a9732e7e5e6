"""Run alternated pairs of the benchmark on a parent commit and on this checkout, and compare them.

    python tools/bench_pairs.py --parent REF --workload NAME [--pairs 10] [--seconds 25] [--seed 1]

The parent is `git archive REF`, exported into a temporary directory; the
change is this checkout's working tree.  Pair i runs the command of
BENCHMARK.json on both with seed `--seed` + i, and the side that runs
first alternates from pair to pair.  For each end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, the pairs the
change won (the direction is the metric's `better`; a tie counts for
neither side), and whether a gain may be claimed: the change wins at
least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.  The
exit status is 1 when any run fails, reports a failed operation or an
incorrect output; only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def exported(ref: str) -> Iterator[Path]:
    """The tree of git ref `ref` of this repository, `git archive`d into a
    temporary directory that is removed on exit."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as `statistics.quantiles`
    (n=4, exclusive) gives them; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """One metric's pairs, parent[i] against change[i]: each side's
    quartiles, the pairs the change won, and whether the gain rule holds."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p1, p_median, p3 = quartiles(parent)
    c1, c_median, c3 = quartiles(change)
    gain = sign * (c_median - p_median)
    return {"parent": (p1, p_median, p3), "change": (c1, c_median, c3), "wins": wins, "pairs": len(parent),
            "gain_holds": 10 * wins >= 9 * len(parent) and gain > p3 - p1}


def run(root: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one benchmark run in root, parsed; exits the
    tool with status 1 on a failed run, operation or check."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or result.get("correct") is not True or result.get("failed") != 0:
        sys.exit(f"{root} seed {seed}: exit {proc.returncode}: {lines[-1:] or proc.stderr[-500:]}")
    return result["metrics"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, dict[str, list[float]]] = {m["name"]: {"parent": [], "change": []}
                                                 for m in spec["end_to_end"]}
    with exported(args.parent) as parent:
        sides = {"parent": parent, "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                metrics = run(sides[side], spec["command"], args.workload, args.seed + i, seconds)
                for name in values:
                    values[name][side].append(metrics[name]["value"])
            print(f"pair {i + 1} (seed {args.seed + i}, {order[0]} first): "
                  + " ".join(f"{name} {v['parent'][-1]:.6g} -> {v['change'][-1]:.6g}" for name, v in values.items()),
                  flush=True)
    print(f"{args.workload}, {args.pairs} pairs, parent {args.parent}: median [quartiles]")
    for m in spec["end_to_end"]:
        r = compare(values[m["name"]]["parent"], values[m["name"]]["change"], m["better"])
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        print(f"  {m['name']:12s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
              f"  {cm / pm - 1.0:+.1%}  change won {r['wins']}/{r['pairs']} ({m['better']} is better)"
              f"  gain rule {'holds' if r['gain_holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
