"""Check that this checkout computes every benchmark output as a parent commit does, to the bit.

    python tools/same_outputs.py --parent REF [--seeds 1 4 7]

The parent is `git archive REF`, exported as tools/bench_pairs.py exports
it; the change is this checkout's working tree.  On each side one
subprocess, run in that tree with its own qgraph and perfbench, builds
every perfbench workload at each seed and runs its warm-up and then its
operations, and prints the SHA-256 of `pickle.dumps(result, protocol=4)`
for each (an operation that raises is digested as its error message).
The tool prints every operation's digest, and exits 1 after listing
every operation whose digests differ, or that one side lacks.  Only the
standard library is used here.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, exported

TOOLS = Path(__file__).resolve().parent
# one BLAS thread, as perfbench/run.py sets it
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def digests(seeds: list[int]) -> None:
    """Print `workload seed index digest label` for every operation, the
    warm-up at index 0, of each workload at each seed, with the qgraph and
    perfbench of the tree that is the working directory."""
    src, bench = Path("src").resolve(), Path("perfbench").resolve()
    sys.path[:0] = [str(src), str(bench)]
    import workloads

    if Path(sys.modules["qgraph"].__file__).resolve().parent != src / "qgraph":
        sys.exit(f"imported qgraph from {sys.modules['qgraph'].__file__}, not from {src}")
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            warmup, ops = workloads.build(workload, seed)
            for i, op in enumerate([warmup, *ops]):
                try:
                    result = op.run()
                except Exception as exc:  # a raising operation is digested as its error
                    result = f"{type(exc).__name__}: {exc}"
                digest = hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()
                print(workload, seed, i, digest, op.label, flush=True)


def side(root: Path, seeds: list[int]) -> tuple[dict, dict]:
    """The digests of one tree's operations and their labels, both keyed by
    (workload, seed, index); exits the tool with status 1 if the run fails."""
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_outputs; same_outputs.digests({seeds!r})"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{root}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    found, labels = {}, {}
    for line in proc.stdout.splitlines():
        workload, seed, index, digest, label = line.split(" ", 4)
        key = (workload, int(seed), int(index))
        found[key], labels[key] = digest, label
    return found, labels


def differing(parent: dict, change: dict) -> list:
    """The keys, in order, whose digests differ between the two sides,
    those that one side lacks included."""
    return sorted(key for key in parent.keys() | change.keys() if parent.get(key) != change.get(key))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = p.parse_args(argv)
    with exported(args.parent) as parent_root:
        parent, labels = side(parent_root, args.seeds)
    change, change_labels = side(ROOT, args.seeds)
    labels.update(change_labels)
    bad = differing(parent, change)
    for key in sorted(parent.keys() | change.keys()):
        got = change.get(key, "missing")
        verdict = "same" if key not in bad else f"DIFFERS, parent {parent.get(key, 'missing')}"
        print(*key, got, verdict, labels[key])
    print(f"{len(parent.keys() | change.keys())} operations at seeds {args.seeds}, parent {args.parent}: "
          f"{len(bad)} differ")
    for key in bad:
        print("  differs:", *key, labels[key])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
