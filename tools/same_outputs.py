"""Check that this checkout computes every benchmark output as a parent commit does, to the bit or within --rtol.

    python tools/same_outputs.py --parent REF [--seeds 1 4 7] [--rtol R]

The parent is `git archive REF`, exported as tools/bench_pairs.py exports
it; the change is this checkout's working tree.  On each side one
subprocess, run in that tree with its own qgraph and perfbench, builds
every perfbench workload at each seed and runs its warm-up and then its
operations, and prints the SHA-256 of `pickle.dumps(result, protocol=4)`
for each (an operation that raises is digested as its error message).
The tool prints every operation's digest, and exits 1 after listing
every operation whose digests differ, or that one side lacks.

With --rtol R a changed digest may stand for float changes of at most R:
each side also pickles every result as plain data (`plain`: a dataclass
or other object as its class name and fields, arrays as nested lists),
and for each operation whose digests differ the tool walks both results
(`changes`) and prints the largest |a - b| / max(|a|, 1) over their float
leaves.  It exits 1 on any other difference (a count, a multiplicity, a
length, a string, a missing operation) or on a float change above R.
Only the standard library is used here.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

from bench_pairs import ROOT, exported

TOOLS = Path(__file__).resolve().parent
# one BLAS thread, as perfbench/run.py sets it
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def plain(obj):
    """obj as plain data that unpickles without qgraph or numpy: a
    dataclass, or an object with a __dict__ or __slots__, as (class name,
    {field: value}), a tuple or list as a list, an array or numpy scalar
    as its `tolist()`, a dict by its values; anything else as it is."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return type(obj).__name__, {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (tuple, list)):
        return [plain(x) for x in obj]
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if hasattr(obj, "tolist"):
        return plain(obj.tolist())
    if hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        names = getattr(obj, "__slots__", None) or vars(obj)
        return type(obj).__name__, {name: plain(getattr(obj, name)) for name in names}
    return obj


def changes(a, b, path: str = "") -> tuple[float, list[str]]:
    """The largest |x - y| / max(|x|, 1) over the float leaves x, y of two
    plain results, and where they differ otherwise: in a type, a length,
    a key or a leaf that is no float (an int, a bool, a string, None)."""
    if type(a) is not type(b):
        return 0.0, [f"{path or 'result'}: {type(a).__name__} against {type(b).__name__}"]
    if isinstance(a, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, []
        return abs(a - b) / max(abs(a), 1.0), []
    if isinstance(a, (list, tuple, dict)):
        if isinstance(a, dict) and a.keys() != b.keys():
            return 0.0, [f"{path or 'result'}: keys {sorted(a)} against {sorted(b)}"]
        if len(a) != len(b):
            return 0.0, [f"{path or 'result'}: {len(a)} items against {len(b)}"]
        keys = list(a) if isinstance(a, dict) else range(len(a))
        worst, other = 0.0, []
        for key in keys:
            w, o = changes(a[key], b[key], f"{path}[{key!r}]")
            worst, other = max(worst, w), other + o
        return worst, other
    return 0.0, [] if a == b else [f"{path or 'result'}: {a!r} against {b!r}"]


def digests(seeds: list[int], dump: str | None = None) -> None:
    """Print `workload seed index digest label` for every operation, the
    warm-up at index 0, of each workload at each seed, with the qgraph and
    perfbench of the tree that is the working directory; where dump is a
    directory, pickle each result there as `plain` data too, in
    `workload-seed-index.pkl`."""
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
                if dump is not None:
                    Path(dump, f"{workload}-{seed}-{i}.pkl").write_bytes(pickle.dumps(plain(result), protocol=4))
                print(workload, seed, i, digest, op.label, flush=True)


def side(root: Path, seeds: list[int], dump: str | None = None) -> tuple[dict, dict]:
    """The digests of one tree's operations and their labels, both keyed by
    (workload, seed, index), with the results pickled into dump where it
    is given (`digests`); exits the tool with status 1 if the run fails."""
    code = (f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import same_outputs; "
            f"same_outputs.digests({seeds!r}, {dump!r})")
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
    p.add_argument("--rtol", type=float, help="let a changed digest stand for float changes of at most this")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as parent_dump, tempfile.TemporaryDirectory() as change_dump:
        dumps = (parent_dump, change_dump) if args.rtol is not None else (None, None)
        with exported(args.parent) as parent_root:
            parent, labels = side(parent_root, args.seeds, dumps[0])
        change, change_labels = side(ROOT, args.seeds, dumps[1])
        labels.update(change_labels)
        bad = differing(parent, change)
        for key in sorted(parent.keys() | change.keys()):
            got = change.get(key, "missing")
            verdict = "same" if key not in bad else f"DIFFERS, parent {parent.get(key, 'missing')}"
            print(*key, got, verdict, labels[key])
        print(f"{len(parent.keys() | change.keys())} operations at seeds {args.seeds}, parent {args.parent}: "
              f"{len(bad)} differ")
        failed = bool(bad) and args.rtol is None
        worst = 0.0
        for key in bad:
            print("  differs:", *key, labels[key])
            if args.rtol is None:
                continue
            if key not in parent or key not in change:
                failed = True
                continue
            name = "{}-{}-{}.pkl".format(*key)
            w, other = changes(*(pickle.loads(Path(d, name).read_bytes()) for d in dumps))
            worst = max(worst, w)
            failed |= bool(other) or w > args.rtol
            print(f"    largest float change {w:.3g}")
            for o in other[:5]:
                print("    not a float change:", o)
    if args.rtol is not None:
        print(f"largest float change {worst:.3g} against --rtol {args.rtol:g}:", "FAIL" if failed else "pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
