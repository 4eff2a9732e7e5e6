"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workload maximize --seeds 1 2 3 4 5 [--trace 0]

Raw wall-time figures, before the speed correction, are listed as
"raw <name>".  The spread is the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median; a workload is
steady for a metric when that spread stays within the metric's bound in
BENCHMARK.json.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        detail = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace{args.trace}.json")
                            .read_text())
        for name, metric in detail["raw_end_to_end"].items():
            if name != "peak_rss_mb":
                values.setdefault(f"raw {name}", []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}"
                                          for k, v in result["metrics"].items()), flush=True)

    print(f"{args.workload}: (failed, attempted, correct) = {sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}"
        else:
            spread = "n/a"
        bound = bounds.get(name)
        print(f"  {name:34s} median {med:.6g}  spread {spread}"
              + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
