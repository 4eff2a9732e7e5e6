"""Fixed-work benchmark of qgraph: gap scaling, gap maximization and theta sweeps.

    python3 perfbench/run.py --workload gap_scaling --seed 1 --seconds 25 --trace 0

Runs one workload in this process, closed loop: one caller, each operation
started after the previous one returned.  Every run executes the same
seeded list of operations to its end; --seconds sets how many whole
rounds of that list run (one round per ROUND_SECONDS, at least one), not a
time budget.  One untimed warm-up operation comes first, and each
operation's output is checked outside the timed section by perfbench's
own checks, which share no code with qgraph.

Times are corrected for the machine's speed with the reference computation
of reference.py; raw wall times are kept in the detail file.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 the public functions of qgraph's layers
are wrapped in timed spans and the result carries the per-layer metrics
(the traced end-to-end figures are printed on the line before it).
Details of every run go to perfbench/out/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads: with the pool's default of
# min(4, nproc) threads the process then never runs more threads than cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# qgraph as shipped: the pool size comes from its own default
os.environ.pop("QGRAPH_THREADS", None)

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_SECONDS = 25
SETUP_SAMPLES = 9
WORKLOADS = ("gap_scaling", "maximize", "theta_sweep")


def _setup(workload: str, seed: int):
    """Import qgraph and build the workload's inputs.

    Returns the wall seconds this took, the reference time measured right
    after it, and the warm-up and timed operations.
    """
    t0 = time.perf_counter()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    warmup, ops = workloads.build(workload, seed)
    seconds = time.perf_counter() - t0
    from reference import Reference

    reference = Reference()
    reference.ms()
    return seconds, reference.ms(), warmup, ops


def _setup_sample(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, reference ms) of a fresh interpreter in --setup-only mode."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, ref_ms = proc.stdout.split()
    return float(seconds), float(ref_ms)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(setup_s: list[float], op_ms: list[float], completed: int) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup_s), "s"),
        "ops_per_s": _metric(completed / (sum(op_ms) / 1e3), "1/s"),
        "op_ms.p50": _metric(statistics.median(op_ms), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=ROUND_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qgraph" / "__init__.py").is_file():
        print(f"qgraph sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup_s, setup_ref_ms, warmup, ops = _setup(args.workload, args.seed)
    import qgraph
    from reference import REFERENCE_MS, Reference

    if Path(qgraph.__file__).resolve().parent != ROOT / "src" / "qgraph":
        print(f"imported qgraph from {qgraph.__file__}, not from this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s), repr(setup_ref_ms))
        return 0

    setup_samples = [(setup_s, setup_ref_ms)] + [_setup_sample(args.workload, args.seed)
                                                 for _ in range(SETUP_SAMPLES - 1)]

    warm_problems = warmup.check(warmup.run())
    if warm_problems:
        print(f"warm-up {warmup.label} failed its check: {warm_problems}", file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    reference = Reference()

    def speed_sample() -> float:
        # the faster of two passes: a single pass right after a pool
        # operation now and then reads 1.5-2x slow
        return min(reference.ms(), reference.ms())

    ref_before = speed_sample()
    rounds = max(1, round(args.seconds / ROUND_SECONDS))
    records = []
    for _ in range(rounds):
        for op in ops:
            before = tracer.totals.snapshot() if tracer else None
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a raising operation is a failed operation
                result, error = None, f"{type(exc).__name__}: {exc}"
            elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            ref_after = speed_sample()
            ref_ms = 0.5 * (ref_before + ref_after)
            problems = [error] if error else op.check(result)
            record = {"op": op.label, "ms": 1e3 * elapsed, "cpu_ms": 1e3 * cpu,
                      "ref_ms": [ref_before, ref_after],
                      "corrected_ms": 1e3 * elapsed * REFERENCE_MS / ref_ms,
                      "problems": problems, "raised": error is not None,
                      "known_fault": op.known_fault}
            if tracer:
                record["layers"] = _layer_delta(before, tracer.totals.snapshot())
            records.append(record)
            ref_before = ref_after
            status = "ok" if not problems else ("FAILED (known fault)" if op.known_fault
                                               else "FAILED")
            print(f"{args.workload} {op.label}: {1e3 * elapsed:.1f} ms {status}"
                  + (f" {problems}" if problems else ""), file=sys.stderr)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    correct = all(not r["problems"] for r in records if r["known_fault"] is None)
    completed = sum(1 for r in records if not r["raised"])
    end_to_end = _end_to_end([s * REFERENCE_MS / ref for s, ref in setup_samples],
                             [r["corrected_ms"] for r in records], completed)
    raw_end_to_end = _end_to_end([s for s, _ in setup_samples], [r["ms"] for r in records],
                                 completed)
    if tracer:
        import layers

        maximize_ops = attempted if args.workload == "maximize" else 0
        per_layer = layers.layer_metrics(tracer.totals.snapshot(), maximize_ops)
        metrics = {name: _metric(value, unit) for name, (value, unit) in per_layer.items()}
        print(json.dumps({"traced_end_to_end": end_to_end}))
    else:
        metrics = end_to_end

    OUT.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "setup_samples": setup_samples, "end_to_end": end_to_end,
              "raw_end_to_end": raw_end_to_end, "metrics": metrics, "operations": records}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_delta(before: dict, after: dict) -> dict:
    """Per-layer calls and milliseconds spent by one operation."""
    out = {}
    for name, calls in after["calls"].items():
        n = calls - before["calls"].get(name, 0)
        if n:
            out[name] = {"calls": n, "ms": after["ms"][name] - before["ms"].get(name, 0.0),
                         "self_ms": after["self_ms"][name] - before["self_ms"].get(name, 0.0)}
    return out


if __name__ == "__main__":
    sys.exit(main())
