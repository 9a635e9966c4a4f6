"""Benchmark of `actsched run`, `verify` and `sweep`, from the root of a checkout.

    python3 perfbench/run.py --workload fixed-audited --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the same checkout. One workload runs
in one single-threaded process; ``--workload all`` runs each workload in its
own process, one after the other, and prints a table. The last line of a
single-workload run is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One thread per process, for the numeric libraries too; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS_DIR = HERE / "_runs"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args) -> int:
    import workloads
    from tracing import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workdir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    try:
        out = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS_DIR.rmdir()  # only when no other run is using it

    e2e = workloads.end_to_end(out)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(out.wall_s)}  trace {args.trace}")
    print(f"operations: attempted {out.attempted}, failed {out.failed} {out.failed_by_kind}")
    print("raw seconds per round (not normalised): " + " ".join(f"{t:.3f}" for t in out.wall_s))
    if out.verify_problem_kinds:
        print(f"verify problems by kind: {out.verify_problem_kinds}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:12.6f} {unit}")
    if out.makespan_ratios:
        ratios, breaks = out.makespan_ratios, out.step_breaks
        print(f"integer makespan / L mean {statistics.fmean(ratios):.3f}, max {max(ratios):.3f}; "
              f"runs with steps above delta_phi 2/n: {sum(b > 0 for b in breaks)} of {len(breaks)}")
    for name, values in out.sweep_quality.items():
        print(f"{name} over the rows: mean {sum(values) / len(values):.3f}, max {max(values):.3f}")
    for problem in out.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for error in out.errors[:20]:
        print(f"operation failed: {error}", file=sys.stderr)
    if args.trace:
        layers = workloads.per_layer(out)
        wall = statistics.fmean(out.wall_s)
        print(f"self time per round, share of the mean traced round ({wall:.4f} s):")
        spans = sorted(out.self_times[0], key=lambda k: -sum(r.get(k, 0.0) for r in out.self_times))
        for prefix in spans:
            seconds = sum(r.get(prefix, 0.0) for r in out.self_times) / len(out.self_times)
            print(f"  {prefix:<32} {seconds:10.4f} s {100 * seconds / wall:6.1f} %")
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<36} {layers[name]:14.6f} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    import workloads

    status = 0
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status = status or (0 if result["correct"] else 1)
        rows.append((name, result))
    print()
    for name, result in rows:
        figures = "  ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        print(f"{name:<15} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}  {figures}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "actsched" / "__init__.py").is_file():
        print(f"no actsched package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
