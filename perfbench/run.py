#!/usr/bin/env python3
"""Benchmark of the eSLAM reproduction: one workload, one seed, one result.

Run from the repository root:

    python3 perfbench/run.py --workload slam-desk-vga --seed 1 --seconds 15 --trace 0

Renders the workload's inputs from ``--seed`` (untimed), sets the program
up, measures it for about ``--seconds`` seconds, checks its outputs, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer ones, measured in a separate
traced run that also reports the share of frame time no layer accounts
for and the tracing overhead.  A line before the result holds the report
context: host fingerprint, sequence length and the modelled Table 2
stage times.  Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Threading knobs of the BLAS/OpenMP runtimes numpy may load.  Set to 1
#: before numpy is imported (workers inherit them): multi-threaded BLAS on a
#: small host makes timings swing far more than any change under test.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def _workloads():
    """Workload name -> (runner, parameters); imports the program."""
    import cluster_workload
    import slam_workload

    return {
        "slam-desk-vga": (
            slam_workload.run,
            slam_workload.SlamWorkload("fr1/desk", 24, 640, 480),
        ),
        "slam-xyz-qvga": (
            slam_workload.run,
            slam_workload.SlamWorkload("fr1/xyz", 40, 320, 240),
        ),
        "extract-vga-cluster": (
            cluster_workload.run,
            cluster_workload.ClusterWorkload("fr1/desk", 24, 640, 480, num_workers=2),
        ),
    }


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing.shared_memory`` starts, and
    wait for it.

    Left alone, the resource tracker outlives the benchmark by a moment
    while it sweeps up after it.  It stops once every holder of its pipe
    has closed it; the server has joined its workers by now, so closing
    this process's end is the last one.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()  # no-op when none was started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)

    from context import host_fingerprint

    workloads = _workloads()
    if args.workload not in workloads:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"available: {', '.join(workloads)}",
            file=sys.stderr,
        )
        return 2
    run, workload = workloads[args.workload]
    try:
        correct, attempted, failed, values, report = run(
            workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        _stop_resource_tracker()

    section = "per_layer" if args.trace else "end_to_end"
    declared = {item["name"]: item["unit"] for item in spec[section]}
    if set(values) - set(declared):
        raise RuntimeError(f"undeclared metrics: {sorted(set(values) - set(declared))}")
    if not args.trace and set(declared) - set(values):
        raise RuntimeError(f"unmeasured metrics: {sorted(set(declared) - set(values))}")
    # a layer that does no work on this workload reads 0
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        host=host_fingerprint(BLAS_THREAD_VARIABLES),
    )
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
