#!/usr/bin/env python3
"""Run one nnops benchmark workload and print its metrics.

From the root of a checkout of the repository:

    python3 perfbench/run.py --workload error_table --seed 0 --seconds 10 --trace 0

The library is imported from the checkout's ``src/``.  The workload's timed
part runs once to warm up, then back to back until ``--seconds`` have
passed (at least once).  With ``--trace 0`` the run reports the end-to-end
metrics of BENCHMARK.json: the median set-up and pass times, both scaled to
the reference machine's speed (see calibration.py), the ``tracemalloc`` peak
of the warm-up pass, and the share of operations that passed their checks.
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, unscaled; the spans go to ``.perfbench/`` in the
checkout.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw times, the probe times and the workload's own figures (for
example the error table's deviation from the README reference).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; one takes ~20 ms and bursts of neighbours' load hit a
#: few in a row, so the median needs many
SETUPS = 31

#: metric name -> unit, as in BENCHMARK.json
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_mem_mb": "MB", "ok_ratio": "1"}
PER_LAYER = {
    **{f"{layer}.{name}": unit
       for layer in ("kernels", "operators", "quadrature", "metrics", "signals")
       for name, unit in (("self_s", "s"), ("calls", "count"))},
    "kernels.evals": "count",
    "kernels.bytes_computed": "B",
    "kernels.distinct_ratio": "1",
    "kernels.significant_ratio": "1",
    "kernels.make_kernel_s": "s",
    "operators.grid_points": "count",
    "operators.nodes_per_row": "count",
    "operators.errors": "count",
    "operators.oracle_max_abs_dev": "1",
    "quadrature.cells": "count",
    "metrics.norm_points": "count",
    "signals.samples": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _cap_threads() -> None:
    """Cap BLAS/OpenMP threads at the usable cores; numpy reads these once,
    when it loads."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def _repeat(seconds: float, one_pass) -> None:
    """Call ``one_pass`` back to back until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    one_pass()
    while time.perf_counter() - start < seconds:
        one_pass()


def main(argv=None, workloads=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "nnops" / "__init__.py").is_file():
        print(f"error: no nnops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _cap_threads()
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np  # after the thread caps

    import tracing
    from calibration import Calibration, Stopwatch
    from workloads import ORACLE_POINTS, WORKLOADS, check_op, import_nnops

    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    calibration = Calibration(np)
    setup_watch = Stopwatch(calibration, "python")
    for _ in range(SETUPS):
        gc.collect()  # the modules dropped by the last re-import
        setup_watch.resume()
        nnops = import_nnops()
        if tracer is None:
            inputs = wl.setup(nnops, args.seed)
        else:
            with tracer.span("setup", "bench"), tracing.instrumented(nnops, tracer) as api:
                inputs = wl.setup(api, args.seed)
        setup_watch.lap()
    picks = np.random.default_rng(args.seed).random((wl.ops_per_run(), ORACLE_POINTS))

    runs, walls, walls_scaled = [], [], []

    def untraced():
        watch = Stopwatch(calibration, wl.probe)
        runs.append(wl.run(nnops, inputs, picks, watch.lap))
        watch.lap()
        walls.append(sum(watch.raw))
        walls_scaled.append(sum(watch.scaled))

    def traced_pair():
        untraced()
        with tracing.instrumented(nnops, tracer) as api, tracer.span("workload", "bench"):
            runs.append(wl.run(api, inputs, picks))

    # The first pass also warms up (allocator, caches) and is never timed:
    # untraced runs take the tracemalloc peak from it.
    if tracer is None:
        tracemalloc.start()
        try:
            runs.append(wl.run(nnops, inputs, picks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _repeat(args.seconds, untraced)
    else:
        runs.append(wl.run(nnops, inputs, picks))
        _repeat(args.seconds, traced_pair)

    attempted = failed = 0
    max_dev = 0.0
    failures, workload_ok, figures = [], True, {}
    for ops in runs:
        for op in ops:
            ok, dev = check_op(op, nnops)
            attempted += 1
            failed += not ok
            max_dev = max(max_dev, dev)
            if not ok and len(failures) < 5:
                failures.append(op.label + (f": {op.error}" if op.error else ""))
        ok, figures = wl.report(ops)
        workload_ok = workload_ok and ok

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_watch.scaled),
            "wall_s": statistics.median(walls_scaled),
            "peak_mem_mb": peak / 1e6,
            "ok_ratio": 1.0 - failed / attempted,
        }
        units = END_TO_END
    else:
        values = tracer.layer_metrics()
        values["kernels.make_kernel_s"] = statistics.median(tracer.durations("make_kernel"))
        values["operators.oracle_max_abs_dev"] = max_dev
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.fmean(walls)
        units = PER_LAYER
        trace_file = ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        figures["trace_file"] = str(trace_file.relative_to(ROOT))

    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "passes": len(walls),
        "wall_s_each": walls,
        "setup_s_each": setup_watch.raw,
        "calibration_s_each": calibration.samples,
        "failures": failures,
        **figures,
    }))
    print(json.dumps({
        "correct": failed == 0 and workload_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
