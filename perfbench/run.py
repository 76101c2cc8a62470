#!/usr/bin/env python3
"""Benchmark of the incomedist package: one closed-loop workload per run.

    python3 perfbench/run.py --workload survey-cli --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`
(pure Python, nothing to build).  Informational lines go to stdout first; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
from wrapped package functions with `--trace 1`.  Generated inputs live in
`perfbench/work/` and are deleted at exit; a traced run leaves its spans
there as `trace-<workload>-<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# set-up interpreters per run, half before and half after the timed rounds
SETUP_REPEATS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import incomedist; "
              "incomedist.preset_params('2008')")


def setup_seconds(times: list) -> None:
    """Fresh interpreter to a ready program: import plus the first preset, wall time."""
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], check=True)
        times.append(time.perf_counter() - t0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "incomedist", "__init__.py")):
        print("error: run from the root of an incomedist checkout (no src/incomedist)", file=sys.stderr)
        return 2
    # One BLAS thread: OpenBLAS helpers spin between the package's large dot
    # products and take the second core from the measured thread and from
    # the set-up interpreters.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.abspath("src"), here]
    import workloads  # noqa: E402 - needs the paths above
    import tracer as tracing  # noqa: E402
    from speed import Speed  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    setup_times: list[float] = []
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    work_root = os.path.join(here, "work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    workload, probe_kind = workloads.WORKLOADS[args.workload]
    speed = Speed(probe_kind)
    run = workloads.Run(args.seconds, lambda msg: print(msg, flush=True), speed)
    if tracer is not None:
        run.on_rounds = tracer.reset_quad_calls
    else:
        run.on_rounds = lambda: setup_seconds(setup_times)
    try:
        figures = workload(run, args.seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()
    if tracer is None:
        setup_seconds(setup_times)

    for name, (value, unit) in figures.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} rounds {len(run.rounds)}, wall {run.timed:.3f} s, median wall round "
          f"{statistics.median(run.rounds_raw):.6g} s, median probe "
          f"{1e3 * statistics.median(speed.probes):.4g} ms ({probe_kind})"
          + (f", median wall set-up {statistics.median(setup_times):.4g} s" if setup_times else ""))
    if tracer is None:
        metrics = {
            # wall time, unscaled: neither probe tracks an interpreter's
            # imports, and scaling by them widened the spread
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
            "round_s": (statistics.median(run.rounds), "s"),
        }
    else:
        metrics = tracing.layer_metrics(tracer.spans, run.rounds_start, len(run.rounds),
                                        tracer.quad_calls)
        tracer.dump(os.path.join(work_root, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
