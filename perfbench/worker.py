"""One workload in one fresh process; started by perfbench/run.py.

Usage (normally only through run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --t0 MONOTONIC [--setup-only] [--small]

Prints one JSON object as the last line of standard output.  ``setup_s``
is measured from ``--t0``, the parent's CLOCK_MONOTONIC reading taken just
before it started this process, so interpreter start-up and imports count.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKDIR = ROOT / ".perfbench_work"


def trace_problems(tracer, layers: dict, spec: dict, workload: str) -> list[str]:
    """Signs of a missing wrapper: the layer self times must cover most of
    the traced wall time (and cannot exceed it), and every caller -> callee
    edge listed for the workload in spec.json must have been seen."""
    problems = []
    self_ms = sum(v for k, (v, _) in layers.items() if k.endswith(".self_ms"))
    wall_ms = layers["trace.wall_ms"][0]
    low = spec["trace_min_coverage"]
    if not low * wall_ms <= self_ms <= wall_ms * (1 + 1e-9):
        problems.append(f"layer self times {self_ms:.3f} ms per unit are outside "
                        f"[{low:g}, 1] x traced wall time {wall_ms:.3f} ms")
    for edge in spec["workloads"][workload]["trace_edges"]:
        caller, callee = edge.split(">")
        if not tracer.edges.get((caller, callee)):
            problems.append(f"traced run saw no call {caller} -> {callee}")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import textmil
    if Path(textmil.__file__).resolve().parent != ROOT / "src" / "textmil":
        raise SystemExit(f"imported textmil from {textmil.__file__}, not from this checkout")
    from tracer import Tracer
    from workloads import WORKLOADS

    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    WORKDIR.mkdir(exist_ok=True)
    small = spec["small"] if args.small else None
    wl = WORKLOADS[args.workload](spec["workloads"][args.workload], args.seed, small, WORKDIR)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    min_units = spec["min_units"]
    tracer = Tracer() if args.trace else None
    untraced_units = traced_units = 0
    traced_s = 0.0
    error = None
    start = time.perf_counter()
    try:
        if tracer is None:
            while len(wl.unit_s) < min_units or time.perf_counter() - start < args.seconds:
                wl.run_unit(None)
                if wl.failures:
                    break
        else:
            # first half untraced, second half traced; the difference
            # between the two is the tracing overhead
            while untraced_units < 1 or time.perf_counter() - start < args.seconds / 2:
                wl.run_unit(None)
                untraced_units += 1
            tracer.install()
            try:
                t_traced = time.perf_counter()
                while traced_units < 1 or time.perf_counter() - start < args.seconds:
                    wl.run_unit(tracer)
                    traced_units += 1
                traced_s = time.perf_counter() - t_traced
            finally:
                tracer.uninstall()
    except Exception:  # a failed operation is counted and reported, not fatal
        error = traceback.format_exc()
        print(error, file=sys.stderr)
    finally:
        wl.close()

    failures = list(wl.failures) + ([error.strip().splitlines()[-1]] if error else [])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "attempted": max(wl.attempted, 1),
        "failed": len(failures),
        "failures": failures,
        "units": len(wl.unit_s),
        "measure_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if not error:
        out["metrics"] = wl.metrics()
        out["details"] = wl.details()
    if tracer is not None and not error:
        layers = tracer.per_layer(traced_units, traced_s)
        overhead = (statistics.median(wl.unit_s[untraced_units:])
                    / statistics.median(wl.unit_s[:untraced_units]) - 1.0)
        layers["trace.overhead_share"] = (overhead, "share")
        out["per_layer"] = layers
        out["traced_units"] = traced_units
        out["failures"] += trace_problems(tracer, layers, spec, args.workload)
        out["failed"] = len(out["failures"])
        tracer.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json.gz",
                    {"workload": args.workload, "seed": args.seed,
                     "traced_units": traced_units, "untraced_units": untraced_units})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
