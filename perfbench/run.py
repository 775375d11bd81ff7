"""textmil benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload fit-kshot|eval-bigbag|cli-pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes
with BLAS/OpenMP pinned to one thread: ``setup_repeats - 1`` set-up-only
processes, then one that sets up and measures, so ``setup_s`` is a median
and ``peak_rss_mb`` belongs to one workload.  With ``--trace 0`` the last
line of standard output is a JSON object holding every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric,
taken by wrapping the library's functions from outside (perfbench/tracer.py).
The lines before it are an environment stamp and a readable table with
each metric's unit, direction and sample count.  The exit code is 0 only
when every operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# per-process time-outs, only to stop a hung worker: a set-up takes 0.2-5 s,
# and a measuring process runs --seconds plus at most one unit (up to ~30 s)
SETUP_TIMEOUT_S = 40.0
UNIT_TIMEOUT_S = 60.0

THREAD_PINS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                      "NUMEXPR_NUM_THREADS")}

# metrics printed for reading only; the gated ones are in BENCHMARK.json
DETAIL_UNITS = {
    "op_s": ("s", "lower"),
    "eval_slides_per_s": ("1/s", "higher"),
    "fit_s": ("s", "lower"),
    "fit_epochs_per_s": ("1/s", "higher"),
    "localize_slides_per_s": ("1/s", "higher"),
    "dice_mean": ("1", "higher"),
    "instances_per_slide": ("count", "none"),
    "gradcheck_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
}


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_build() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def env_stamp() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "thread_pins": THREAD_PINS,
    }


def spawn(args, extra: list[str], timeout: float) -> dict:
    """Run perfbench/worker.py in a fresh process and return its JSON line."""
    env = {**os.environ, **THREAD_PINS, "PYTHONHASHSEED": "0",
           "TMPDIR": str(ROOT / ".perfbench_work")}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(time.monotonic()), *extra]
    if args.small:
        cmd.append("--small")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def fmt_row(name, value, unit, better, n) -> str:
    return f"  {name:<42} {value:>14.6g} {unit:<12} {better:<7} n={n}"


def main() -> int:
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for perfbench/selftest.py only")
    args = ap.parse_args()

    if not (ROOT / "src" / "textmil" / "__init__.py").is_file():
        print(f"no textmil sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()

    setups, failures = [], []
    try:
        if not args.trace:
            for _ in range(spec["setup_repeats"] - 1):
                setups.append(spawn(args, ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"])
        res = spawn(args, [], SETUP_TIMEOUT_S + 2 * args.seconds + UNIT_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    failures += res["failures"]

    stamp = {**env_stamp(), "loadavg_start": load_start, "loadavg_end": os.getloadavg()}
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} units={res['units']} measured_s={res['measure_s']:.2f}")
    print("# env " + json.dumps(stamp, sort_keys=True))
    for msg in failures:
        print(f"# FAILED: {msg}")

    metrics = {}
    if "metrics" in res and not args.trace:
        values = {name: (m["value"], m["n"]) for name, m in res["metrics"].items()}
        values["setup_s"] = (statistics.median(setups), len(setups))
        values["peak_rss_mb"] = (res["peak_rss_mb"], 1)
        print("  end-to-end (gated; bounds in BENCHMARK.json)")
        for m in bench["end_to_end"]:
            value, n = values[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(fmt_row(m["name"], value, m["unit"], m["better"], n))
        print("  also reported (not gated)")
        for name, m in res["details"].items():
            unit, better = DETAIL_UNITS[name]
            extra = "".join(f" {k}={v:.6g}" for k, v in m.items() if k not in ("value", "n"))
            print(fmt_row(name, m["value"], unit, better, m["n"]) + extra)
        print(fmt_row("failed_ops", res["failed"] / res["attempted"], "share", "lower",
                      res["attempted"]))
    elif "metrics" in res:
        layers = res["per_layer"]
        print("  per layer (per traced unit unless the unit says otherwise)")
        for m in bench["per_layer"]:
            value, unit = layers[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": unit}
            print(fmt_row(m["name"], value, unit, m["better"], res["traced_units"]))

    result = {"correct": not failures and bool(metrics), "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
