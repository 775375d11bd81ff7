"""Fast self-test of the benchmark harness (about half a minute).

    python3 perfbench/selftest.py

Runs every workload at reduced sizes (``--small``), untraced and traced,
and checks that:

* the last line is a JSON object with exactly the keys correct, attempted,
  failed and metrics, with correct=true and failed=0;
* every metric of BENCHMARK.json is emitted with its unit, and the table
  before it names each metric with its unit and direction;
* on the traced run the per-layer self times sum to no more than the
  traced wall time, and to at least ``trace_min_coverage`` of it (the
  traced worker also fails if an expected caller -> callee edge is missing);
* in a directory holding only BENCHMARK.json and perfbench/, the command
  exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace), "--small"],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_run(bench: dict, spec: dict, workload: str, trace: int) -> list[str]:
    problems = []
    where = f"{workload} trace={trace}"
    code, lines = run(ROOT, workload, trace)
    if code != 0 or not lines:
        return [f"{where}: exit code {code}"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"failed={result.get('failed')} attempted={result.get('attempted')}")
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append(f"{where}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    table = {line.split()[0]: line.split() for line in lines[:-1]
             if line.startswith("  ") and len(line.split()) >= 5}
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} emitted as {got}, declared unit {m['unit']}")
        row = table.get(m["name"])
        if row is None or row[2] != m["unit"] or row[3] != m["better"]:
            problems.append(f"{where}: table row for {m['name']} is {row}")
    if trace and metrics:
        self_ms = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_ms"))
        wall_ms = metrics["trace.wall_ms"]["value"]
        if not spec["trace_min_coverage"] * wall_ms <= self_ms <= wall_ms:
            problems.append(f"{where}: layer self times {self_ms} ms vs wall {wall_ms} ms")
    return problems


def check_bare_directory() -> list[str]:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, "fit-kshot", 0)
    finally:
        shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        return [f"bare directory: exit code {code}, output {lines[-1:]}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems += check_run(bench, spec, workload, trace)
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
