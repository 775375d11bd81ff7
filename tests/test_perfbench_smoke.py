"""Smoke run of the benchmark: every workload, small and traced.

The traced run wraps library functions by name and checks the
caller>callee edges listed in perfbench/spec.json, so a renamed or
rerouted function fails here. It also fails when the layer self times
cover less than `trace_min_coverage` (0.9) of the traced wall time, and
that check depends on timing: the benchmark's own work inside the traced
window but outside every span (output checks, artifact rewrites, tree
diffs) counts against it, so a library change that shrinks the traced
work alone can push a small run below the limit.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["fit-kshot", "eval-bigbag", "cli-pipeline"])
def test_workload_runs_clean(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
