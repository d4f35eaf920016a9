"""The checked-in benchmark still runs: one smoke case per gated workload, untraced
and traced, so that a renamed function the tracer wraps shows up in tier-1."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["survey3", "adversary3"])
def test_benchmark_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert "missing hook" not in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
