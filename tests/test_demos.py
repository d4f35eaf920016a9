"""The demos run to completion and print their walk-through."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(demo: str) -> str:
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


@pytest.mark.parametrize(
    "demo", ["trace_anatomy.py", "replay_divergence_loops.py", "certify_positive_algorithms.py"]
)
def test_demo_runs(demo):
    _run_demo(demo)


def test_survey_demo_finds_no_three_color_algorithm():
    lines = [line.strip() for line in _run_demo("survey_small_algorithm_space.py").splitlines()]
    # criterion 08: no three-color algorithm certifies rendezvous from all same-color starts
    assert "algorithms certifying all same-color starts: 0" in lines
    assert "algorithms with no divergence found either: 0" in lines
