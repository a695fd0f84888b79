"""Smoke run of the benchmark: every report field and RunReport attribute
it reads must still be there, and its outputs must match its reference."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["chain-full", "raw-threads", "disk-baseline"])
def test_workload_runs_correct(workload):
    pytest.importorskip("scipy")  # the benchmark imports it
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0.01"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), last
