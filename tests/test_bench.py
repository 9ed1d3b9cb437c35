"""Smoke test of the benchmark, kept out of Tier-1: `pytest -m bench`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.bench
def test_smallest_workload_runs_and_matches_reference():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt-long-n300",
         "--seed", "0", "--seconds", "5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
