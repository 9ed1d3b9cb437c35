"""Smoke test of the benchmark, kept out of Tier-1: `pytest -m bench`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload, trace):
    """The result object of a 5-second run of `workload` at seed 0."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    return result


# the smallest workload; the only model-only one, with a sampled contrast
# batch; and the only one that runs the grouped kNN pre-filter (n >= 1024)
# and the full-graph contrast
@pytest.mark.bench
@pytest.mark.parametrize("workload", ["adapt-long-n300", "sparse-n20k", "adapt-full-n3000"])
def test_workload_runs_and_matches_reference(workload):
    run_workload(workload, 0)


# the tracer reads `Tape.nodes` before every `backward`: a traced run keeps
# that coupling to the tape checked
@pytest.mark.bench
def test_traced_run_reports_the_tape():
    metrics = run_workload("adapt-long-n300", 1)["metrics"]
    assert metrics["numerics.tape.nodes"]["value"] > 0
