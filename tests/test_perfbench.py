"""The benchmark's self-test runs against the library in this checkout, so
a change that breaks a workload (say, by deleting a name it imports) fails
here as well as in the benchmark."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_self_test_passes():
    result = subprocess.run(
        [sys.executable, str(RUN), "--self-test"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "derive-verify: perturbed=True error_rate 1.0" in result.stdout


@pytest.mark.parametrize("workload", ["gf-deep", "rational-padded", "derive-verify"])
def test_traced_run_passes(workload):
    """A short traced run: the per-layer probes call into the library too,
    and the self-test never runs them."""
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seconds", "0.2", "--trace", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["failed"] == 0
