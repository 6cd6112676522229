"""The benchmark's self-test runs against the library in this checkout, so
a change that breaks a workload (say, by deleting a name it imports) fails
here as well as in the benchmark."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def test_self_test_passes():
    result = subprocess.run(
        [sys.executable, str(RUN), "--self-test"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "derive-verify: perturbed=True error_rate 1.0" in result.stdout
