import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/gap_demo.py", "--g-max", "100"],
    ["scripts/minus_two_census.py", "--g-max", "60", "--s-max", "2"],
])
def test_experiment_script_runs(argv):
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
