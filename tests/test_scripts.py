import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_census_tally_labels():
    proc = subprocess.run([sys.executable, "scripts/minus_two_census.py",
                           "--g-max", "60", "--s-max", "2"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    tally = {label.strip(): count.split()[0] for label, count in
             (line.split(":") for line in proc.stdout.splitlines()[1:6])}
    assert tally == {"witness": "58", "obstructed mod 3": "43", "obstructed mod 5": "31",
                     "none proved": "25", "obstructed mod 8": "21"}
