"""Smoke runs of the command-line scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True)


def test_viability_atlas_tabulates_every_family():
    proc = run_script("viability_atlas.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[:3] == ["schedule", "regime", "classification"]
    assert len(lines) == 1 + 7 + 3 + 3
    assert any(line.startswith("powerlaw q=0.5") and "Viable" in line for line in lines)
    assert any(line.startswith("affine_below c=0.5") and "NotViableBelowHorizon" in line
               for line in lines)


def test_truncation_ladder_prints_one_row_per_delta():
    proc = run_script("truncation_ladder.py", "--paths", "200", "--deltas", "0.2,0.1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["delta", "theory", "mc", "mean", "stderr", "z", "verdict"]
    assert [line.split()[0] for line in lines[1:]] == ["0.2", "0.1"]
