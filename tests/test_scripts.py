"""Smoke runs of the command-line scripts under scripts/."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("argv, message", [
    (["--deltas", "a"], "--deltas must be comma-separated numbers"),
    (["--deltas", ","], "--deltas needs at least one value"),
    (["--paths", "201"], "antithetic pairing needs an even n_paths"),
    (["--schedule", "table:@missing.csv"], "missing.csv"),
])
def test_truncation_ladder_reports_bad_input_as_the_cli_does(argv, message):
    proc = run_script("truncation_ladder.py", *argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("code", [0, 1])
def test_run_acceptance_runs_the_acceptance_module_once(monkeypatch, code):
    # the gates live in tests/test_acceptance.py alone; the script only
    # runs that module and passes pytest's exit code on
    spec = importlib.util.spec_from_file_location("run_acceptance",
                                                  SCRIPTS / "run_acceptance.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        return subprocess.CompletedProcess(argv, code)

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    assert script.main() == code
    assert calls == [[sys.executable, "-m", "pytest",
                      str(SCRIPTS.parent / "tests" / "test_acceptance.py")]]
