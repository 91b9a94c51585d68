"""Smoke runs of the command-line scripts under scripts/."""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from insider_lab.cli import build_parser, main

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


def test_run_acceptance_invokes_only_flags_the_cli_parses(monkeypatch, tmp_path):
    # every gate's argv must parse, so a renamed flag fails here at once
    # instead of minutes into a full-rig run; viability runs for real (it
    # draws nothing) so its expected phrase is checked against the CLI
    spec = importlib.util.spec_from_file_location("run_acceptance",
                                                  SCRIPTS / "run_acceptance.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    parser = build_parser()
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv[1:3])
        if argv[1:3] == ["-m", "pytest"]:
            return subprocess.CompletedProcess(argv, 0)
        assert argv[:3] == [sys.executable, "-m", "insider_lab"]
        args = parser.parse_args(argv[3:])
        if args.command == "viability":
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv[3:])
            return subprocess.CompletedProcess(argv, code, stdout=out.getvalue(), stderr="")
        if args.output:
            # the keys the script reads: a sweep's two report means and the
            # wall time it drops before diffing two runs
            Path(args.output).write_text(json.dumps(
                {"wall_time_s": 0.0, "reports": [{"mean": 0.0}, {"mean": 1.0}]}))
        return subprocess.CompletedProcess(argv, 0, stdout="", stderr="")

    monkeypatch.setattr(script.subprocess, "run", fake_run)
    monkeypatch.setattr(script.tempfile, "mkdtemp", lambda prefix: str(tmp_path))
    assert script.main() == 0
    assert calls.count(["-m", "pytest"]) == 1
    assert calls.count(["-m", "insider_lab"]) == 12
