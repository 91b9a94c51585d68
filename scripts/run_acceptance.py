#!/usr/bin/env python3
"""Run every acceptance gate: the full-rig checks of tests/test_acceptance.py.

The gates are defined once, in that test module, where each one grades
an estimate, an identity or a regression against its closed form at a
stated config, seed and tolerance.  This script runs the module through
pytest in a subprocess and exits with pytest's code, so it works from
any directory.  Expect a few minutes at the full 200000-path rig.
"""

import subprocess
import sys
from pathlib import Path

GATES = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def main():
    return subprocess.run([sys.executable, "-m", "pytest", str(GATES)]).returncode


if __name__ == "__main__":
    sys.exit(main())
