#!/usr/bin/env python3
"""Trace the blow-up of insider log utility as the truncation shrinks.

For a schedule whose look-ahead integral diverges at the horizon, the
achievable expected log utility grows like half the truncated integral.
This script tabulates ``insider-lab sweep`` over a truncation ladder, so
the divergence shows line by line; any ``sweep`` flag overrides DEFAULTS.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from insider_lab import cli

DEFAULTS = ["--schedule", "powerlaw:q=1", "--alpha", "0", "--paths", "20000",
            "--deltas", "0.2,0.1,0.05,0.02,0.01", "--abs-tol", "0.05"]


def main(argv=None) -> int:
    flags = [*DEFAULTS, *(sys.argv[1:] if argv is None else argv)]
    if {"-h", "--help"} & set(flags):
        return cli.main(["sweep", "--help"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.json"
        with contextlib.redirect_stdout(io.StringIO()):  # the summary line
            code = cli.main(["sweep", *flags, "--output", str(out), "--format", "json"])
        if not out.exists():
            return code
        reports = json.loads(out.read_text())["reports"]
    print("   delta     theory    mc mean    stderr       z  verdict")
    for rep in reports:
        print(f"{rep['delta']:>8g} {rep['theory']:>10.4f} {rep['mean']:>10.4f} "
              f"{rep['stderr']:>9.1e} {rep['z_score']:>+7.2f}  {rep['verdict']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
