"""The benchmark's layer hooks name attributes that exist in the package."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

# One traced round of the commands named in argv[3]; the figures go to argv[1].
ROUND = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import insider_lab.cli as cli
rec = tracing.Recorder()
tracing.install(rec)
small = ["--paths", "400", "--base-points", "256", "--threads", "1"]
insider = ["--schedule", "powerlaw:q=0.5", "--delta", "1e-2", *small]
commands = {"simulate": ["simulate", *insider],
            "refine": ["refine", *insider, "--levels", "2", "--factor", "2"],
            "compare": ["compare", "--schedule", "const:1", "--strategy", "merton", *small]}
root = rec.open("round")
codes = [cli.main(commands[name]) for name in sys.argv[3].split(",")]
rec.close(root)
figures = tracing.layer_figures(rec.spans, 0, len(rec.spans),
                                rec.counts.get("montecarlo.chunks", 0))
with open(sys.argv[1], "w") as fh:
    json.dump({"codes": codes, "figures": figures}, fh)
"""


def test_every_hooked_attribute_exists():
    # tracing.py imports only the standard library, so loading it is cheap;
    # a renamed attribute would otherwise surface only when --trace 1 crashes
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = [(hook[0], hook[1]) for hook in tracing.SPANS + tracing.COUNTS]
    missing = [f"{module}.{attr}" for module, attr in hooks
               if not hasattr(importlib.import_module(f"insider_lab.{module}"), attr)]
    assert hooks
    assert missing == []


def traced_round(tmp_path, commands: str) -> dict:
    """The figures of one traced round; a fresh interpreter keeps the
    recording wrappers out of every other test."""
    out = tmp_path / "figures.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ROUND, str(out), str(TRACING), commands],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["codes"] == [0] * len(commands.split(","))
    return result["figures"]


def test_traced_round_fills_the_per_pair_figures(tmp_path):
    # the spans must nest as layer_figures expects: the draws inside the
    # estimate span, the kernel and the theory each in their own
    figures = traced_round(tmp_path, "simulate,refine,compare")
    assert figures["montecarlo.self_us_per_pair"] > 0
    assert figures["forward_sde.log_wealth_calls"] > 0
    assert figures["analysis.theory_ms"] > 0


def test_simulate_draws_inside_the_estimate_span(tmp_path):
    # simulate alone: its estimate must run through the wrapped
    # montecarlo.estimate_log_utility, or its draws would leave the span
    figures = traced_round(tmp_path, "simulate")
    assert figures["montecarlo.self_us_per_pair"] > 0
    assert figures["forward_sde.log_wealth_calls"] > 0
