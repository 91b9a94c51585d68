"""The benchmark's layer hooks name attributes that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
