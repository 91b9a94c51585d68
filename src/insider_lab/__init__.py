"""Simulation lab for insider trading under deterministic look-ahead schedules."""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Module ``name``, executed on its first attribute access (importlib's
    LazyLoader recipe); an imported or missing module gets a plain import."""
    spec = None if name in sys.modules else importlib.util.find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# Commands that draw no paths never run numpy.  Lab modules import np from
# here, since `import numpy` reads __spec__ and so runs it.  LazyLoader is not
# thread-safe on every supported Python, so numpy must first run on one thread.
np = _lazy("numpy")
