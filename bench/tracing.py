#!/usr/bin/env python3
"""In-process run of a workload's commands, plain or with layer spans.

Started by ``run.py --trace 1``, once per mode, as a fresh interpreter
with the checkout's ``src`` on ``PYTHONPATH``:

    python3 bench/tracing.py --workload rig_sqrt --seed 1 --seconds 5 \\
        --mode traced --out bench/out/rig_sqrt --result trace.json

Each round calls ``insider_lab.cli.main`` with every command of the
workload, at ``--threads 1`` so that spans nest in one thread and self
times add up.  In ``traced`` mode the module attributes through which
one layer calls the next are replaced by wrappers that record a span
(name, start, end, parent) in memory; the program's files are not
touched.  The spans and the per-round layer figures are written to
``--result`` when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
import traceback
from pathlib import Path


class Recorder:
    """Spans kept in memory: [name, start, end, parent index, info]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def open(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, info])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1


def _matrix_info(args, kwargs):
    values = args[3] if len(args) > 3 else kwargs["values"]
    return list(values.shape)


# (module, attribute, span name, info from the call's arguments)
SPANS = [
    ("montecarlo", "estimate_log_utility", "montecarlo.estimate", None),
    ("analysis", "estimate_log_utility", "montecarlo.estimate", None),
    ("cli", "refinement_study", "montecarlo.refine", None),
    ("cli", "duality_check", "montecarlo.duality", None),
    ("montecarlo", "discretized_mean", "montecarlo.discretized_mean", None),
    ("montecarlo", "mix_seed", "brownian.mix_seed", None),
    ("montecarlo", "union_grid", "brownian.union_grid", None),
    ("cli", "union_grid", "brownian.union_grid", None),
    ("montecarlo", "check_truncation", "forward_sde.check_truncation", None),
    ("forward_sde", "check_truncation", "forward_sde.check_truncation", None),
    ("montecarlo", "log_wealth_matrix", "forward_sde.log_wealth_matrix", _matrix_info),
    ("analysis", "benchmark_value", "analysis.theory", None),
    ("schedules", "viability_integral", "schedules.viability_integral", None),
    ("analysis", "viability_integral", "schedules.viability_integral", None),
    ("cli", "viability_integral", "schedules.viability_integral", None),
    ("analysis", "classify_viability", "schedules.classify", None),
    ("forward_sde", "classify_viability", "schedules.classify", None),
    ("cli", "classify_viability", "schedules.classify", None),
    ("cli", "cond_delta_2d", "donsker.density", None),
    ("cli", "cond_delta_deriv_2d", "donsker.derivative", None),
    ("cli", "malliavin_ratio", "donsker.ratio", None),
]
# counted, not timed: their time stays in the caller's self time
COUNTS = [("montecarlo", "_normal_block", "montecarlo.chunks")]


def install(rec: Recorder) -> None:
    """Replace the listed module attributes with recording wrappers."""
    for mod_name, attr, name, info in SPANS:
        mod = importlib.import_module(f"insider_lab.{mod_name}")
        fn = getattr(mod, attr)

        def span(*args, _fn=fn, _name=name, _info=info, **kwargs):
            idx = rec.open(_name, _info(args, kwargs) if _info else None)
            try:
                return _fn(*args, **kwargs)
            finally:
                rec.close(idx)
        setattr(mod, attr, functools.wraps(fn)(span))
    for mod_name, attr, name in COUNTS:
        mod = importlib.import_module(f"insider_lab.{mod_name}")
        fn = getattr(mod, attr)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            rec.count(_name)
            return _fn(*args, **kwargs)
        setattr(mod, attr, functools.wraps(fn)(counted))


def layer_figures(spans, lo: int, hi: int, chunks: int) -> dict:
    """Per-layer figures of the spans[lo:hi] of one round (spans[lo] is the round)."""
    dur, self_t, total, calls = {}, {}, {}, {}
    for i in range(lo, hi):
        name, start, end, parent, _ = spans[i]
        d = end - start
        dur[i] = d
        self_t[i] = self_t.get(i, 0.0) + d
        if parent >= lo:
            self_t[parent] = self_t.get(parent, 0.0) - d
    for i in range(lo + 1, hi):
        name = spans[i][0]
        total.setdefault(name, [0.0, 0.0])
        total[name][0] += dur[i]
        total[name][1] += self_t[i]
        calls[name] = calls.get(name, 0) + 1

    estimators = {"montecarlo.estimate", "montecarlo.refine"}
    pairs = sum(1 for i in range(lo + 1, hi) if spans[i][0] == "brownian.mix_seed"
                and spans[spans[i][3]][0] in estimators)
    duality_paths = sum(1 for i in range(lo + 1, hi) if spans[i][0] == "brownian.mix_seed"
                        and spans[spans[i][3]][0] == "montecarlo.duality")
    pre_draw = 0.0
    for i in range(lo + 1, hi):
        if spans[i][0] in estimators:
            first = next((j for j in range(i + 1, hi) if spans[j][3] == i
                          and spans[j][0] == "brownian.mix_seed"), None)
            pre_draw += (spans[first][1] if first is not None else spans[i][2]) - spans[i][1]
    shapes = [spans[i][4] for i in range(lo + 1, hi)
              if spans[i][0] == "forward_sde.log_wealth_matrix"]

    def t(name, k=0):
        return total.get(name, [0.0, 0.0])[k]

    per_pair = 1e6 / pairs if pairs else 0.0
    cells = calls.get("donsker.density", 0)
    return {
        "brownian.grid_points": max((s[1] for s in shapes), default=0),
        "brownian.mix_seed_us_per_pair": 1e6 * t("brownian.mix_seed") / max(
            1, calls.get("brownian.mix_seed", 0)),
        "montecarlo.self_us_per_pair": (t("montecarlo.estimate", 1)
                                        + t("montecarlo.refine", 1)) * per_pair,
        "montecarlo.pre_draw_ms": 1e3 * pre_draw,
        "montecarlo.chunks": chunks,
        "forward_sde.log_wealth_us_per_pair": t("forward_sde.log_wealth_matrix", 1) * per_pair,
        "forward_sde.log_wealth_calls": len(shapes),
        "forward_sde.rows_per_call": statistics.median(s[0] for s in shapes) if shapes else 0,
        "forward_sde.mb_per_call": max((8e-6 * s[0] * s[1] for s in shapes), default=0.0),
        "forward_sde.check_truncation_ms": 1e3 * t("forward_sde.check_truncation"),
        "schedules.viability_integral_calls": calls.get("schedules.viability_integral", 0),
        "trace.span_share": 100.0 * (1.0 - self_t[lo] / dur[lo]),
        "brownian.union_grid_ms": 1e3 * t("brownian.union_grid"),
        "schedules.classify_ms": 1e3 * t("schedules.classify"),
        "analysis.theory_ms": 1e3 * t("analysis.theory"),
        "donsker.density_us_per_cell": 1e6 * (t("donsker.density") + t("donsker.derivative")
                                              + t("donsker.ratio")) / max(1, cells),
        "montecarlo.duality_us_per_path": 1e6 * t("montecarlo.duality") / max(
            1, duality_paths),
    }


def rng_floor(n_normals: int, reps: int = 200) -> float:
    """Microseconds for one default_rng(seed).standard_normal(n) call."""
    import numpy as np

    start = time.perf_counter()
    for seed in range(reps):
        np.random.default_rng(seed).standard_normal(n_normals)
    return 1e6 * (time.perf_counter() - start) / reps


def run_command(cli, argv, out_path):
    """cli.main in-process; returns exit code, captured stderr and the output payload."""
    if out_path:
        Path(out_path).unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a result to report, not a reason to stop
            traceback.print_exc()
            code = 70
    payload = None
    if code == 0 and out_path and Path(out_path).exists():
        payload = json.loads(Path(out_path).read_text())
    return {"code": code, "stderr": err.getvalue(), "payload": payload}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("plain", "traced"), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()

    start = time.perf_counter()
    import insider_lab.cli as cli
    import_s = time.perf_counter() - start

    import workloads as wl

    work = wl.WORKLOADS[args.workload](args.seed, Path(args.out))
    commands = [c for op in work.ops for c in op.commands if c.traced]
    rec = Recorder() if args.mode == "traced" else None
    if rec is not None:
        install(rec)
    rounds = []
    start = time.perf_counter()
    while True:
        lo = len(rec.spans) if rec else 0
        chunks = rec.counts.get("montecarlo.chunks", 0) if rec else 0
        root = rec.open("round") if rec else None
        r0 = time.perf_counter()
        results = {c.key: run_command(cli, c.with_threads(1), c.out) for c in commands}
        wall = time.perf_counter() - r0
        rnd = {"wall": wall, "commands": results}
        if rec is not None:
            rec.close(root)
            rnd["layers"] = layer_figures(rec.spans, lo, len(rec.spans),
                                          rec.counts.get("montecarlo.chunks", 0) - chunks)
        rounds.append(rnd)
        if time.perf_counter() - start >= args.seconds:
            break
    result = {"mode": args.mode, "import_s": import_s, "rounds": rounds}
    if rec is not None:
        grid = max(r["layers"]["brownian.grid_points"] for r in rounds)
        result["rng_us_per_pair"] = rng_floor(max(grid - 1, 1))
        result["spans"] = [s[:4] for s in rec.spans]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
