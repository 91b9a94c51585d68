#!/usr/bin/env python3
"""insider-lab benchmark: end-to-end command runs, or a traced per-layer split.

Usage, from the root of a checkout:

    python3 bench/run.py --workload rig_sqrt --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the benchmark runs the workload's ``insider-lab``
commands (``python -m insider_lab ...``), one fresh interpreter per
command and one command at a time, in whole rounds until ``--seconds``
have passed.  Every round's outputs are graded against the closed forms
in ``oracles.py``.  The metrics are medians over rounds.

With ``--trace 1`` it starts two processes that call the same commands
through ``insider_lab.cli.main`` at 1 thread: one plain, one with timing
wrappers on the module attributes between layers (``tracing.py``).  The
metrics are the per-layer split and the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller report, with
versions and per-operation counts, is written to
``bench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

COMMAND_TIMEOUT_S = 150.0

E2E_UNITS = {"wall_s": "s", "wall_1t_s": "s", "pairs_per_s": "pairs/s", "setup_s": "s",
             "peak_rss_mb": "MB", "time_to_accuracy_s": "s"}


def child_env() -> dict:
    """The environment of every program process: the checkout's sources, BLAS at 1 thread."""
    env = dict(os.environ)
    env.pop("INSIDER_LAB_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_cli(argv, env, err_path: Path) -> wl.Result:
    """One ``python -m insider_lab`` process: exit code, wall time, peak RSS."""
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "insider_lab", *argv], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wl.Result(code=proc.returncode, payload=None, stderr=err_path.read_text(),
                     wall=wall, rss_mb=usage.ru_maxrss / 1024.0)


def load_payload(path, code):
    if code != 0 or path is None or not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def intercept(probe_wall: float, wall: float, paths: int) -> float:
    """Set-up time: the zero-path intercept of the line through both runs."""
    p = wl.PROBE_PATHS
    return probe_wall - p * (wall - probe_wall) / (paths - p)


def grade_op(op, results: dict, probes: dict, first: dict, cross: bool) -> list:
    """All (ok, detail) checks of one operation in one round."""
    checks = []
    for c in op.commands:
        res = results[c.key]
        checks += [(ok, f"{c.key}: {d}") for ok, d in c.check(res)]
        if c.key in probes:
            code = probes[c.key].code
            checks.append((code == res.code, f"{c.key}: probe exit {code}"))
        if res.payload is not None:
            stripped = json.dumps(wl.orc.strip_wall(res.payload), sort_keys=True)
            same = first.setdefault(c.key, stripped) == stripped
            checks.append((same, f"{c.key}: {'same as' if same else 'differs from'} "
                                 "the first round"))
    if cross and op.cross is not None:
        checks += op.cross(results)
    return checks


class Tally:
    """Attempted and failed operations, with the detail of each failure."""

    def __init__(self, ops):
        self.ops = {op.name: {"attempted": 0, "failed": 0, "fault": op.fault,
                              "failures": []} for op in ops}

    def add(self, op, checks) -> None:
        entry = self.ops[op.name]
        entry["attempted"] += 1
        bad = [d for ok, d in checks if not ok]
        if bad:
            entry["failed"] += 1
            if len(entry["failures"]) < 3:
                entry["failures"].append(bad)

    def totals(self) -> tuple[bool, int, int]:
        attempted = sum(e["attempted"] for e in self.ops.values())
        failed = sum(e["failed"] for e in self.ops.values())
        correct = all(e["failed"] == 0 for e in self.ops.values() if e["fault"] is None)
        return correct, attempted, failed


def e2e_metrics(work, rounds: list) -> dict:
    """End-to-end metrics from each command's median over the rounds.

    ``rounds`` holds one dict per round with the wall time, peak RSS and
    payload of every command ("command") and every probe ("probe").
    """
    def med(kind, key, field):
        return statistics.median(getattr(r[kind][key], field) for r in rounds)

    commands = [c for op in work.ops for c in op.commands]
    wall = {c.key: med("command", c.key, "wall") for c in commands}
    setup = {}
    for op in work.ops:
        probed = next((c for c in op.commands if c.probe), None)
        for c in op.commands:
            if c.paths is None:
                setup[c.key] = wall[c.key]
            elif probed is not None:
                setup[c.key] = intercept(med("probe", probed.key, "wall"), wall[probed.key],
                                         probed.paths)
    main = [c for c in commands if c.threads != 1]
    drawing = [c for c in main if c.pairs]
    graded = rounds[-1]["command"][work.graded]
    stderr = work.stderr_of(graded.payload) if graded.payload else float("nan")
    rss = [med(kind, key, "rss_mb") for kind in ("command", "probe") for key in rounds[0][kind]]
    return {
        "wall_s": sum(wall[c.key] for c in main),
        "wall_1t_s": sum(wall[c.key] for c in commands if c.threads == 1),
        "pairs_per_s": (sum(c.pairs for c in drawing)
                        / sum(wall[c.key] - setup[c.key] for c in drawing)),
        "setup_s": sum(setup[c.key] for c in main),
        "peak_rss_mb": max(rss),
        "time_to_accuracy_s": (wall[work.graded]
                               * (stderr / wl.TARGET_STDERR[work.name]) ** 2),
    }


def run_e2e(work, seconds: float, out: Path):
    env = child_env()
    err = out / "stderr.txt"
    warm = run_cli(["viability", "--schedule", "const:1"], env, err)
    if warm.code != 0:
        raise SystemExit(f"insider-lab does not start from {SRC}: {warm.stderr.strip()}")
    tally, first, rounds = Tally(work.ops), {}, []
    start = time.perf_counter()
    while True:
        results, probes = {}, {}
        for op in work.ops:
            for c in op.commands:
                if c.probe:
                    probes[c.key] = run_cli(c.probe_argv(str(out / "probe.json")), env, err)
                if c.out and os.path.exists(c.out):
                    os.remove(c.out)
                res = run_cli(c.argv, env, err)
                res.payload = load_payload(c.out, res.code)
                results[c.key] = res
            tally.add(op, grade_op(op, results, probes, first, cross=True))
        rounds.append({"command": results, "probe": probes})
        if time.perf_counter() - start >= seconds:
            break
    metrics = e2e_metrics(work, rounds)
    per_round = [{kind: {k: {"wall_s": r.wall, "rss_mb": r.rss_mb} for k, r in rnd[kind].items()}
                  for kind in ("command", "probe")} for rnd in rounds]
    return tally, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, per_round


def run_traced(work, seed: int, seconds: float, out: Path):
    """Plain and traced in-process runs; per-layer metrics from the traced one."""
    env = child_env()
    runs = {}
    for mode in ("plain", "traced"):
        result = out / f"trace-{mode}.json"
        proc = subprocess.run([sys.executable, str(BENCH / "tracing.py"),
                               "--workload", work.name, "--seed", str(seed),
                               "--seconds", str(seconds / 2), "--mode", mode,
                               "--out", str(out), "--result", str(result)],
                              cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"{mode} in-process run failed with exit {proc.returncode}")
        runs[mode] = json.loads(result.read_text())
    tally, first = Tally(work.ops), {}
    for mode in ("plain", "traced"):
        for rnd in runs[mode]["rounds"]:
            results = {k: wl.Result(code=v["code"], payload=v["payload"], stderr=v["stderr"])
                       for k, v in rnd["commands"].items()}
            for op in work.ops:
                ran = [c for c in op.commands if c.key in results]
                if ran:
                    tally.add(op, grade_op(wl.Op(op.name, ran), results, {}, first,
                                           cross=False))
    traced = runs["traced"]
    layers = {name: statistics.median(r["layers"][name] for r in traced["rounds"])
              for name in traced["rounds"][0]["layers"]}
    plain_wall = statistics.median(r["wall"] for r in runs["plain"]["rounds"])
    traced_wall = statistics.median(r["wall"] for r in traced["rounds"])
    layers["cli.import_s"] = runs["plain"]["import_s"]
    layers["numpy.rng_us_per_pair"] = traced["rng_us_per_pair"]
    layers["trace.overhead_s"] = traced_wall - plain_wall
    metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
    extras = {k: {"value": layers[k], "unit": u} for k, u in PARTIAL_UNITS.items()}
    return tally, metrics, {"plain_round_s": plain_wall, "traced_round_s": traced_wall,
                            "partial_layers": extras,
                            "rounds": {m: len(runs[m]["rounds"]) for m in runs}}


# Per-layer metrics measured on every workload; the BENCHMARK.json per_layer list.
LAYER_UNITS = {
    "cli.import_s": "s",
    "brownian.grid_points": "count",
    "brownian.mix_seed_us_per_pair": "us",
    "numpy.rng_us_per_pair": "us",
    "montecarlo.self_us_per_pair": "us",
    "montecarlo.pre_draw_ms": "ms",
    "montecarlo.chunks": "count",
    "forward_sde.log_wealth_us_per_pair": "us",
    "forward_sde.log_wealth_calls": "count",
    "forward_sde.rows_per_call": "count",
    "forward_sde.mb_per_call": "MB",
    "forward_sde.check_truncation_ms": "ms",
    "schedules.viability_integral_calls": "count",
    "trace.overhead_s": "s",
    "trace.span_share": "%",
}
# Layers that only some workloads reach; written to the report file only.
PARTIAL_UNITS = {
    "brownian.union_grid_ms": "ms",
    "schedules.classify_ms": "ms",
    "analysis.theory_ms": "ms",
    "donsker.density_us_per_cell": "us",
    "montecarlo.duality_us_per_path": "us",
}


def context() -> dict:
    """Versions and sizes recorded next to the metrics (not metrics themselves)."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or sha
    lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "cpu_count": os.cpu_count(), "src_lines": lines}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="master seed handed to the program's --seed")
    p.add_argument("--seconds", type=float, required=True,
                   help="run whole rounds until this many seconds have passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "insider_lab" / "__main__.py").is_file():
        print(f"error: no insider-lab sources under {SRC}", file=sys.stderr)
        return 2
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    work = wl.WORKLOADS[args.workload](args.seed, out)
    if args.trace:
        tally, metrics, extra = run_traced(work, args.seed, args.seconds, out)
    else:
        tally, metrics, rounds = run_e2e(work, args.seconds, out)
        extra = {"rounds": rounds}
    correct, attempted, failed = tally.totals()
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **context(), "correct": correct,
              "attempted": attempted, "failed": failed, "ops": tally.ops,
              "metrics": metrics, **extra}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    for name, entry in tally.ops.items():
        status = f"{entry['failed']}/{entry['attempted']} failed"
        if entry["fault"]:
            status += f" (known fault {entry['fault'].split(':')[0]})"
        print(f"{name:18s} {status}")
        for bad in entry["failures"][:1]:
            print("    " + "; ".join(bad)[:400])
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
