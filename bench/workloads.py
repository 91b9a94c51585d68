"""The three benchmark workloads as insider-lab command lines with their checks.

A workload is a list of operations.  An operation is one or more
``insider-lab`` command lines plus the checks that grade their output
against ``oracles``; it fails when any command exits unexpectedly or any
check rejects.  Every round of a run executes the same operations with
the same inputs, so a failed operation fails in every round.

Commands carry what the metrics need:

* ``threads`` is the ``--threads`` value (``None`` for commands that do
  not take one).  Commands at 1 thread make up ``wall_1t_s``; all the
  others make up ``wall_s`` and ``setup_s``.
* ``paths`` is the path count (``None`` for commands that draw no
  paths).  A command with ``probe=True`` is also run at ``PROBE_PATHS``
  paths, and the line through the two wall times gives its set-up time
  (the intercept at zero paths) and its per-path cost.
* ``pairs`` is the number of antithetic pairs the command draws, summed
  over its estimates; ``pairs_per_s`` counts the 2-thread commands that
  have any.
* ``traced=False`` marks the 1-thread twin of a 2-thread command; the
  traced run, which runs everything at 1 thread, skips it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import oracles as orc

PROBE_PATHS = 100

ALPHA, BETA, T = 0.1, 0.2, 1.0
SQRT = {"kind": "powerlaw", "q": 0.5}
RIG_DELTA, RIG_BASE = 1e-3, 4096
RIG_PATHS = 6144
REFINE_BASE, REFINE_LEVELS, REFINE_FACTOR, REFINE_PATHS = 1024, 3, 4, 3072
GATE_PATHS = 512
CAPPED_PATHS = 2048
DUALITY_PATHS = 1024
COARSE_SEED = 42

# time_to_accuracy_s targets: the standard error each workload's graded
# command would have to reach (see README)
TARGET_STDERR = {"rig_sqrt": 3e-3, "refine_ladder": 1e-4, "gate_mix": 3e-3}

TABLE_MIXED = ((0.0, 0.5), (1.0, 1e-6))
TABLE_VIABLE = ((0.0, 1.5), (0.5, 1.0), (1.0, 0.5))


@dataclass
class Result:
    code: int
    payload: dict | None
    stderr: str
    wall: float = 0.0
    rss_mb: float = 0.0


@dataclass
class Command:
    key: str
    argv: list
    threads: int | None = None
    paths: int | None = None
    out: str | None = None
    probe: bool = False
    traced: bool = True
    pairs: int = 0  # antithetic pairs drawn, counted in pairs_per_s
    check: object = None  # Result -> list[(ok, detail)]

    def with_threads(self, n: int) -> list:
        argv = list(self.argv)
        if self.threads is not None:
            argv[argv.index("--threads") + 1] = str(n)
        return argv

    def probe_argv(self, probe_out: str) -> list:
        argv = list(self.argv)
        argv[argv.index("--paths") + 1] = str(PROBE_PATHS)
        if self.out is not None:
            argv[argv.index("--output") + 1] = probe_out
        return argv


@dataclass
class Op:
    name: str
    commands: list
    cross: object = None  # dict[key, Result] -> list[(ok, detail)], e2e only
    fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list
    graded: str  # key of the command whose standard error time_to_accuracy_s uses
    stderr_of: object  # its payload -> that standard error


# --- command lines -----------------------------------------------------------

def _io(out_dir: Path, name: str) -> tuple[list, str]:
    path = str(out_dir / f"{name}.json")
    return ["--output", path, "--format", "json"], path


def _mc(sub: str, out_dir: Path, name: str, flags: list, threads: int,
        paths: int, seed: int, estimates: int = 1, **kw) -> Command:
    """A path-drawing command; ``estimates`` antithetic estimates of ``paths`` each."""
    io, path = _io(out_dir, name)
    argv = [sub, *flags, "--paths", str(paths), "--seed", str(seed),
            "--threads", str(threads), *io]
    return Command(key=name, argv=argv, threads=threads, paths=paths, out=path,
                   pairs=estimates * (paths // 2), **kw)


def _plain(sub: str, out_dir: Path, name: str, flags: list, **kw) -> Command:
    io, path = _io(out_dir, name)
    return Command(key=name, argv=[sub, *flags, *io], out=path, **kw)


def _ok(res: Result, label: str) -> tuple[bool, str]:
    return res.code == 0 and res.payload is not None, f"{label} exit {res.code}"


def _pairs_ok(payload: dict, paths: int) -> tuple[bool, str]:
    n = payload.get("n_paths")
    return n == paths // 2, f"n_paths {n} (expected {paths // 2} pairs)"


# --- checks ------------------------------------------------------------------

def insider_check(schedule: dict, delta: float, base: int, paths: int,
                  alpha: float = ALPHA, abs_tol: float = 0.0):
    """Estimate within K sigma of the closed form plus the grid's exact bias."""
    closed = orc.insider_utility(schedule, alpha, BETA, T, delta)
    exact = orc.discretized_mean(schedule, alpha, BETA, T, delta, base)

    def check(res: Result):
        out = [_ok(res, "run")]
        if not out[0][0]:
            return out
        p = res.payload.get("report", res.payload)
        out.append(_pairs_ok(p, paths))
        out.append(orc.check_closed_form(p["mean"], p["stderr"], closed, exact,
                                         abs_tol, "closed form"))
        return out
    return check


def honest_check(paths: int):
    closed = orc.honest_utility(ALPHA, BETA, T)

    def check(res: Result):
        out = [_ok(res, "run")]
        if out[0][0]:
            p = res.payload["report"]
            gap = abs(p["mean"] - closed)
            out.append((gap <= 1e-12, f"mean {p['mean']!r} vs {closed!r}: gap {gap:.3g}"))
            out.append(_pairs_ok(p, paths))
        return out
    return check


def sweep_check(schedule: dict, deltas, base: int, paths: int, abs_tol: float):
    def check(res: Result):
        out = [_ok(res, "run")]
        if not out[0][0]:
            return out
        reports = res.payload["reports"]
        out.append((len(reports) == len(deltas), f"{len(reports)} reports"))
        for rep, d in zip(reports, deltas):
            closed = orc.insider_utility(schedule, 0.0, BETA, T, d)
            exact = orc.discretized_mean(schedule, 0.0, BETA, T, d, base)
            out.append(_pairs_ok(rep, paths))
            out.append(orc.check_closed_form(rep["mean"], rep["stderr"], closed, exact,
                                             abs_tol, f"delta={d:g}"))
        return out
    return check


def duality_check(paths: int, target: float):
    def check(res: Result):
        out = [_ok(res, "run")]
        if out[0][0]:
            p = res.payload
            out.append((p["n_paths"] == paths, f"n_paths {p['n_paths']}"))
            out.append(orc.check_near(p["mean"], p["stderr"], target, label="duality"))
        return out
    return check


def refine_check(schedule: dict, delta: float, base: int, levels: int, factor: int,
                 paths: int):
    sizes = [base * factor**k for k in range(levels)]
    exact = [orc.discretized_mean(schedule, ALPHA, BETA, T, delta, n) for n in sizes]
    closed = orc.insider_utility(schedule, ALPHA, BETA, T, delta)

    def check(res: Result):
        out = [_ok(res, "run")]
        if not out[0][0]:
            return out
        rows = res.payload["levels"]
        out.append(([r["base_points"] for r in rows] == sizes,
                     f"levels {[r['base_points'] for r in rows]}"))
        for r, e in zip(rows, exact):
            out.append(orc.check_near(r["mean"], r["stderr"], e,
                                      label=f"level {r['base_points']} vs exact grid mean"))
        out.append(orc.check_closed_form(rows[-1]["mean"], rows[-1]["stderr"], closed,
                                         exact[-1], label="finest level vs closed form"))
        return out
    return check


def viability_check(schedule: dict, delta: float | None, rel: float = 1e-9,
                    refusal: str | None = None):
    """Classification and integral from the exact integral and knot regime.

    ``refusal``: a phrase that makes an exit-1 refusal the correct outcome.
    """
    full = orc.lookahead_integral(schedule, T, 0.0)
    if schedule["kind"] == "table":
        regime = orc.table_regime(schedule["knots"], T)
    else:
        regime = "BelowHorizon" if schedule["kind"] == "affine_below" else "AboveHorizon"
    if regime == "BelowHorizon":
        want = "NotViableBelowHorizon"
    else:
        want = "Viable" if math.isfinite(full) else "NotViable"

    def check(res: Result):
        if refusal is not None and res.code == 1:
            ok = refusal in res.stderr.lower()
            return [(ok, f"refused: {res.stderr.strip()[:120]}")]
        out = [_ok(res, "run")]
        if not out[0][0]:
            return out
        p = res.payload
        cls = p["classification"]
        accept = {want} | ({"Viable"} if regime == "Mixed" and math.isfinite(full) else set())
        out.append((cls in accept, f"classification {cls}, expected {sorted(accept)}"))
        if math.isfinite(full):
            out.append(orc.check_rel(p["integral"], full, rel, "integral"))
        else:
            out.append((p["integral"] is None, f"integral {p['integral']!r} (divergent)"))
        if delta is not None:
            out.append(orc.check_rel(p["truncated_integral"],
                                     orc.lookahead_integral(schedule, T, delta), rel,
                                     f"integral to T-{delta:g}"))
        return out
    return check


def coarse_check(schedule: dict, delta: float, base: int):
    """Refusal, or an estimate within K sigma of its exact grid mean."""
    exact = orc.discretized_mean(schedule, ALPHA, BETA, T, delta, base)

    def check(res: Result):
        if res.code == 1:
            return [(True, f"refused: {res.stderr.strip()[:120]}")]
        out = [_ok(res, "run")]
        if out[0][0]:
            p = res.payload["report"]
            out.append(orc.check_near(p["mean"], p["stderr"], exact,
                                      label="exact grid mean"))
        return out
    return check


def donsker_check(base: float, eps1: float, eps2: float, points: int):
    def check(res: Result):
        out = [_ok(res, "run")]
        if out[0][0]:
            rows = res.payload["rows"]
            out.append((len(rows) == points * points, f"{len(rows)} rows"))
            out.append(orc.check_donsker_rows(rows, base, eps1, eps2))
        return out
    return check


def identical(a: str, b: str):
    def cross(results: dict):
        ra, rb = results.get(a), results.get(b)
        if ra is None or rb is None or ra.payload is None or rb.payload is None:
            return [(False, f"{a}/{b}: missing output")]
        return [orc.check_identical(ra.payload, rb.payload, f"{a} vs {b}")]
    return cross


# --- workloads ---------------------------------------------------------------

def _sched_flag(schedule: dict) -> str:
    if schedule["kind"] == "powerlaw":
        return f"powerlaw:q={schedule['q']:g}"
    if schedule["kind"] == "const":
        return f"const:{schedule['value']:g}"
    return f"affine_below:c={schedule['c']:g}"


def rig_sqrt(seed: int, out: Path) -> Workload:
    flags = ["--schedule", "powerlaw:q=0.5", "--delta", "1e-3",
             "--base-points", str(RIG_BASE)]
    check = insider_check(SQRT, RIG_DELTA, RIG_BASE, RIG_PATHS)
    ops = [Op("rig_sqrt", [
        _mc("simulate", out, "rig_1t", flags, 1, RIG_PATHS, seed, probe=True,
            traced=False, check=check),
        _mc("simulate", out, "rig_2t", flags, 2, RIG_PATHS, seed, check=check),
    ], cross=identical("rig_1t", "rig_2t"))]
    return Workload("rig_sqrt", ops, graded="rig_2t",
                    stderr_of=lambda p: p["stderr"])


def refine_ladder(seed: int, out: Path) -> Workload:
    flags = ["--schedule", "powerlaw:q=0.5", "--delta", "1e-3",
             "--base-points", str(REFINE_BASE), "--levels", str(REFINE_LEVELS),
             "--factor", str(REFINE_FACTOR)]
    check = refine_check(SQRT, RIG_DELTA, REFINE_BASE, REFINE_LEVELS, REFINE_FACTOR,
                         REFINE_PATHS)
    ops = [Op("refine_ladder", [
        _mc("refine", out, "refine_1t", flags, 1, REFINE_PATHS, seed, probe=True,
            traced=False, check=check),
        _mc("refine", out, "refine_2t", flags, 2, REFINE_PATHS, seed, check=check),
    ], cross=identical("refine_1t", "refine_2t"))]
    return Workload("refine_ladder", ops, graded="refine_2t",
                    stderr_of=lambda p: p["levels"][-1]["stderr"])


def write_tables(out: Path) -> dict:
    paths = {}
    for name, knots in (("table_mixed", TABLE_MIXED), ("table_viable", TABLE_VIABLE)):
        path = out / f"{name}.csv"
        path.write_text("t,eps\n" + "".join(f"{t!r},{e!r}\n" for t, e in knots))
        paths[name] = str(path)
    return paths


def gate_mix(seed: int, out: Path) -> Workload:
    tables = write_tables(out)
    q1 = {"kind": "powerlaw", "q": 1.0}
    affine = {"kind": "affine_below", "c": 0.5}
    const1 = {"kind": "const", "value": 1.0}
    q3 = {"kind": "powerlaw", "q": 3.0}
    capped_flags = ["--schedule", "powerlaw:q=0.5", "--delta", "1e-3",
                    "--base-points", str(RIG_BASE), "--pi-cap", "1e6"]
    capped = insider_check(SQRT, RIG_DELTA, RIG_BASE, CAPPED_PATHS)
    deltas = (1e-1, 1e-2)
    ladder = ["--alpha", "0", "--deltas", "1e-1,1e-2"]
    atlas = [SQRT, {"kind": "powerlaw", "q": 1.0}, {"kind": "powerlaw", "q": 2.0},
             {"kind": "const", "value": 0.5}, affine]
    ops = [
        Op("honest_const", [_mc("compare", out, "honest_const",
                                ["--schedule", "const:1", "--strategy", "merton"], 2,
                                GATE_PATHS, seed, probe=True,
                                check=honest_check(GATE_PATHS))]),
        Op("window_const", [_mc("compare", out, "window_const",
                                ["--schedule", "const:1"], 2, GATE_PATHS, seed,
                                probe=True,
                                check=insider_check(const1, 0.0, 4096, GATE_PATHS,
                                                    abs_tol=0.01))]),
        Op("ladder_q1", [_mc("sweep", out, "ladder_q1",
                             ["--schedule", "powerlaw:q=1", *ladder], 2, GATE_PATHS,
                             seed, estimates=2, probe=True,
                             check=sweep_check(q1, deltas, 4096, GATE_PATHS, 0.03))]),
        Op("ladder_affine", [
            _plain("viability", out, "affine_class",
                   ["--schedule", "affine_below:c=0.5", "--T", "1"],
                   check=viability_check(affine, None)),
            _mc("sweep", out, "ladder_affine",
                ["--schedule", "affine_below:c=0.5", *ladder], 2, GATE_PATHS, seed,
                estimates=2, probe=True, check=sweep_check(affine, deltas, 4096, GATE_PATHS, 0.05)),
        ]),
        Op("duality_lookahead", [_mc("duality", out, "duality_lookahead",
                                     ["--kind", "constant_lookahead", "--eps", "0.5"], 2,
                                     DUALITY_PATHS, seed, estimates=0, probe=True,
                                     check=duality_check(DUALITY_PATHS, T))]),
        Op("duality_terminal", [_mc("duality", out, "duality_terminal",
                                    ["--kind", "terminal_value"], 2, DUALITY_PATHS, seed,
                                    estimates=0, probe=True,
                                    check=duality_check(DUALITY_PATHS, T))]),
        Op("capped_sqrt", [
            _mc("simulate", out, "capped_1t", capped_flags, 1, CAPPED_PATHS, seed,
                probe=True, traced=False, check=capped),
            _mc("simulate", out, "capped_2t", capped_flags, 2, CAPPED_PATHS, seed,
                check=capped),
        ], cross=identical("capped_1t", "capped_2t")),
        Op("atlas", [_plain("viability", out, f"atlas_{k}",
                            ["--schedule", _sched_flag(s), "--T", "1", "--delta", "1e-3"],
                            check=viability_check(s, 1e-3))
                     for k, s in enumerate(atlas)]),
        Op("donsker_table", [_plain("donsker-table", out, "donsker_table",
                                    ["--base", "0.25", "--eps1", "0.25", "--eps2", "1.0",
                                     "--points", "41"],
                                    check=donsker_check(0.25, 0.25, 1.0, 41))]),
        Op("table_mixed", [_plain("viability", out, "table_mixed",
                                  ["--schedule", f"table:@{tables['table_mixed']}"],
                                  check=viability_check(
                                      {"kind": "table", "knots": TABLE_MIXED}, None,
                                      refusal="mixed"))],
           fault="F2: regime() samples 1024 points and misses the crossing at t=0.999998"),
        Op("table_viable", [_plain("viability", out, "table_viable",
                                   ["--schedule", f"table:@{tables['table_viable']}"],
                                   check=viability_check(
                                       {"kind": "table", "knots": TABLE_VIABLE}, None))],
           fault="F3: the table integral is its delta=1e-6 truncation"),
        Op("coarse_q3", [_mc("compare", out, "coarse_q3",
                             ["--schedule", "powerlaw:q=3", "--delta", "1e-2",
                              "--base-points", "4096"], 2, 2000, COARSE_SEED,
                             estimates=0, probe=True,
                             check=coarse_check(q3, 1e-2, 4096))],
           fault="F1: check_truncation accepts steps longer than the look-ahead"),
    ]
    return Workload("gate_mix", ops, graded="capped_2t",
                    stderr_of=lambda p: p["stderr"])


WORKLOADS = {"rig_sqrt": rig_sqrt, "refine_ladder": refine_ladder, "gate_mix": gate_mix}
