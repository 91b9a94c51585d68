"""Command-line harness tying schedules, simulation and analysis together.

Eight subcommands cover the workflow end to end: classify a look-ahead
schedule (``viability``), estimate expected log utility (``simulate``),
grade an estimate against its closed form (``compare`` and ``sweep``),
track discretization bias on successively finer grids (``refine``),
check the forward-integral expectation identities (``duality``),
tabulate the conditional-density layer (``donsker-table``) and regress
conditional increment drifts (``drift-check``).  This module writes
every result file; each command ends in ``_emit``.

Experiment commands read an optional JSON config file; inline flags win
over file values and unknown file keys are hard errors.  A config
written by ``--dump-config`` reproduces the identical run, and every
result embeds a 64-bit digest of its canonical config so outputs stay
linked to inputs.

Exit codes: 0 success, 1 invalid input, 2 numerical failure, 3 a graded
check came back Fail under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
import time

from insider_lab import analysis, montecarlo
from insider_lab.brownian import mix_seed, union_grid
from insider_lab.config import (
    MARKET_DEFAULTS,
    STRATEGY_DEFAULT,
    ExperimentConfig,
    MonteCarloError,
    describe,
    digest_of,
    from_dict,
    parse_schedule,
    schedule_literal,
    strategy_literal,
    to_dict,
    to_entry,
)
from insider_lab.donsker import (
    DonskerParams,
    cond_delta_2d,
    cond_delta_deriv_2d,
    malliavin_ratio,
)
from insider_lab.forward_sde import wealth_trace
from insider_lab.montecarlo import (
    BatchAbort,
    duality_check,
    first_path,
    increment_regression,
    refinement_study,
    run_plan,
)
from insider_lab.schedules import QuadratureError, classify_viability, viability_integral
from insider_lab.strategy import MarketCoefficients


class CliError(ValueError):
    """Bad command line or config file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """Argparse variant that raises instead of exiting on usage errors."""

    def error(self, message):
        raise CliError(message)


# (argparse dest, config key) of every experiment flag; a flag that is
# set replaces the key's value, and dotted keys sit in the market object
_FLAG_KEYS = (
    ("schedule", "schedule"), ("strategy", "strategy"), ("alpha", "market.alpha"),
    ("beta", "market.beta"), ("horizon", "market.horizon"), ("x0", "market.x0"),
    ("paths", "n_paths"), ("base_points", "base_points"), ("delta", "delta"),
    ("seed", "master_seed"), ("antithetic", "antithetic"), ("pi_cap", "pi_cap"),
)
_LITERALS = {"schedule": schedule_literal, "strategy": strategy_literal}


def _add_io_flags(p):
    p.add_argument("--output", metavar="FILE", help="write results to FILE")
    p.add_argument("--format", choices=("csv", "json"), default="json",
                   help="output file format (default json)")


def _add_experiment_flags(p):
    p.add_argument("--config", metavar="FILE",
                   help="JSON experiment config; inline flags override its values")
    p.add_argument("--schedule",
                   help="look-ahead literal: powerlaw:q=0.5, const:1, "
                        "affine_below:c=0.5 or table:@knots.csv")
    p.add_argument("--strategy",
                   help="merton, insider or table:@profile.csv "
                        f"(default {STRATEGY_DEFAULT['kind']})")
    p.add_argument("--alpha", type=float,
                   help=f"drift coefficient (default {MARKET_DEFAULTS['alpha']:g})")
    p.add_argument("--beta", type=float,
                   help=f"volatility coefficient (default {MARKET_DEFAULTS['beta']:g})")
    p.add_argument("--T", type=float, dest="horizon",
                   help=f"time horizon (default {MARKET_DEFAULTS['horizon']:g})")
    p.add_argument("--x0", type=float,
                   help=f"initial wealth (default {MarketCoefficients.x0:g})")
    p.add_argument("--paths", type=int,
                   help=f"number of simulated paths (default {ExperimentConfig.n_paths})")
    p.add_argument("--base-points", type=int, help="base grid resolution, a power of "
                   f"two (default {ExperimentConfig.base_points})")
    p.add_argument("--delta", type=float, help="truncation distance from the horizon "
                   f"(default {ExperimentConfig.delta:g})")
    p.add_argument("--seed", type=int,
                   help=f"master seed (default {ExperimentConfig.master_seed})")
    p.add_argument("--antithetic", action=argparse.BooleanOptionalAction, default=None,
                   help="antithetic pairing (default on)")
    p.add_argument("--pi-cap", type=float,
                   help="clip portfolio fractions to [-cap, cap]")
    p.add_argument("--threads", type=int,
                   help="worker threads (default: INSIDER_LAB_THREADS or machine "
                        "count); never changes results")
    p.add_argument("--dump-config", metavar="FILE",
                   help="write the merged config as JSON before running")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="insider-lab",
                     description="Look-ahead market experiments: viability "
                                 "classification, Monte Carlo log utility and "
                                 "diagnostic checks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("viability", help="classify a look-ahead schedule")
    p.add_argument("--schedule", required=True,
                   help="look-ahead literal, e.g. powerlaw:q=2")
    p.add_argument("--T", type=float, dest="horizon", default=MARKET_DEFAULTS["horizon"],
                   help="time horizon (default %(default)g)")
    p.add_argument("--delta", type=float,
                   help="also report the look-ahead integral truncated at T - delta")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_viability)

    p = sub.add_parser("simulate", help="estimate expected log utility")
    _add_experiment_flags(p)
    p.add_argument("--dump-path", metavar="FILE",
                   help="write the first simulated path as CSV")
    p.add_argument("--dump-wealth", metavar="FILE",
                   help="write (t, pi, log_wealth) along the first path as CSV")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("compare", help="grade an estimate against its closed form")
    _add_experiment_flags(p)
    p.add_argument("--abs-tol", type=float, default=analysis.DEFAULT_ABS_TOL,
                   help="absolute tolerance floor for the verdict (default %(default)g)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the verdict is Fail")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", help="compare across a decreasing ladder of truncations")
    _add_experiment_flags(p)
    p.add_argument("--deltas", required=True,
                   help="comma-separated truncation levels, strictly decreasing")
    p.add_argument("--abs-tol", type=float, default=analysis.DEFAULT_ABS_TOL,
                   help="absolute tolerance floor for the verdicts (default %(default)g)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any verdict is Fail")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("refine",
                       help="re-estimate on successively finer grids drawn on one "
                            "shared union grid and track bias decay")
    _add_experiment_flags(p)
    p.add_argument("--levels", type=int, default=3,
                   help="number of grid levels, each finer than the last (default 3)")
    p.add_argument("--factor", type=int, default=4,
                   help="grid growth factor between levels (default 4)")
    p.add_argument("--min-ratio", type=float,
                   help="require successive |mean - theory| gaps to shrink "
                        "by at least this factor")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the gap-ratio requirement fails")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("duality", help="check forward-integral expectation identities")
    p.add_argument("--kind", required=True,
                   help="constant_lookahead, terminal_value or adapted_one")
    p.add_argument("--T", type=float, dest="horizon", default=MARKET_DEFAULTS["horizon"],
                   help="time horizon (default %(default)g)")
    p.add_argument("--eps", type=float,
                   help="look-ahead window (constant_lookahead only)")
    p.add_argument("--paths", type=int, default=ExperimentConfig.n_paths,
                   help="number of simulated paths (default %(default)s)")
    p.add_argument("--base-points", type=int, default=ExperimentConfig.base_points,
                   help="grid resolution (default %(default)s)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed,
                   help="master seed (default %(default)s)")
    p.add_argument("--threads", type=int, help="worker threads")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when the verdict is Fail")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("donsker-table",
                       help="tabulate the conditional look-ahead density")
    p.add_argument("--base", type=float, default=0.0,
                   help="conditioning level (default 0)")
    p.add_argument("--eps1", type=float, required=True, help="inner look-ahead window")
    p.add_argument("--eps2", type=float, required=True, help="outer look-ahead window")
    p.add_argument("--points", type=int, default=21,
                   help="grid points per axis (default 21)")
    p.add_argument("--span", type=float, default=3.0,
                   help="half-width of the y grid in units of sqrt(eps2) (default 3)")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_donsker_table)

    p = sub.add_parser("drift-check",
                       help="regress conditional increment drifts inside and "
                            "beyond the look-ahead window")
    p.add_argument("--t", type=float, default=0.5, help="window start time (default 0.5)")
    p.add_argument("--eps", type=float, default=0.1,
                   help="look-ahead window length (default 0.1)")
    p.add_argument("--ratios", default="0.25,0.5,1,2,10",
                   help="comma-separated h/eps ratios (default 0.25,0.5,1,2,10)")
    p.add_argument("--paths", type=int, default=100000,
                   help="paths per regression (default 100000)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.master_seed,
                   help="master seed (default %(default)s)")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any slope misses its target")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_drift_check)

    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    return data


def _build_config(args) -> ExperimentConfig:
    data = _load_config_file(args.config) if args.config else {}
    for flag, key in _FLAG_KEYS:
        value = getattr(args, flag)
        if value is None:
            continue
        section, _, leaf = key.rpartition(".")
        target = data.setdefault(section, {}) if section else data
        if isinstance(target, dict):  # otherwise from_dict names the bad section
            target[leaf] = _LITERALS[flag](value) if flag in _LITERALS else value
    cfg = from_dict(data)
    if args.dump_config:
        _write_json(args.dump_config, to_dict(cfg))
    return cfg


def _threads_from(args):
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get("INSIDER_LAB_THREADS")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise CliError(f"INSIDER_LAB_THREADS must be an integer, got {env!r}") from None


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([x if isinstance(x, str) else f"{x:.17g}" for x in row])


def _emit(args, payload, header, rows, line, failed=False) -> int:
    """Write ``--output`` in ``--format``, print the summary line and return
    the exit code: 3 when ``failed`` under ``--strict``, else 0."""
    if args.output:
        if args.format == "json":
            _write_json(args.output, payload)
        else:
            _write_csv(args.output, header, rows)
    print(line)
    return 3 if failed and args.strict else 0


_REPORT_HEADER = ["delta", "theory", "mc_mean", "mc_stderr", "z", "verdict"]


def _report_rows(reports):
    return [[rep.delta, rep.theory, rep.mc.mean, rep.mc.stderr, rep.z_score,
             rep.verdict.value] for rep in reports]


def _header(command, cfg) -> dict:
    """The fields every experiment result opens with."""
    config = to_dict(cfg)
    return {"command": command, "config": config, "config_digest": digest_of(config)}


def _floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise CliError(f"{flag} must be comma-separated numbers, got {text!r}") from None
    if not values:
        raise CliError(f"{flag} needs at least one value")
    return values


def _cmd_viability(args):
    schedule = parse_schedule(args.schedule, args.horizon)
    report = classify_viability(schedule)
    payload = {
        "command": "viability",
        "schedule": to_entry(schedule),
        "horizon": args.horizon,
        "classification": report.classification.value,
        "integral": None if report.divergent else report.integral_value,
        "integral_label": report.integral_label(),
        "method": report.method.value,
    }
    if args.delta is not None:
        if not args.delta > 0:
            raise CliError(f"--delta must be positive for a truncated "
                           f"integral, got {args.delta!r}")
        payload["delta"] = args.delta
        payload["truncated_integral"] = viability_integral(schedule, args.delta)
    return _emit(args, payload,
                 ["schedule", "horizon", "classification", "integral", "method"],
                 [[describe(schedule), args.horizon, report.classification.value,
                   report.integral_label(), report.method.value]],
                 f"{describe(schedule)} on [0, {args.horizon:g}] -> "
                 f"{report.classification.value} "
                 f"(integral {report.integral_label()}, {report.method.value})")


def _cmd_simulate(args):
    cfg = _build_config(args)
    start = time.perf_counter()
    # called through its module, where bench/tracing.py wraps the estimate
    est = montecarlo.estimate_log_utility(cfg, threads=_threads_from(args))
    wall = time.perf_counter() - start
    if args.dump_path or args.dump_wealth:
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        values = first_path(grid.points, cfg.master_seed)
        if args.dump_path:
            _write_csv(args.dump_path, ["t", "B"], zip(grid.points, values))
        if args.dump_wealth:
            # no fraction is held past the last base time: its pi cell stays empty
            _write_csv(args.dump_wealth, ["t", "pi", "log_wealth"], itertools.zip_longest(
                *wealth_trace(run_plan(cfg, grid), values), fillvalue=""))
    payload = {**_header("simulate", cfg), **est.to_dict(), "wall_time_s": wall}
    digest = payload["config_digest"]
    return _emit(args, payload,
                 ["config_digest", "mean", "stderr", "ci_lo", "ci_hi", "n_paths",
                  "wall_time_s"],
                 [[digest, est.mean, est.stderr, *est.ci95, f"{est.n_paths}", wall]],
                 f"mean={est.mean:.6f} stderr={est.stderr:.6f} n={est.n_paths} "
                 f"digest={digest} wall={wall:.2f}s")


def _cmd_compare(args):
    cfg = _build_config(args)
    report = analysis.compare(cfg, abs_tol=args.abs_tol, threads=_threads_from(args))
    payload = {**_header("compare", cfg), "report": analysis.report_dict(report)}
    return _emit(args, payload, _REPORT_HEADER, _report_rows([report]),
                 f"{report.verdict.value}: theory={report.theory:.6f} "
                 f"mc={report.mc.mean:.6f} stderr={report.mc.stderr:.6f} "
                 f"z={report.z_score:+.2f}", failed=not report.passed())


def _cmd_sweep(args):
    cfg = _build_config(args)
    deltas = _floats(args.deltas, "--deltas")
    reports = analysis.truncation_sweep(cfg, deltas, abs_tol=args.abs_tol,
                                        threads=_threads_from(args))
    payload = {**_header("sweep", cfg),
               "reports": [analysis.report_dict(rep) for rep in reports]}
    n_pass = sum(rep.passed() for rep in reports)
    pretty = ", ".join(f"{d:g}" for d in deltas)
    return _emit(args, payload, _REPORT_HEADER, _report_rows(reports),
                 f"{n_pass}/{len(reports)} Pass across deltas [{pretty}]",
                 failed=n_pass < len(reports))


def _cmd_refine(args):
    if args.min_ratio is not None and not 0 < args.min_ratio < math.inf:
        raise CliError(f"--min-ratio must be finite and positive, got {args.min_ratio!r}")
    cfg = _build_config(args)
    theory = analysis.benchmark_value(cfg.market, cfg.strategy, cfg.delta)
    levels = refinement_study(cfg, levels=args.levels, factor=args.factor,
                              threads=_threads_from(args))
    gaps = [abs(level.estimate.mean - theory) for level in levels]
    ratios = [gaps[k] / gaps[k + 1] if gaps[k + 1] > 0 else math.inf
              for k in range(len(gaps) - 1)]
    passed = args.min_ratio is None or all(r >= args.min_ratio for r in ratios)
    verdict = analysis.Verdict.PASS if passed else analysis.Verdict.FAIL
    rows = [{"base_points": level.base_points, "mean": level.estimate.mean,
             "stderr": level.estimate.stderr, "abs_gap": gap}
            for level, gap in zip(levels, gaps)]
    payload = {**_header("refine", cfg), "theory": theory, "levels": rows,
               "gap_ratios": ratios, "min_ratio": args.min_ratio,
               "verdict": verdict.value}
    pretty_gaps = ", ".join(f"{g:.3e}" for g in gaps)
    pretty_ratios = ", ".join(f"{r:.2f}" for r in ratios)
    return _emit(args, payload, ["base_points", "mean", "stderr", "theory", "abs_gap"],
                 [[f'{r["base_points"]}', r["mean"], r["stderr"], theory, r["abs_gap"]]
                  for r in rows],
                 f"gaps [{pretty_gaps}] ratios [{pretty_ratios}] {verdict.value}",
                 failed=not passed)


def _cmd_duality(args):
    est, analytic = duality_check(args.kind, args.horizon, args.paths,
                                  args.base_points, args.seed, eps=args.eps,
                                  threads=_threads_from(args))
    z, verdict = analysis.grade(est.mean - analytic, est.stderr)
    payload = {"command": "duality", "kind": args.kind, "horizon": args.horizon,
               "eps": args.eps, "base_points": args.base_points, "seed": args.seed,
               **est.to_dict(), "analytic": analytic, "z_score": z,
               "verdict": verdict.value}
    return _emit(args, payload, ["kind", "analytic", "mean", "stderr", "z", "verdict"],
                 [[args.kind, analytic, est.mean, est.stderr, z, verdict.value]],
                 f"{args.kind}: mean={est.mean:.6f} analytic={analytic:g} "
                 f"z={z:+.2f} {verdict.value}",
                 failed=verdict is not analysis.Verdict.PASS)


def _even_grid(start: float, stop: float, points: int) -> list[float]:
    """np.linspace(start, stop, points), the same bits without numpy."""
    step = (stop - start) / (points - 1)
    if step == 0:  # linspace's branch for a step that underflows
        ys = [k / (points - 1) * (stop - start) + start for k in range(points)]
    else:
        ys = [k * step + start for k in range(points)]
    ys[-1] = stop
    return ys


def _cmd_donsker_table(args):
    if args.points < 2:
        raise CliError(f"--points must be at least 2, got {args.points}")
    if not 0 < args.span < math.inf:
        raise CliError(f"--span must be finite and positive, got {args.span!r}")
    p = DonskerParams(base=args.base, eps1=args.eps1, eps2=args.eps2)
    width = args.span * math.sqrt(args.eps2)
    ys = _even_grid(args.base - width, args.base + width, args.points)
    rows = []
    for y1 in ys:
        ratio = malliavin_ratio(args.base, y1, args.eps1)
        for y2 in ys:
            rows.append([y1, y2, cond_delta_2d(p, y1, y2),
                         cond_delta_deriv_2d(p, y1, y2), ratio])
    columns = ["y1", "y2", "density", "derivative", "ratio"]
    payload = {"command": "donsker-table", "base": args.base, "eps1": args.eps1,
               "eps2": args.eps2, "points": args.points, "span": args.span,
               "columns": columns, "rows": rows}
    return _emit(args, payload, columns, rows,
                 f"{len(rows)} rows (base={args.base:g}, eps1={args.eps1:g}, "
                 f"eps2={args.eps2:g})")


def _cmd_drift_check(args):
    ratios = _floats(args.ratios, "--ratios")
    rows = []
    for k, ratio in enumerate(ratios):
        h = ratio * args.eps
        # each ratio gets its own derived seed so rows are independent
        res = increment_regression(args.t, args.eps, h, args.paths, mix_seed(args.seed, k))
        expected = min(h, args.eps) / args.eps
        # ratio 1 lies on both sides of the window: one regression, two rows
        for kind in ["bridge"] * (ratio <= 1.0) + ["martingale"] * (ratio >= 1.0):
            z, verdict = analysis.grade(res.slope - expected, res.stderr)
            rows.append({"kind": kind, "h_over_eps": ratio, "slope": res.slope,
                         "stderr": res.stderr, "expected": expected,
                         "z_score": z, "verdict": verdict.value})
    payload = {"command": "drift-check", "t": args.t, "eps": args.eps,
               "paths": args.paths, "seed": args.seed, "rows": rows}
    n_pass = sum(r["verdict"] == analysis.Verdict.PASS.value for r in rows)
    return _emit(args, payload,
                 ["kind", "h_over_eps", "slope", "stderr", "expected", "z", "verdict"],
                 [[r["kind"], r["h_over_eps"], r["slope"], r["stderr"], r["expected"],
                   r["z_score"], r["verdict"]] for r in rows],
                 f"{n_pass}/{len(rows)} Pass (t={args.t:g}, eps={args.eps:g})",
                 failed=n_pass < len(rows))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (QuadratureError, BatchAbort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MonteCarloError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
