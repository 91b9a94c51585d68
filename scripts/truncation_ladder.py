#!/usr/bin/env python3
"""Trace the blow-up of insider log utility as the truncation shrinks.

For a schedule whose look-ahead integral diverges at the horizon, the
achievable expected log utility grows like half the truncated integral.
This script tabulates Monte Carlo estimates against that closed form
over a ladder of truncation levels, so the logarithmic divergence is
visible line by line.
"""

import argparse

from insider_lab.analysis import truncation_sweep
from insider_lab.config import ExperimentConfig, parse_schedule
from insider_lab.strategy import InsiderStrategy, MarketCoefficients


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--schedule", default="powerlaw:q=1",
                        help="look-ahead literal (default powerlaw:q=1)")
    parser.add_argument("--alpha", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=0.2)
    parser.add_argument("--T", type=float, default=1.0)
    parser.add_argument("--paths", type=int, default=20000)
    parser.add_argument("--base-points", type=int, default=4096)
    parser.add_argument("--deltas", default="0.2,0.1,0.05,0.02,0.01",
                        help="comma-separated truncation ladder, decreasing")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--abs-tol", type=float, default=0.05)
    args = parser.parse_args()

    deltas = [float(x) for x in args.deltas.split(",") if x.strip()]
    schedule = parse_schedule(args.schedule, args.T)
    market = MarketCoefficients(alpha=args.alpha, beta=args.beta, horizon=args.T)
    cfg = ExperimentConfig(market=market, schedule=schedule,
                           strategy=InsiderStrategy(schedule),
                           n_paths=args.paths, base_points=args.base_points,
                           delta=deltas[0], master_seed=args.seed)

    reports = truncation_sweep(cfg, deltas, abs_tol=args.abs_tol)
    print(f"{'delta':>8} {'theory':>10} {'mc mean':>10} {'stderr':>9} "
          f"{'z':>7}  verdict")
    for rep in reports:
        print(f"{rep.delta:>8g} {rep.theory:>10.4f} {rep.mc.mean:>10.4f} "
              f"{rep.mc.stderr:>9.1e} {rep.z_score:>+7.2f}  {rep.verdict.value}")


if __name__ == "__main__":
    main()
