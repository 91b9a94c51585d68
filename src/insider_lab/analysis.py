"""Closed-form benchmarks and theory-versus-simulation comparison reports.

The benchmark for the look-ahead portfolio is log x0 plus half the sum of
two integrals over [0, T - delta]: the reciprocal look-ahead integral and the
squared drift-to-volatility ratio, both exact (the first in closed form for
every schedule kind, the second for step coefficients).  Sweeping delta toward
zero makes the dichotomy visible: benchmarks converge exactly when the
reciprocal integral does, and grow without bound otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from insider_lab.brownian import union_grid
from insider_lab.config import ExperimentConfig, describe
from insider_lab.montecarlo import McEstimate, estimate_log_utility, run_plan
from insider_lab.schedules import Classification, classify_viability, viability_integral
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    Strategy,
)

DEFAULT_ABS_TOL = 0.02


class AnalysisError(ValueError):
    """Benchmark or report construction failed."""


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"


def benchmark_value(market: MarketCoefficients, strategy: Strategy,
                    delta: float) -> float:
    """Expected log wealth of the strategy's optimal portfolio at T - delta.

    log x0 plus half of [integral of 1/eps + integral of (alpha/beta)^2]
    over [0, T - delta], the first over the insider's own schedule; the
    honest portfolio has no look-ahead part.  With delta = 0 the insider's
    value exists only for viable schedules; divergent ones raise instead of
    returning infinity so a truncation choice is always explicit.
    """
    T = market.horizon
    insider = isinstance(strategy, InsiderStrategy)
    if not (insider or isinstance(strategy, HonestStrategy)):
        raise AnalysisError(
            f"no closed-form benchmark for strategy {describe(strategy)!r}; "
            "only the honest and look-ahead portfolios have one"
        )
    if insider and abs(strategy.schedule.horizon - T) > 1e-12:
        raise AnalysisError(f"schedule horizon {strategy.schedule.horizon} disagrees "
                            f"with market horizon {T}")
    if not 0 <= delta < T:
        raise AnalysisError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    if not insider:
        lookahead_part = 0.0
    elif delta > 0:
        lookahead_part = viability_integral(strategy.schedule, delta)
    else:
        report = classify_viability(strategy.schedule)
        if report.classification is not Classification.VIABLE:
            raise AnalysisError(
                "the look-ahead integral diverges at the horizon, so expected "
                "log utility is unbounded; pass delta > 0 for a truncated value"
            )
        lookahead_part = report.integral_value
    return 0.5 * (lookahead_part + market.squared_ratio_integral(T - delta)) + math.log(market.x0)


def grade(diff: float, stderr: float, abs_tol: float = 0.0) -> tuple[float, Verdict]:
    """(z, verdict) of a deviation: Pass when |diff| <= max(3 stderr, abs_tol)."""
    if stderr > 0:
        z = diff / stderr
    elif diff == 0:
        z = 0.0
    else:
        z = math.copysign(math.inf, diff)
    return z, Verdict.PASS if abs(diff) <= max(3 * stderr, abs_tol) else Verdict.FAIL


@dataclass(frozen=True)
class ComparisonReport:
    """Benchmark value against a Monte Carlo estimate at the same delta.

    The verdict follows grade: it passes when the estimate sits within
    max(3 standard errors, abs_tol) of the benchmark; z_score records
    the signed distance in stderr units.
    """

    theory: float
    mc: McEstimate
    delta: float
    abs_tol: float = DEFAULT_ABS_TOL

    @property
    def z_score(self) -> float:
        return grade(self.mc.mean - self.theory, self.mc.stderr, self.abs_tol)[0]

    @property
    def verdict(self) -> Verdict:
        return grade(self.mc.mean - self.theory, self.mc.stderr, self.abs_tol)[1]

    def passed(self) -> bool:
        return self.verdict is Verdict.PASS


def compare(cfg: ExperimentConfig, abs_tol: float = DEFAULT_ABS_TOL,
            threads: int | None = None) -> ComparisonReport:
    """Run the estimator and grade it against the closed-form benchmark.
    A negative or non-finite abs_tol is refused before any path is drawn."""
    if not 0 <= abs_tol < math.inf:
        raise AnalysisError(f"abs_tol cannot be negative or non-finite, got {abs_tol!r}")
    theory = benchmark_value(cfg.market, cfg.strategy, cfg.delta)
    mc = estimate_log_utility(cfg, threads=threads)
    return ComparisonReport(theory=theory, mc=mc, delta=cfg.delta, abs_tol=abs_tol)


def truncation_sweep(cfg: ExperimentConfig, deltas, abs_tol: float = DEFAULT_ABS_TOL,
                     threads: int | None = None) -> list[ComparisonReport]:
    """One comparison per truncation level, largest delta first.

    Benchmarks of a divergent schedule grow as delta shrinks; a viable
    schedule's benchmarks settle toward the delta = 0 value instead.
    Every level's config, benchmark and plan is built, and so checked,
    before any path is drawn.
    """
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise AnalysisError("sweep needs at least one delta")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise AnalysisError(f"deltas must be strictly decreasing, got {deltas}")
    levels = [replace(cfg, delta=d) for d in deltas]
    for level in levels:
        benchmark_value(level.market, level.strategy, level.delta)
        run_plan(level, union_grid(level.base_points, level.schedule, level.delta))
    return [compare(level, abs_tol=abs_tol, threads=threads) for level in levels]


def report_dict(report: ComparisonReport) -> dict:
    """Plain-data form of one report, ready for JSON."""
    return {
        "delta": report.delta,
        "theory": report.theory,
        **report.mc.to_dict(),
        "z_score": report.z_score,
        "verdict": report.verdict.value,
        "abs_tol": report.abs_tol,
    }

