"""Forward stochastic integrals and pathwise log wealth.

The anticipating integral of a look-ahead integrand is approximated by
its left-endpoint Riemann sum: sum of phi(t_j) * (B(t_{j+1}) - B(t_j)).
The evaluation point is a hard contract, not a quadrature choice:
midpoint or trapezoid rules would couple the integrand to the increment
inside each step and estimate a different (Stratonovich-style) object,
silently destroying the look-ahead drift the simulation exists to
measure.  For adapted integrands the same sum is the ordinary Ito sum,
which is why there is exactly one code path for both.

Wealth never goes through an exponential SDE step scheme: the log
wealth of a fraction-of-wealth strategy pi is written directly as

    log X(T') = sum pi*beta dB  +  sum (pi*alpha - pi^2 beta^2 / 2) dt

over the base sub-grid up to the truncated horizon T' = T - delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insider_lab.brownian import BrownianPath, TimeGrid
from insider_lab.schedules import Classification, classify_viability
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    Strategy,
    TableStrategy,
)


class ForwardError(ValueError):
    """Inconsistent integrand, grid or truncation parameters."""


@dataclass(frozen=True)
class LogWealthSample:
    """Log wealth of one path at the truncated horizon.

    ``log_wealth`` is stored as the float sum of the two parts, so the
    decomposition identity is exact by construction, not approximately.
    """

    horizon: float
    log_wealth: float
    stochastic_part: float
    drift_part: float

    def __post_init__(self):
        if self.log_wealth != self.stochastic_part + self.drift_part:
            raise ForwardError("log_wealth must equal stochastic_part + drift_part exactly")


def forward_integral(phi, path: BrownianPath, sub_indices) -> float:
    """Left-endpoint Riemann sum of phi against the path increments.

    ``phi`` holds the integrand at the left endpoint of every sub-grid
    step, so its length must be one less than the number of sub-grid
    nodes.
    """
    sub = np.asarray(sub_indices, dtype=np.int64)
    if sub.ndim != 1 or sub.size < 2:
        raise ForwardError("sub-grid needs at least two node indices")
    if np.any(np.diff(sub) <= 0):
        raise ForwardError("sub-grid indices must be strictly increasing")
    if sub[0] < 0 or sub[-1] >= len(path.values):
        raise ForwardError("sub-grid indices fall outside the path grid")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (sub.size - 1,):
        raise ForwardError(
            f"integrand has {phi.size} values for {sub.size - 1} left endpoints"
        )
    increments = path.values[sub[1:]] - path.values[sub[:-1]]
    return float(np.dot(phi, increments))


# Adapted integrands use the very same left-endpoint sum; the alias is
# the public face of that guarantee.
ito_integral = forward_integral


def _eval_sub_indices(grid: TimeGrid, horizon: float, delta: float) -> np.ndarray:
    if grid.base_indices is not None:
        return np.asarray(grid.base_indices, dtype=np.int64)
    end = horizon - delta
    return np.flatnonzero(grid.points <= end + 1e-12).astype(np.int64)


def check_truncation(market: MarketCoefficients, strategy: Strategy,
                     grid: TimeGrid, delta: float) -> None:
    """Enforce the truncation rules for look-ahead strategies.

    The left-endpoint bias of the look-ahead integrand scales with
    (grid step)/eps_t, worst at the truncated horizon.  Require the
    largest base-grid step over the refined tail block to be at least
    100 times smaller than max(delta, eps(T - delta)).  With delta = 0
    the horizon itself is reached, which is only meaningful for viable
    schedules; divergent ones must be truncated.

    Every base step must also be no longer than the look-ahead at its
    left end, eps(t_j) >= dt_j, so that each anchor lies beyond the end
    of its step: then discretized_mean is the estimator's exact mean.
    """
    if not isinstance(strategy, InsiderStrategy):
        return
    schedule = strategy.schedule
    T = market.horizon
    base = grid.points[_eval_sub_indices(grid, T, delta)]
    gaps = np.diff(base)
    if delta <= 0:
        report = classify_viability(schedule)
        if report.classification is not Classification.VIABLE:
            raise ForwardError(
                "delta = 0 reaches the horizon, but the schedule's look-ahead "
                "integral diverges there; pass a positive truncation delta"
            )
    else:
        tail_start = T - 10.0 * delta
        tail_gaps = gaps[base[:-1] >= tail_start - 1e-12]
        max_tail_gap = float(tail_gaps.max() if tail_gaps.size else gaps.max())
        scale = max(delta, float(schedule.eval(T - delta)))
        if 100.0 * max_tail_gap > scale:
            raise ForwardError(
                f"tail grid step {max_tail_gap:.3g} too coarse for truncation "
                f"delta={delta:.3g} (look-ahead at the cut is {scale:.3g}); "
                "refine the base grid or enlarge delta"
            )
    eps = schedule.eval(base[:-1])
    short = np.flatnonzero(eps < gaps)
    if short.size:
        j = short[0]
        raise ForwardError(
            f"look-ahead {eps[j]:.3g} at t={base[j]:.6g} is shorter than its grid "
            f"step {gaps[j]:.3g}; refine the base grid or enlarge delta"
        )


def _wealth_terms(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid,
                  values: np.ndarray, delta: float, pi_cap: float | None,
                  antithetic: bool = False):
    """Left times, steps, alpha, beta, increments and a list of pi on the
    base sub-grid: pi along ``values`` and, with antithetic, along ``-values``."""
    sub = _eval_sub_indices(grid, market.horizon, delta)
    if sub.size < 2:
        raise ForwardError("no integration steps below the truncated horizon")
    left = sub[:-1]
    t_left = grid.points[left]
    dt = np.diff(grid.points[sub])
    alpha = market.alpha(t_left)
    beta = market.beta(t_left)
    honest = alpha / beta**2
    # take() gathers into C layout, which keeps the later row sums
    # independent of how many rows ride along
    pi = np.take(values, left, axis=1)
    increments = np.take(values, sub[1:], axis=1)
    increments -= pi
    if isinstance(strategy, InsiderStrategy):
        if grid.anchor_indices is None:
            raise ForwardError("insider strategy needs a grid carrying anchor indices; "
                               "build it with union_grid")
        anchors = np.asarray(grid.anchor_indices, dtype=np.int64)[: left.size]
        correction = np.take(values, anchors, axis=1)
        np.subtract(pi, correction, out=correction)
        correction /= beta * strategy.schedule.eval(t_left)
        pis = [np.subtract(honest, correction, out=pi)]
        if antithetic:
            # negating the path negates the correction exactly
            pis.append(np.add(honest, correction, out=correction))
    elif isinstance(strategy, (HonestStrategy, TableStrategy)):
        pi[...] = honest if isinstance(strategy, HonestStrategy) else strategy.fraction(t_left)
        pis = [pi] * (1 + antithetic)
    else:
        raise ForwardError(f"unknown strategy type {type(strategy).__name__}")
    if pi_cap is not None:
        for pi in pis:
            np.clip(pi, -pi_cap, pi_cap, out=pi)
    return t_left, dt, alpha, beta, increments, pis


def log_wealth_matrix(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid,
                      values: np.ndarray, delta: float, pi_cap: float | None = None,
                      antithetic: bool = False):
    """Vectorized log wealth for a block of paths.

    ``values`` has one row per path, aligned with ``grid.points``.
    Returns (log_wealth, stochastic_part, drift_part) arrays, one entry
    per row; with antithetic each is, bit for bit, the average of the
    calls on ``values`` and ``-values``.  Raises ForwardError naming the
    offending row if any portfolio fraction fails to be finite.  Callers
    run check_truncation.
    """
    T = market.horizon
    if not (0 <= delta < T):
        raise ForwardError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _, dt, alpha, beta, increments, pis = _wealth_terms(market, strategy, grid, values,
                                                        delta, pi_cap, antithetic)
    sides = []
    for pi, sign in zip(pis, (1.0, -1.0)):
        bad = ~np.isfinite(pi)
        if np.any(bad):
            row = int(np.argwhere(bad)[0][0])
            err = ForwardError(f"non-finite portfolio fraction on path row {row}")
            err.row = row
            raise err
        # rounding is odd-symmetric, so negating the sum negates every term
        stochastic = sign * np.sum(pi * beta * increments, axis=1)
        drift = np.sum((pi * alpha - 0.5 * pi**2 * beta**2) * dt, axis=1)
        if market.x0 != 1.0:
            # deterministic initial term folded into the drift part so the
            # decomposition identity stays exact
            drift = drift + np.log(market.x0)
        sides.append((stochastic + drift, stochastic, drift))
    return sides[0] if len(sides) == 1 else tuple(0.5 * (p + m) for p, m in zip(*sides))


def log_wealth(market: MarketCoefficients, strategy: Strategy, path: BrownianPath,
               delta: float, pi_cap: float | None = None) -> LogWealthSample:
    """Log wealth of one path at horizon T - delta, refused if check_truncation fails."""
    total, stoch, drift = log_wealth_matrix(
        market, strategy, path.grid, path.values[None, :], delta, pi_cap
    )
    check_truncation(market, strategy, path.grid, delta)
    return LogWealthSample(
        horizon=market.horizon - delta,
        log_wealth=float(total[0]),
        stochastic_part=float(stoch[0]),
        drift_part=float(drift[0]),
    )


def dump_wealth_csv(market: MarketCoefficients, strategy: Strategy, path: BrownianPath,
                    delta: float, target) -> None:
    """Write (t, pi, log_wealth) rows along one path; debug aid."""
    import csv

    t_left, dt, alpha, beta, increments, (pi,) = _wealth_terms(
        market, strategy, path.grid, path.values[None, :], delta, None)
    running = np.cumsum(pi * beta * increments + (pi * alpha - 0.5 * pi**2 * beta**2) * dt)
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "pi", "log_wealth"])
        for t, frac, lw in zip(t_left, pi[0], running):
            writer.writerow([f"{t:.17g}", f"{frac:.17g}", f"{lw:.17g}"])
