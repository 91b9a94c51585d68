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
    plan = wealth_plan(market, strategy, grid, delta)
    if delta <= 0:
        report = classify_viability(schedule)
        if report.classification is not Classification.VIABLE:
            raise ForwardError(
                "delta = 0 reaches the horizon, but the schedule's look-ahead "
                "integral diverges there; pass a positive truncation delta"
            )
    else:
        tail_start = T - 10.0 * delta
        tail_gaps = plan.dt[plan.t_left >= tail_start - 1e-12]
        max_tail_gap = float(tail_gaps.max() if tail_gaps.size else plan.dt.max())
        scale = max(delta, float(schedule.eval(T - delta)))
        if 100.0 * max_tail_gap > scale:
            raise ForwardError(
                f"tail grid step {max_tail_gap:.3g} too coarse for truncation "
                f"delta={delta:.3g} (look-ahead at the cut is {scale:.3g}); "
                "refine the base grid or enlarge delta"
            )
    short = np.flatnonzero(plan.eps < plan.dt)
    if short.size:
        j = short[0]
        raise ForwardError(
            f"look-ahead {plan.eps[j]:.3g} at t={plan.t_left[j]:.6g} is shorter than its "
            f"grid step {plan.dt[j]:.3g}; refine the base grid or enlarge delta"
        )


@dataclass(frozen=True)
class WealthPlan:
    """What the log-wealth kernels read from one (market, strategy, grid,
    delta), evaluated once per grid: base-step indices, left-end values,
    and for the insider the anchors, eps, 1/eps and ``const``, the
    pair average's deterministic part sum (alpha/beta)^2 dt/2 + log x0."""

    left: np.ndarray
    right: np.ndarray
    t_left: np.ndarray
    dt: np.ndarray
    half_dt: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    pi: np.ndarray
    anchors: np.ndarray | None = None
    eps: np.ndarray | None = None
    inv_eps: np.ndarray | None = None
    const: float = 0.0


def wealth_plan(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid,
                delta: float) -> WealthPlan:
    """The per-grid plan that log_wealth_matrix runs on."""
    T = market.horizon
    if not (0 <= delta < T):
        raise ForwardError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    if grid.base_indices is not None:
        sub = np.asarray(grid.base_indices, dtype=np.int64)
    else:
        sub = np.flatnonzero(grid.points <= T - delta + 1e-12)
    if sub.size < 2:
        raise ForwardError("no integration steps below the truncated horizon")
    left = sub[:-1]
    t_left = grid.points[left]
    dt = np.diff(grid.points[sub])
    alpha = market.alpha(t_left)
    beta = market.beta(t_left)
    honest = alpha / beta**2
    common = dict(left=left, right=sub[1:], t_left=t_left, dt=dt, half_dt=0.5 * dt,
                  alpha=alpha, beta=beta)
    if isinstance(strategy, (HonestStrategy, TableStrategy)):
        pi = honest if isinstance(strategy, HonestStrategy) else strategy.fraction(t_left)
        return WealthPlan(pi=pi, **common)
    if not isinstance(strategy, InsiderStrategy):
        raise ForwardError(f"unknown strategy type {type(strategy).__name__}")
    if grid.anchor_indices is None:
        raise ForwardError("insider strategy needs a grid carrying anchor indices; "
                           "build it with union_grid")
    eps = strategy.schedule.eval(t_left)
    const = float(np.sum(0.5 * (alpha / beta) ** 2 * dt) + np.log(market.x0))
    anchors = np.asarray(grid.anchor_indices, dtype=np.int64)[: left.size]
    return WealthPlan(pi=honest, anchors=anchors, eps=eps, inv_eps=1.0 / eps,
                      const=const, **common)


def _raise_on_bad_row(block: np.ndarray) -> None:
    """ForwardError naming the first row of ``block`` with a non-finite entry."""
    bad = ~np.isfinite(block)
    if np.any(bad):
        row = int(np.argwhere(bad)[0][0])
        err = ForwardError(f"non-finite portfolio fraction on path row {row}")
        err.row = row
        raise err


def _wealth_terms(plan: WealthPlan, values: np.ndarray, pi_cap: float | None,
                  antithetic: bool = False):
    """Increments and a list of pi on the base sub-grid: pi along ``values``
    and, with antithetic, along ``-values``."""
    # take() gathers into C layout, which keeps the later row sums
    # independent of how many rows ride along
    pi = np.take(values, plan.left, axis=1)
    increments = np.take(values, plan.right, axis=1)
    increments -= pi
    if plan.anchors is not None:
        correction = np.take(values, plan.anchors, axis=1)
        np.subtract(pi, correction, out=correction)
        correction /= plan.beta * plan.eps
        pis = [np.subtract(plan.pi, correction, out=pi)]
        if antithetic:
            # negating the path negates the correction exactly
            pis.append(np.add(plan.pi, correction, out=correction))
    else:
        pi[...] = plan.pi
        pis = [pi] * (1 + antithetic)
    if pi_cap is not None:
        for pi in pis:
            np.clip(pi, -pi_cap, pi_cap, out=pi)
    return increments, pis


def _insider_pairs(plan: WealthPlan, values: np.ndarray):
    """(total, stochastic, drift) of the insider's antithetic pair averages.

    With r = (B(anchor) - B(t))/eps a pair averages to const + sum r*dB -
    sum r^2 dt/2: the drift term linear in r cancels, as alpha equals
    (alpha/beta^2)*beta^2, and the honest beta*dB term is odd in the path.
    """
    left = np.take(values, plan.left, axis=1)
    r = np.take(values, plan.anchors, axis=1)
    gain = np.take(values, plan.right, axis=1)
    np.subtract(r, left, out=r)
    r *= plan.inv_eps
    np.subtract(gain, left, out=gain)
    gain *= r
    penalty = np.multiply(r, r, out=left)
    penalty *= plan.half_dt
    stochastic = np.sum(gain, axis=1)
    drift = plan.const - np.sum(penalty, axis=1)
    total = stochastic + drift
    if not np.all(np.isfinite(total)):
        _raise_on_bad_row(r)
    return total, stochastic, drift


def log_wealth_matrix(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid,
                      values: np.ndarray, delta: float, pi_cap: float | None = None,
                      antithetic: bool = False, *, plan: WealthPlan | None = None):
    """Vectorized log wealth for a block of paths.

    ``values`` has one row per path, aligned with ``grid.points``.
    Returns (log_wealth, stochastic_part, drift_part) arrays, one entry
    per row; with antithetic each is the average of the calls on
    ``values`` and ``-values``, bit for bit except for the uncapped
    insider's closed-form pairs.  Raises ForwardError naming the offending
    row if any portfolio fraction fails to be finite.  ``plan`` defaults
    to wealth_plan(market, strategy, grid, delta).  Callers run
    check_truncation.
    """
    if plan is None:
        plan = wealth_plan(market, strategy, grid, delta)
    values = np.atleast_2d(np.asarray(values, dtype=float))
    # Only the uncapped insider's pairs take the closed form: clipping is
    # not odd-symmetric, and honest or table pairs would collapse to an
    # exact constant whose zero standard error makes every z infinite.
    if antithetic and pi_cap is None and plan.anchors is not None:
        return _insider_pairs(plan, values)
    increments, pis = _wealth_terms(plan, values, pi_cap, antithetic)
    sides = []
    for pi, sign in zip(pis, (1.0, -1.0)):
        _raise_on_bad_row(pi)
        # rounding is odd-symmetric, so negating the sum negates every term
        stochastic = sign * np.sum(pi * plan.beta * increments, axis=1)
        drift = np.sum((pi * plan.alpha - 0.5 * pi**2 * plan.beta**2) * plan.dt, axis=1)
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

    plan = wealth_plan(market, strategy, path.grid, delta)
    increments, (pi,) = _wealth_terms(plan, path.values[None, :], None)
    running = np.cumsum(pi * plan.beta * increments
                        + (pi * plan.alpha - 0.5 * pi**2 * plan.beta**2) * plan.dt)
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "pi", "log_wealth"])
        for t, frac, lw in zip(plan.t_left, pi[0], running):
            writer.writerow([f"{t:.17g}", f"{frac:.17g}", f"{lw:.17g}"])
