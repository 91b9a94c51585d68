"""Scalar reference routes that the tests hold the vectorized engine to.

The lab itself runs only the block kernels in ``forward_sde`` and the one
sampler in ``montecarlo``.  The routes here restate the same quantities one
path, one time or one sum at a time, on a grid and its row of path values,
so that each test can compare the engine against a second, simpler reading.
The table checks of ``schedules``, which run in plain Python, are restated
here on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from insider_lab.brownian import MERGE_TOL, GridError, TimeGrid
from insider_lab.config import ExperimentConfig, digest_of, to_dict
from insider_lab.donsker import DonskerError, malliavin_ratio
from insider_lab.forward_sde import (
    ForwardError,
    check_truncation,
    log_wealth_matrix,
    wealth_plan,
)
from insider_lab.montecarlo import _normal_block
from insider_lab.schedules import EpsilonSchedule, Regime
from insider_lab.strategy import MarketCoefficients, Strategy


def config_digest(cfg: ExperimentConfig) -> str:
    """The digest the CLI stamps on every result of ``cfg``."""
    return digest_of(to_dict(cfg))


def draw(grid: TimeGrid, seed: int) -> np.ndarray:
    """The Brownian row the engine draws for ``seed`` on ``grid``."""
    return _normal_block([seed], np.sqrt(np.diff(grid.points)))[0]


def check_path(grid: TimeGrid, values) -> np.ndarray:
    """``values`` as a float row, refused unless it is a Brownian path on ``grid``."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.points.shape:
        raise GridError("path values must align with the grid points")
    if vals[0] != 0.0:
        raise GridError("Brownian path must start at 0")
    return vals


def index_of(grid: TimeGrid, t: float) -> int:
    """Index of the grid point equal to t within MERGE_TOL; error if absent."""
    i = int(np.searchsorted(grid.points, t))
    for j in (i - 1, i, i + 1):
        if 0 <= j < len(grid.points) and abs(grid.points[j] - t) <= MERGE_TOL:
            return j
    raise GridError(f"time {t!r} is not a grid point; refusing to interpolate")


def value_at(grid: TimeGrid, values, t: float) -> float:
    """Stored path value at grid time t; off-grid times are an error."""
    return float(check_path(grid, values)[index_of(grid, t)])


def forward_integral(phi, grid: TimeGrid, values, sub_indices) -> float:
    """Left-endpoint Riemann sum of phi against the path increments.

    ``phi`` holds the integrand at the left endpoint of every sub-grid
    step, so its length must be one less than the number of sub-grid
    nodes.
    """
    values = check_path(grid, values)
    sub = np.asarray(sub_indices, dtype=np.int64)
    if sub.ndim != 1 or sub.size < 2:
        raise ForwardError("sub-grid needs at least two node indices")
    if np.any(np.diff(sub) <= 0):
        raise ForwardError("sub-grid indices must be strictly increasing")
    if sub[0] < 0 or sub[-1] >= len(values):
        raise ForwardError("sub-grid indices fall outside the path grid")
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (sub.size - 1,):
        raise ForwardError(
            f"integrand has {phi.size} values for {sub.size - 1} left endpoints"
        )
    increments = values[sub[1:]] - values[sub[:-1]]
    return float(np.dot(phi, increments))


# Adapted integrands use the very same left-endpoint sum; the alias is
# the public face of that guarantee.
ito_integral = forward_integral


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


def log_wealth(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid, values,
               delta: float, pi_cap: float | None = None) -> LogWealthSample:
    """Log wealth of one path at horizon T - delta, refused if check_truncation fails."""
    values = check_path(grid, values)
    plan = wealth_plan(market, strategy, grid, delta, pi_cap)
    total, stoch, drift = log_wealth_matrix(plan, values[None, :])
    check_truncation(plan)
    return LogWealthSample(
        horizon=market.horizon - delta,
        log_wealth=float(total[0]),
        stochastic_part=float(stoch[0]),
        drift_part=float(drift[0]),
    )


def honest_merton(market: MarketCoefficients, t: float) -> float:
    """alpha(t)/beta(t)^2, the log-optimal fraction without look-ahead."""
    return market.alpha(t) / market.beta(t) ** 2


def insider_optimal(market: MarketCoefficients, schedule: EpsilonSchedule,
                    grid: TimeGrid, values, t: float) -> float:
    """Honest fraction plus (anchor noise - current noise)/(beta * eps_t).

    Both t and t + eps_t must be grid points; missing times raise rather
    than interpolate.
    """
    eps = schedule.eval(t)
    b_now = value_at(grid, values, t)
    b_anchor = value_at(grid, values, t + eps)
    return honest_merton(market, t) - (b_now - b_anchor) / (market.beta(t) * eps)


def donsker_composed(market: MarketCoefficients, schedule: EpsilonSchedule,
                     grid: TimeGrid, values, t: float) -> float:
    """Same portfolio from the conditional-density layer's ratio.

    Only the first look-ahead horizon enters; any second horizon (and
    the value observed there) cancels between derivative and density, so
    the result must agree with insider_optimal to rounding.
    """
    eps = schedule.eval(t)
    b_now = value_at(grid, values, t)
    b_anchor = value_at(grid, values, t + eps)
    ratio = malliavin_ratio(b_now, b_anchor, eps)
    return honest_merton(market, t) + ratio / market.beta(t)


def cond_delta_1d(base: float, y: float, eps: float) -> float:
    """Conditional density of a single look-ahead value: N(base, eps) at y."""
    if not (math.isfinite(eps) and eps > 0):
        raise DonskerError(f"eps must be positive, got {eps!r}")
    log_d = -0.5 * (math.log(2.0 * math.pi) + math.log(eps)) - (y - base) ** 2 / (2.0 * eps)
    if log_d < math.log(1e-300):
        return 0.0
    return math.exp(log_d)


def bridge_increments(eps: float, h: float, n_paths: int, seed: int):
    """(window increment, increment to t + h) for h <= eps, the bridge way:
    B(t+h) - B(t) is drawn first and the rest of the window added to it."""
    if not 0 < h <= eps:
        raise ValueError(f"need 0 < h <= eps, got h={h!r}, eps={eps!r}")
    z = np.random.default_rng(seed).standard_normal((2, n_paths))
    y = math.sqrt(h) * z[0]
    return y + math.sqrt(eps - h) * z[1], y


def martingale_increments(eps: float, h: float, n_paths: int, seed: int):
    """(window increment, increment to t + h) for h >= eps, the martingale
    way: the window increment is drawn first and the independent future
    past t + eps added to it."""
    if not h >= eps > 0:
        raise ValueError(f"need h >= eps > 0, got h={h!r}, eps={eps!r}")
    z = np.random.default_rng(seed).standard_normal((2, n_paths))
    x = math.sqrt(eps) * z[0]
    return x, x + math.sqrt(h - eps) * z[1]


def _table_eval(knots, t: np.ndarray) -> np.ndarray:
    times = np.array([k[0] for k in knots], dtype=float)
    eps = np.array([k[1] for k in knots], dtype=float)
    return np.interp(t, times, eps)


def table_regime(knots, T: float) -> Regime:
    """``schedules.regime`` of a table on [0, T], on numpy arrays."""
    t = np.union1d([0.0, T], [k[0] for k in knots if 0.0 <= k[0] < T])
    anchors = t + _table_eval(knots, t)
    tol = 1e-12 * max(1.0, T)
    if np.all(anchors >= T - tol):
        return Regime.ABOVE_HORIZON
    if np.all(anchors <= T + tol):
        return Regime.BELOW_HORIZON
    return Regime.MIXED


def anchors_oscillate(knots, T: float) -> bool:
    """Whether ``schedules._check_anchor_convergence`` refuses a table, on
    numpy arrays: split |t + eps_t - T| on [7T/8, T] where the gap changes
    sign, and look for a rise after a fall on either side."""
    start = 0.875 * T
    t = np.union1d([start, T], [k[0] for k in knots if start < k[0] < T])
    gap = t + _table_eval(knots, t) - T
    tol = 1e-12 * max(1.0, T)
    for side in np.split(np.abs(gap), np.flatnonzero(gap[:-1] * gap[1:] < 0) + 1):
        steps = np.diff(side)
        falls = np.flatnonzero(steps < -tol)
        rises = np.flatnonzero(steps > tol)
        if falls.size and rises.size and rises[-1] > falls[0]:
            return True
    return False
