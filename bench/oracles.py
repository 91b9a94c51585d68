"""Reference values computed apart from insider-lab, and the checks that use them.

Every closed form here is written out from the mathematics, not taken
from the program:

* the look-ahead integral of 1/eps over [0, T - delta] for each schedule
  kind (power law, constant, affine-below, piecewise-linear table);
* the insider's expected log utility 0.5 * [that integral + (alpha/beta)^2 (T - delta)];
* the exact mean of the discretized estimator on a base grid,
  sum dt * (0.5/eps + 0.5 (alpha/beta)^2), which equals the estimator's
  expectation whenever every grid step is shorter than its look-ahead;
* the bivariate normal density of the two look-ahead values, from scipy.

The check functions return ``(ok, detail)`` so that a failed check can
be reported next to the operation that produced it.  ``K_SIGMA`` is the
Monte Carlo tolerance in standard errors.
"""

from __future__ import annotations

import json
import math

import numpy as np

K_SIGMA = 4.0


# --- grids -----------------------------------------------------------------

def base_grid(n: int, horizon: float, delta: float) -> np.ndarray:
    """The lab's documented two-block base grid on [0, T - delta].

    Uniform on [0, T - 10 delta), then ten times denser on
    [T - 10 delta, T - delta]; one uniform block when delta is 0.
    """
    end = horizon - delta
    split = horizon - 10.0 * delta
    if delta <= 0 or split <= 0 or n < 4:
        return np.linspace(0.0, end, n)
    n_head = int(round(n * split / (horizon + 80.0 * delta)))
    n_head = min(max(n_head, 1), n - 2)
    head = np.linspace(0.0, split, n_head, endpoint=False)
    tail = np.linspace(split, end, n - n_head)
    return np.concatenate([head, tail])


# --- schedules -------------------------------------------------------------

def eps_of(schedule: dict, t: np.ndarray, horizon: float) -> np.ndarray:
    """Look-ahead eps_t of a schedule given as a config entry."""
    kind = schedule["kind"]
    if kind == "powerlaw":
        return (horizon - t) ** schedule["q"]
    if kind == "const":
        return np.full_like(t, schedule["value"], dtype=float)
    if kind == "affine_below":
        return schedule["c"] * (horizon - t)
    if kind == "table":
        knots = np.asarray(schedule["knots"], dtype=float)
        return np.interp(t, knots[:, 0], knots[:, 1])
    raise ValueError(f"unknown schedule kind {kind!r}")


def lookahead_integral(schedule: dict, horizon: float, delta: float) -> float:
    """Exact integral of 1/eps_t over [0, T - delta]; math.inf if divergent."""
    kind = schedule["kind"]
    T, end = horizon, horizon - delta
    if kind == "powerlaw":
        q = schedule["q"]
        if delta == 0 and q >= 1:
            return math.inf
        if q == 1:
            return math.log(T / delta)
        return (T ** (1 - q) - delta ** (1 - q)) / (1 - q)
    if kind == "const":
        return end / schedule["value"]
    if kind == "affine_below":
        return math.inf if delta == 0 else math.log(T / delta) / schedule["c"]
    if kind == "table":
        # eps is linear on each segment: integral of 1/(e0 + s (e1 - e0)/dt)
        total = 0.0
        for (t0, e0), (t1, e1) in zip(schedule["knots"], schedule["knots"][1:]):
            if t0 >= end:
                break
            if t1 > end:
                e1 = e0 + (e1 - e0) * (end - t0) / (t1 - t0)
                t1 = end
            dt = t1 - t0
            total += dt / e0 if e1 == e0 else dt * math.log(e1 / e0) / (e1 - e0)
        return total
    raise ValueError(f"unknown schedule kind {kind!r}")


def table_regime(knots, horizon: float) -> str:
    """AboveHorizon, BelowHorizon or Mixed, decided at the knots.

    The anchor map t + eps_t is linear between knots, so its extremes
    relative to T sit at the knots.
    """
    gaps = [t + e - horizon for t, e in knots]
    if all(g >= 0 for g in gaps):
        return "AboveHorizon"
    if all(g <= 0 for g in gaps):
        return "BelowHorizon"
    return "Mixed"


# --- utilities -------------------------------------------------------------

def insider_utility(schedule: dict, alpha: float, beta: float,
                    horizon: float, delta: float) -> float:
    """0.5 * [integral of 1/eps + (alpha/beta)^2 (T - delta)] over [0, T - delta]."""
    return 0.5 * (lookahead_integral(schedule, horizon, delta)
                  + (alpha / beta) ** 2 * (horizon - delta))


def honest_utility(alpha: float, beta: float, horizon: float) -> float:
    return 0.5 * (alpha / beta) ** 2 * horizon


def discretized_mean(schedule: dict, alpha: float, beta: float, horizon: float,
                     delta: float, base_points: int) -> float:
    """Left Riemann sum of 0.5/eps + 0.5 (alpha/beta)^2 over the base grid."""
    grid = base_grid(base_points, horizon, delta)
    t_left, dt = grid[:-1], np.diff(grid)
    rate = 0.5 / eps_of(schedule, t_left, horizon) + 0.5 * (alpha / beta) ** 2
    return float(np.sum(rate * dt))


# --- checks ----------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10g}"


def check_near(mean: float, stderr: float, target: float, allowance: float = 0.0,
               abs_tol: float = 0.0, label: str = "") -> tuple[bool, str]:
    """|mean - target| <= max(K_SIGMA * stderr + allowance, abs_tol)."""
    limit = max(K_SIGMA * stderr + allowance, abs_tol)
    gap = abs(mean - target)
    ok = math.isfinite(mean) and gap <= limit
    return ok, (f"{label} mean {_fmt(mean)} vs {_fmt(target)}: "
                f"gap {gap:.3g} {'<=' if ok else '>'} limit {limit:.3g}")


def check_closed_form(mean: float, stderr: float, closed: float, exact_grid: float,
                      abs_tol: float = 0.0, label: str = "") -> tuple[bool, str]:
    """Grade against a closed form, allowing the grid's own exact bias.

    The allowance |exact_grid - closed| is the left-Riemann bias of the
    base grid, which no number of paths removes.
    """
    return check_near(mean, stderr, closed, abs(exact_grid - closed), abs_tol, label)


def check_rel(value, exact: float, rel: float, label: str = "") -> tuple[bool, str]:
    """|value - exact| <= rel * |exact|."""
    if value is None or not math.isfinite(value):
        return False, f"{label} value {value!r}, expected {_fmt(exact)}"
    err = abs(value - exact) / abs(exact)
    ok = err <= rel
    return ok, (f"{label} {value!r} vs {exact!r}: rel err {err:.3g} "
                f"{'<=' if ok else '>'} {rel:g}")


def check_donsker_rows(rows, base: float, eps1: float, eps2: float,
                       rel: float = 1e-12) -> tuple[bool, str]:
    """Density rows against scipy's bivariate normal, derivative and ratio exact.

    (y1, y2) given the level b at t is N((b, b), [[eps1, eps1], [eps1, eps2]]);
    the derivative in b is density * (y1 - b)/eps1 and the ratio (y1 - b)/eps1.
    """
    from scipy.stats import multivariate_normal

    arr = np.asarray(rows, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 5 or arr.shape[0] == 0:
        return False, f"donsker table has shape {arr.shape}, expected (n, 5)"
    y1, y2, dens, deriv, ratio = arr.T
    ref = multivariate_normal(mean=[base, base],
                              cov=[[eps1, eps1], [eps1, eps2]]).pdf(arr[:, :2])
    dens_err = float(np.max(np.abs(dens - ref) / ref))
    want_deriv = ref * (y1 - base) / eps1
    scale = np.maximum(np.abs(want_deriv), 1e-300)
    deriv_err = float(np.max(np.abs(deriv - dens * (y1 - base) / eps1) / scale))
    ratio_err = float(np.max(np.abs(ratio - (y1 - base) / eps1)
                             / np.maximum(np.abs((y1 - base) / eps1), 1e-300)))
    ok = dens_err <= rel and deriv_err <= rel and ratio_err <= rel
    return ok, (f"{arr.shape[0]} cells: density rel err {dens_err:.2g}, "
                f"derivative {deriv_err:.2g}, ratio {ratio_err:.2g} (limit {rel:g})")


def strip_wall(payload: dict) -> dict:
    """A result payload without its one nondeterministic field."""
    return {k: v for k, v in payload.items() if k != "wall_time_s"}


def check_identical(a: dict, b: dict, label: str = "") -> tuple[bool, str]:
    """Byte identity of two JSON payloads apart from wall_time_s."""
    ja = json.dumps(strip_wall(a), sort_keys=True)
    jb = json.dumps(strip_wall(b), sort_keys=True)
    return ja == jb, f"{label} {'byte-identical' if ja == jb else 'outputs differ'}"
