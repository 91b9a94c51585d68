"""Batch Monte Carlo estimation of expected log utility.

The engine simulates Brownian paths on a shared union grid, evaluates
log wealth in vectorized chunks and reduces chunk results in index
order, so a run is reproducible bit for bit no matter how many worker
threads execute it.  Antithetic pairing (negating every Gaussian draw
of a path) is on by default; a pair then counts as one statistically
independent observation and all error bars are computed over pair
means.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from insider_lab import np
from insider_lab.brownian import TimeGrid, mix_seed, union_grid, union_grids
from insider_lab.config import ExperimentConfig, MonteCarloError
from insider_lab.forward_sde import (
    ForwardError,
    WealthPlan,
    check_truncation,
    gather,
    log_wealth_matrix,
    wealth_plan,
)
from insider_lab.schedules import ConstantSchedule

# target size of one chunk's block of path values, in doubles (1.5 MiB).
# Each worker thread draws and reduces every chunk of a run inside one
# workspace, allocated once: this values block plus the step blocks its
# kernel gathers into, two to four of them, each one base step wide (about
# half the block's width on the rig grid).  The budget keeps a worker's
# working set near a 2 MiB per-core L2 and peak memory flat as grids grow.
_CHUNK_TARGET = 3 << 16


class BatchAbort(MonteCarloError):
    """A path blew up mid-batch; the whole estimate is discarded."""


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error and 95% confidence interval.

    ``n_paths`` counts statistically independent observations; an
    antithetic pair collapses to a single observation, so a run with
    200000 paired paths reports 100000 here.
    """

    mean: float
    stderr: float
    n_paths: int

    def __post_init__(self):
        if self.n_paths < 2:
            raise MonteCarloError(f"need at least 2 observations, got {self.n_paths}")
        if not (math.isfinite(self.mean) and math.isfinite(self.stderr)):
            raise MonteCarloError("estimate must be finite")
        if self.stderr < 0:
            raise MonteCarloError("standard error cannot be negative")

    @property
    def ci95(self) -> tuple:
        return (self.mean - 1.96 * self.stderr, self.mean + 1.96 * self.stderr)

    def to_dict(self) -> dict:
        """Plain-data form, ready for JSON."""
        return {"mean": self.mean, "stderr": self.stderr, "ci95": list(self.ci95),
                "n_paths": self.n_paths}


def _resolve_threads(threads) -> int:
    if threads is None:
        return os.cpu_count() or 1
    if not isinstance(threads, int) or threads < 1:
        raise MonteCarloError(f"thread count must be a positive integer, got {threads!r}")
    return threads


def _chunk_units(n_grid_points: int) -> int:
    return max(1, min(512, _CHUNK_TARGET // max(1, n_grid_points)))


def _normal_block(seeds, sqrt_gaps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Brownian values for one chunk, row k driven by seeds[k], written
    into ``out`` (len(seeds) rows) or a fresh block."""
    values = np.empty((len(seeds), sqrt_gaps.size + 1)) if out is None else out
    values[:, 0] = 0.0
    steps = values[:, 1:]
    for i, s in enumerate(seeds):
        # the generator default_rng(s) returns, built without its type checks
        np.random.Generator(np.random.PCG64(s)).standard_normal(out=steps[i])
    np.multiply(steps, sqrt_gaps, out=steps)
    np.cumsum(steps, axis=1, out=steps)
    return values


def first_path(points: np.ndarray, seed: int) -> np.ndarray:
    """The Brownian values of a run's unit 0 at ``points``, as its first chunk draws them."""
    return _normal_block([mix_seed(seed, 0)], np.sqrt(np.diff(points)))[0]


def _map_in_order(work, items, threads: int):
    if threads == 1 or len(items) == 1:
        return [work(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, items))


def _run_chunks(units: int, seed: int, points: np.ndarray, fn, threads: int | None,
                scratch: int = 0) -> np.ndarray:
    """Apply fn to the Brownian values of every chunk of units, in unit order.

    Unit k is driven by the generator seeded with mix_seed(seed, k) and
    sampled at ``points``.  fn maps a (rows, points) block of path values
    and a flat scratch of ``scratch`` doubles per row to an array whose
    last axis runs over those rows; the chunk results are concatenated
    along it.  Each worker thread allocates one workspace, the values block
    and the scratch, on its first chunk and reuses it for every later one,
    so fn's result must not share memory with either.  A ForwardError
    aborts the whole batch, naming the failing path's seed and unit when
    the error carries a row.
    """
    threads = _resolve_threads(threads)
    # touches numpy before any worker starts: insider_lab.np must not first run on one
    sqrt_gaps = np.sqrt(np.diff(points))
    chunk = min(_chunk_units(len(points)), units)
    bounds = [(lo, min(lo + chunk, units)) for lo in range(0, units, chunk)]
    workspace = threading.local()

    def run_chunk(span):
        lo, hi = span
        if not hasattr(workspace, "values"):
            workspace.values = np.empty((chunk, len(points)))
            workspace.scratch = np.empty(chunk * scratch)
        seeds = [mix_seed(seed, k) for k in range(lo, hi)]
        values = _normal_block(seeds, sqrt_gaps, workspace.values[: hi - lo])
        try:
            return fn(values, workspace.scratch[: (hi - lo) * scratch])
        except ForwardError as exc:
            row = getattr(exc, "row", None)
            where = "" if row is None else (
                f"path with seed {seeds[row]} (unit {lo + row}) failed: ")
            raise BatchAbort(f"batch aborted: {where}{exc}") from exc

    return np.concatenate(_map_in_order(run_chunk, bounds, threads), axis=-1)


def run_plan(cfg: ExperimentConfig, grid: TimeGrid) -> WealthPlan:
    """The run's plan on ``grid``, once check_truncation has accepted it."""
    plan = wealth_plan(cfg.market, cfg.strategy, grid, cfg.delta, cfg.pi_cap, cfg.antithetic)
    check_truncation(plan)
    return plan


def _estimate_from_sample(sample: np.ndarray) -> McEstimate:
    n = int(sample.size)
    mean = float(np.mean(sample))
    sd = float(np.std(sample, ddof=1))
    return McEstimate(mean=mean, stderr=sd / math.sqrt(n), n_paths=n)


def estimate_log_utility(cfg: ExperimentConfig, threads: int | None = None) -> McEstimate:
    """Mean log wealth over independent paths seeded from the master seed.

    Deterministic given the config alone; the thread count only changes
    how chunks are scheduled, never what they compute or the order in
    which their results are reduced.
    """
    grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
    plan = run_plan(cfg, grid)
    units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    # values goes by keyword, where bench/tracing.py reads the block's shape
    sample = _run_chunks(units, cfg.master_seed, grid.points,
                         lambda v, s: log_wealth_matrix(plan, values=v, scratch=s)[0],
                         threads, plan.scratch)
    return _estimate_from_sample(sample)


def discretized_mean(plan: WealthPlan) -> float:
    """Closed-form expectation of the discretized log-wealth estimator.

    On a fixed grid the estimator's mean is known exactly: the
    stochastic sum contributes nothing for deterministic fractions, so
    their mean is the plan's drift sum plus log x0, while for the
    uncapped look-ahead fraction each term contributes dt/eps (from the
    squared increment inside the correction) minus half of dt/eps (from
    the variance penalty), leaving the left Riemann sum of
    (alpha/beta)^2/2 + 1/(2 eps).  Used as a control variate and as an
    oracle for discretization-bias studies.
    """
    if plan.anchors is None:
        return plan.const
    rate = 0.5 * (plan.alpha / plan.beta) ** 2 + 0.5 / plan.eps
    return float(np.dot(rate, plan.dt)) + plan.log_x0


@dataclass(frozen=True)
class RefinementLevel:
    base_points: int
    estimate: McEstimate


def refinement_study(cfg: ExperimentConfig, levels: int = 3, factor: int = 4,
                     threads: int | None = None) -> list[RefinementLevel]:
    """Re-estimate the same expectation on successively finer base grids.

    All levels are driven by the same Brownian paths, sampled once on
    the union of every level's grid, so level-to-level movement of the
    mean isolates discretization bias instead of Monte Carlo noise.
    On top of that, the average deviation of the levels from their
    closed-form discretized means serves as a control variate with
    known zero mean; subtracting it shrinks each level's error bar to
    the scale of the level differences while leaving every level's
    expectation untouched.  The centres are exact only for uncapped
    fractions, so a config with pi_cap is refused.
    """
    if cfg.pi_cap is not None:
        raise MonteCarloError(
            f"refine cannot run with pi_cap={cfg.pi_cap:g}: its control variate is "
            "centred on the uncapped grid means; drop pi_cap or use simulate"
        )
    if levels < 2:
        raise MonteCarloError(f"a refinement study needs at least 2 levels, got {levels}")
    if factor < 2:
        raise MonteCarloError(f"refinement factor must be at least 2, got {factor}")
    sizes = [cfg.base_points * factor**k for k in range(levels)]
    grids = union_grids(sizes, cfg.schedule, cfg.delta)
    plans = [run_plan(cfg, g) for g in grids]
    center_avg = float(np.mean([discretized_mean(p) for p in plans]))

    def run_chunk(values, scratch):
        # every level's kernel views the same flat scratch in turn
        per_level = [log_wealth_matrix(p, values=values, scratch=scratch)[0] for p in plans]
        control = np.mean(per_level, axis=0) - center_avg
        return np.stack([x - control for x in per_level])

    units = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    stacked = _run_chunks(units, cfg.master_seed, grids[0].points, run_chunk, threads,
                          max(p.scratch for p in plans))
    return [
        RefinementLevel(base_points=n, estimate=_estimate_from_sample(stacked[j]))
        for j, n in enumerate(sizes)
    ]


def duality_check(kind: str, T: float, n_paths: int, base_points: int, seed: int,
                  eps: float | None = None, threads: int | None = None):
    """Compare E[forward integral of phi] against its closed form.

    Kinds: ``constant_lookahead`` integrates phi(t) = B(t + eps) and has
    closed form T (the look-ahead derivative of phi is 1 on [0, T]);
    ``terminal_value`` integrates phi(t) = B(T), whose sum telescopes to
    B(T)^2 with mean T; ``adapted_one`` integrates phi = 1, an adapted
    integrand with no look-ahead content, giving 0.
    Returns (estimate, analytic).
    """
    canon = str(kind).strip().lower().replace("-", "_")
    if not (math.isfinite(T) and T > 0):
        raise MonteCarloError(f"horizon must be positive, got {T!r}")
    if n_paths < 2:
        raise MonteCarloError(f"need at least 2 paths, got {n_paths}")
    if base_points < 2:
        raise MonteCarloError(f"need at least 2 grid points, got {base_points}")

    if canon == "constant_lookahead":
        if eps is None or not (math.isfinite(eps) and eps > 0):
            raise MonteCarloError(f"constant_lookahead needs eps > 0, got {eps!r}")
        grid = union_grid(base_points, ConstantSchedule(value=eps, horizon=T), 0.0)
        sub = np.asarray(grid.base_indices, dtype=np.int64)
        dt = np.diff(grid.points[sub])
        if eps < dt.max():
            # a step longer than eps adds only eps to the grid mean, not dt
            raise MonteCarloError(f"look-ahead eps={eps:.3g} is shorter than the grid step "
                                  f"{dt.max():.3g}; refine the base grid or enlarge eps")
        left, right = sub[:-1], sub[1:]
        anchors = np.asarray(grid.anchor_indices, dtype=np.int64)[: left.size]
        per_row = 2 * left.size
        analytic = T
    elif canon in ("terminal_value", "adapted_one"):
        if eps is not None:
            raise MonteCarloError(f"kind {canon!r} takes no eps")
        grid = TimeGrid(points=np.linspace(0.0, T, base_points))
        per_row = base_points - 1 if canon == "terminal_value" else 0
        analytic = T if canon == "terminal_value" else 0.0
    else:
        raise MonteCarloError(
            f"unknown duality kind {kind!r}; expected constant_lookahead, "
            "terminal_value or adapted_one"
        )

    def run_chunk(values, scratch):
        if canon == "constant_lookahead":
            inc, other = scratch.reshape(2, len(values), -1)
            gather(values, right, inc)
            inc -= gather(values, left, other)
            inc *= gather(values, anchors, other)
            return np.sum(inc, axis=1)
        if canon == "terminal_value":
            inc = scratch.reshape(len(values), -1)
            np.subtract(values[:, 1:], values[:, :-1], out=inc)
            inc *= values[:, -1:]
            return np.sum(inc, axis=1)
        return values[:, -1] - values[:, 0]

    sample = _run_chunks(n_paths, seed, grid.points, run_chunk, threads, per_row)
    return _estimate_from_sample(sample), analytic


@dataclass(frozen=True)
class RegressionResult:
    """No-intercept least-squares slope with its standard error."""

    slope: float
    stderr: float
    n_paths: int


def _regress(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise MonteCarloError("degenerate regressor: zero variance")
    slope = float(np.dot(x, y)) / sxx
    resid = y - slope * x
    n = x.size
    stderr = math.sqrt(float(np.dot(resid, resid)) / ((n - 1) * sxx))
    return RegressionResult(slope=slope, stderr=stderr, n_paths=n)


def increment_regression(t: float, eps: float, h: float,
                         n_paths: int, seed: int) -> RegressionResult:
    """Slope of B(t+h) - B(t) on the window increment B(t+eps) - B(t).

    The two share the increment up to t + min(h, eps) and differ by an
    independent part, so the slope is min(h, eps)/eps: the bridge drift h/eps
    inside the window, and exactly 1 beyond it, where the future is a martingale.
    """
    if not (math.isfinite(t) and t >= 0):
        raise MonteCarloError(f"start time must be finite and >= 0, got {t!r}")
    if not (math.isfinite(eps) and eps > 0):
        raise MonteCarloError(f"window eps must be positive, got {eps!r}")
    if n_paths < 2:
        raise MonteCarloError(f"need at least 2 paths, got {n_paths}")
    if not (math.isfinite(h) and h > 0):
        raise MonteCarloError(f"need finite h > 0, got h={h!r}")
    m = min(h, eps)
    z = np.random.default_rng(seed).standard_normal((2, n_paths))
    shared = math.sqrt(m) * z[0]
    return _regress(shared + math.sqrt(eps - m) * z[1], shared + math.sqrt(h - m) * z[1])
