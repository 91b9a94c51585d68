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

from dataclasses import dataclass, replace

from insider_lab import np
from insider_lab.brownian import TimeGrid
from insider_lab.schedules import Classification, EpsilonSchedule, classify_viability
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    Strategy,
    TableStrategy,
)


class ForwardError(ValueError):
    """Inconsistent integrand, grid or truncation parameters."""


def check_truncation(plan: WealthPlan) -> None:
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
    if plan.schedule is None:
        return
    T, delta = plan.horizon, plan.delta
    t_left = plan.times[:-1]
    if delta <= 0:
        report = classify_viability(plan.schedule)
        if report.classification is not Classification.VIABLE:
            raise ForwardError(
                "delta = 0 reaches the horizon, but the schedule's look-ahead "
                "integral diverges there; pass a positive truncation delta"
            )
    else:
        tail_start = T - 10.0 * delta
        tail_gaps = plan.dt[t_left >= tail_start - 1e-12]
        max_tail_gap = float(tail_gaps.max() if tail_gaps.size else plan.dt.max())
        scale = max(delta, float(plan.schedule.eval(T - delta)))
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
            f"look-ahead {plan.eps[j]:.3g} at t={t_left[j]:.6g} is shorter than its "
            f"grid step {plan.dt[j]:.3g}; refine the base grid or enlarge delta"
        )


@dataclass(frozen=True)
class WealthPlan:
    """Everything the log-wealth kernels read about one run on one grid,
    evaluated once: the run's settings (horizon, delta, pi_cap, pairing),
    the base times, step indices and left-end values, log x0 and
    ``const``, the deterministic part of a row's log wealth.  A
    deterministic fraction pi is stored capped, with pi*beta, and
    ``const`` is its drift sum plus log x0.  The insider carries its
    schedule, the anchors, eps and 1/eps, and ``const`` is its pair
    average's sum (alpha/beta)^2 dt/2 + log x0."""

    horizon: float
    delta: float
    pi_cap: float | None
    antithetic: bool
    left: np.ndarray
    right: np.ndarray
    times: np.ndarray
    dt: np.ndarray
    half_dt: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    pi: np.ndarray
    log_x0: float
    const: float
    pi_beta: np.ndarray | None = None
    schedule: EpsilonSchedule | None = None
    anchors: np.ndarray | None = None
    eps: np.ndarray | None = None
    inv_eps: np.ndarray | None = None

    @property
    def scratch(self) -> int:
        """Doubles per path row of the step blocks log_wealth_matrix gathers
        into: two for a deterministic fraction, three for the insider's
        closed-form pairs and four for its two-pass kernel.  The chunk
        driver sizes chunks from this plus the row's grid points."""
        blocks = 2 if self.anchors is None else 3 if self.antithetic and self.pi_cap is None else 4
        return blocks * self.left.size


def wealth_plan(market: MarketCoefficients, strategy: Strategy, grid: TimeGrid,
                delta: float, pi_cap: float | None = None,
                antithetic: bool = False) -> WealthPlan:
    """The plan of one run on ``grid``: the only input of the kernels.
    ``pi_cap`` clips every fraction to [-pi_cap, pi_cap]; with
    ``antithetic`` each row is averaged with its negated path."""
    T = market.horizon
    if not (0 <= delta < T):
        raise ForwardError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    if grid.base_indices is None or grid.anchor_indices is None:
        raise ForwardError("the plan needs a grid carrying base and anchor indices; "
                           "build it with union_grid")
    sub = np.asarray(grid.base_indices, dtype=np.int64)
    if sub.size < 2:
        raise ForwardError("no integration steps below the truncated horizon")
    left = sub[:-1]
    times = grid.points[sub]
    t_left = times[:-1]
    dt = np.diff(times)
    alpha = market.alpha(t_left)
    beta = market.beta(t_left)
    honest = alpha / beta**2
    log_x0 = float(np.log(market.x0))
    common = dict(horizon=T, delta=delta, pi_cap=pi_cap, antithetic=antithetic, left=left,
                  right=sub[1:], times=times, dt=dt, half_dt=0.5 * dt, alpha=alpha,
                  beta=beta, log_x0=log_x0)
    if isinstance(strategy, (HonestStrategy, TableStrategy)):
        pi = honest if isinstance(strategy, HonestStrategy) else strategy.fraction(t_left)
        if pi_cap is not None:
            pi = np.clip(pi, -pi_cap, pi_cap)
        plan = WealthPlan(pi=pi, pi_beta=pi * beta, const=0.0, **common)
        drift = _step_drift(plan, pi, np.empty_like(pi), np.empty_like(pi))
        return replace(plan, const=float(np.sum(drift) + log_x0))
    if not isinstance(strategy, InsiderStrategy):
        raise ForwardError(f"unknown strategy type {type(strategy).__name__}")
    eps = strategy.schedule.eval(t_left)
    const = float(np.sum(0.5 * (alpha / beta) ** 2 * dt) + log_x0)
    anchors = np.asarray(grid.anchor_indices, dtype=np.int64)[: left.size]
    return WealthPlan(pi=honest, schedule=strategy.schedule, anchors=anchors, eps=eps,
                      inv_eps=1.0 / eps, const=const, **common)


def _checked(total: np.ndarray, stochastic: np.ndarray, drift: np.ndarray):
    """The three row arrays, or ForwardError naming the first row whose
    total is not finite."""
    bad = np.flatnonzero(~np.isfinite(total))
    if bad.size:
        err = ForwardError(f"non-finite log wealth on path row {bad[0]}")
        err.row = int(bad[0])
        raise err
    return total, stochastic, drift


def gather(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """values[:, index] in ``out``.  With mode="clip" take() writes straight
    into ``out``; the default mode buffers a whole block first.  The block is
    C-ordered, which keeps the later row sums independent of how many rows
    ride along."""
    return np.take(values, index, axis=1, out=out, mode="clip")


def _increments(plan: WealthPlan, values: np.ndarray, out: np.ndarray,
                left: np.ndarray) -> np.ndarray:
    """dB per base step in ``out``; ``left`` keeps B at each step's left end."""
    gather(values, plan.left, left)
    gather(values, plan.right, out)
    out -= left
    return out


def _insider_fractions(plan: WealthPlan, values: np.ndarray, blocks: np.ndarray):
    """Increments and a list of the insider's capped pi on the base sub-grid,
    in the first three of ``blocks``: pi along ``values`` and, when the plan
    pairs paths, along ``-values``."""
    pi, increments, correction = blocks[:3]
    _increments(plan, values, increments, pi)
    gather(values, plan.anchors, correction)
    np.subtract(pi, correction, out=correction)
    correction /= plan.beta * plan.eps
    pis = [np.subtract(plan.pi, correction, out=pi)]
    if plan.antithetic:
        # negating the path negates the correction exactly
        pis.append(np.add(plan.pi, correction, out=correction))
    if plan.pi_cap is not None:
        for pi in pis:
            np.clip(pi, -plan.pi_cap, plan.pi_cap, out=pi)
    return increments, pis


# The per-step terms of log wealth, one helper each, written into
# caller-owned buffers so that the row-sum kernel reuses two blocks for both
# sides of a pair.  The operation order is fixed: it sets the bits of every
# sum.
def _step_gain(plan: WealthPlan, pi: np.ndarray, increments: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """pi*beta*dB per step, in ``out``."""
    np.multiply(pi, plan.beta, out=out)
    out *= increments
    return out


def _step_drift(plan: WealthPlan, pi: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> np.ndarray:
    """(pi*alpha - pi^2 beta^2/2)*dt per step, in ``out``; overwrites ``scratch``."""
    np.multiply(pi, plan.alpha, out=out)
    np.square(pi, out=scratch)
    scratch *= 0.5
    scratch *= plan.beta**2
    out -= scratch
    out *= plan.dt
    return out


def _insider_pairs(plan: WealthPlan, values: np.ndarray, blocks: np.ndarray):
    """(total, stochastic, drift) of the insider's antithetic pair averages.

    With r = (B(anchor) - B(t))/eps a pair averages to const + sum r*dB -
    sum r^2 dt/2: the drift term linear in r cancels, as alpha equals
    (alpha/beta^2)*beta^2, and the honest beta*dB term is odd in the path.
    """
    left, r, gain = blocks[:3]
    _increments(plan, values, gain, left)
    gather(values, plan.anchors, r)
    r -= left
    r *= plan.inv_eps
    gain *= r
    penalty = np.multiply(r, r, out=left)
    penalty *= plan.half_dt
    stochastic = np.sum(gain, axis=1)
    drift = plan.const - np.sum(penalty, axis=1)
    return stochastic + drift, stochastic, drift


def log_wealth_matrix(plan: WealthPlan, values: np.ndarray,
                      scratch: np.ndarray | None = None):
    """Vectorized log wealth for a block of paths.

    ``values`` has one row per path, aligned with the points of the plan's
    grid.  Returns (log_wealth, stochastic_part, drift_part) arrays, one
    entry per row; when the plan pairs paths each is the average of the
    calls on ``values`` and ``-values``, bit for bit except for the
    uncapped insider's closed-form pairs.  Raises ForwardError naming the
    first row whose log wealth is not finite.  ``scratch`` is a flat float
    array of at least rows * plan.scratch doubles that the step blocks are
    gathered into; it defaults to a fresh one, and no returned array
    shares its memory.  Callers run check_truncation.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    size = len(values) * plan.scratch
    if scratch is None:
        scratch = np.empty(size)
    blocks = scratch[:size].reshape(-1, len(values), plan.left.size)
    if plan.anchors is None:
        # a deterministic fraction: the gain sums dB*(pi*beta), and the
        # drift is the plan's constant, the same along values and -values
        gain = _increments(plan, values, blocks[0], blocks[1])
        gain *= plan.pi_beta
        stochastic = np.sum(gain, axis=1)
        drift = np.full(len(values), plan.const)
        sides = [(stochastic, drift), (-stochastic, drift)][: 1 + plan.antithetic]
    elif plan.antithetic and plan.pi_cap is None:
        # Only the uncapped insider's pairs take the closed form: clipping is
        # not odd-symmetric, and honest or table pairs would collapse to an
        # exact constant whose zero standard error makes every z infinite.
        return _checked(*_insider_pairs(plan, values, blocks))
    else:
        increments, pis = _insider_fractions(plan, values, blocks)
        gain = blocks[3]
        sides = []
        for pi, sign in zip(pis, (1.0, -1.0)):
            # rounding is odd-symmetric, so negating the sum negates every
            # term; log x0 sits in the drift part so the decomposition stays
            # exact.  Once the gain is summed its block takes the drift steps,
            # and pi, read for the last time, is squared in place.
            stochastic = sign * np.sum(_step_gain(plan, pi, increments, gain), axis=1)
            drift = np.sum(_step_drift(plan, pi, gain, pi), axis=1) + plan.log_x0
            sides.append((stochastic, drift))
    sides = [(stochastic + drift, stochastic, drift) for stochastic, drift in sides]
    rows = sides[0] if len(sides) == 1 else [0.5 * (p + m) for p, m in zip(*sides)]
    return _checked(*rows)


def wealth_trace(plan: WealthPlan, values: np.ndarray):
    """(t, pi, running log wealth) along the path ``values``: the base times
    from 0 to the truncated horizon, the capped fraction held from each one
    to the next (one fewer) and the log wealth at each, from log x0 on."""
    values = np.asarray(values, dtype=float)[None, :]
    blocks = np.empty((5, 1, plan.left.size))
    if plan.anchors is None:
        pi, increments = plan.pi, _increments(plan, values, blocks[1], blocks[0])
    else:
        increments, (pi, *_) = _insider_fractions(plan, values, blocks)
    steps = _step_gain(plan, pi, increments, blocks[3])
    steps += _step_drift(plan, pi, blocks[4], increments)
    running = np.concatenate(([plan.log_x0], plan.log_x0 + np.cumsum(steps[0])))
    return plan.times, np.ravel(pi), running
