"""Deterministic look-ahead schedules and the viability integral.

A schedule assigns to every time t in [0, T) a positive look-ahead
eps_t: the insider acting at time t already knows the driving noise at
time t + eps_t.  Whether such a market admits finite maximal expected
log utility is governed by the integral of 1/eps_t over [0, T): finite
integral means viable, divergent means the insider can generate
unbounded expected log wealth as the horizon is approached.

Every kind integrates 1/eps_t in closed form, and every anchor map
t + eps_t is piecewise linear or has a known shape, so viability, the
truncated integrals and the anchor checks are exact: nothing is
sampled and nothing is integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

#: Truncations at which every viability report tabulates the integral.
TRACE_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


class ScheduleError(ValueError):
    """Malformed schedule or evaluation outside [0, T)."""


class QuadratureError(RuntimeError):
    """The look-ahead integral is infinite."""


class Regime(Enum):
    ABOVE_HORIZON = "AboveHorizon"
    BELOW_HORIZON = "BelowHorizon"
    MIXED = "Mixed"


class Classification(Enum):
    VIABLE = "Viable"
    NOT_VIABLE = "NotViable"
    NOT_VIABLE_BELOW_HORIZON = "NotViableBelowHorizon"


class Method(Enum):
    ANALYTIC = "Analytic"
    QUADRATURE = "Quadrature"


@dataclass(frozen=True)
class ViabilityReport:
    """Outcome of classifying a schedule.

    ``integral_value`` is the value of the look-ahead integral, with
    ``math.inf`` standing for divergence.  ``truncation_trace`` holds
    (delta, truncated integral) pairs at the deltas in TRACE_DELTAS.
    """

    classification: Classification
    integral_value: float
    method: Method
    truncation_trace: tuple[tuple[float, float], ...]

    @property
    def divergent(self) -> bool:
        return math.isinf(self.integral_value)

    def integral_label(self) -> str:
        return "Divergent" if self.divergent else f"{self.integral_value:.9g}"


class EpsilonSchedule:
    """Base class; kinds implement horizon and _eval_array, unchecked on [0, horizon]."""

    horizon: float

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _reciprocal_integral(self, end: float) -> float:
        """Exact integral of 1/eps_t over [0, end]; math.inf if it diverges."""
        raise NotImplementedError

    def eval(self, t):
        """Look-ahead at time t; t may be a scalar or an array.

        The domain is [0, horizon): the schedule describes information
        available strictly before the terminal time.
        """
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0) or np.any(arr >= self.horizon):
            raise ScheduleError(
                f"schedule evaluation time must lie in [0, {self.horizon}); got {t!r}"
            )
        out = self._eval_array(arr)
        return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _validate_horizon(T: float) -> None:
    if not (isinstance(T, (int, float)) and math.isfinite(T) and T > 0):
        raise ScheduleError(f"horizon must be a finite positive number, got {T!r}")


def _check_anchor_convergence(schedule: TableSchedule) -> None:
    """Reject tables whose anchor map t + eps_t oscillates near T.

    When the anchors approach the horizon they must do so monotonically;
    checked on the last eighth [7T/8, T] of the horizon via the distance
    |t + eps_t - T|.  A monotonically growing distance is also fine: it
    means the anchors keep a widening lead over the horizon (constant
    look-ahead style) and never converge to T in the first place.  Only
    a distance that wobbles near the terminal time is rejected.

    The gap t + eps_t - T is linear between knots, so the distance is
    linear between the window ends, the knots and the gap's zero
    crossings, and its values there decide the test exactly.  A zero
    crossing is the anchors passing through T, which regime() reports
    as Mixed, not a backing away: each side of it is tested on its own.
    """
    T = schedule.horizon
    start = 0.875 * T
    t = np.union1d([start, T], [k[0] for k in schedule.knots if start < k[0] < T])
    gap = t + schedule._eval_array(t) - T
    tol = 1e-12 * max(1.0, T)
    for side in np.split(np.abs(gap), np.flatnonzero(gap[:-1] * gap[1:] < 0) + 1):
        steps = np.diff(side)
        falls = np.flatnonzero(steps < -tol)
        rises = np.flatnonzero(steps > tol)
        # A rise occurring after a fall means the anchors started
        # converging and then backed away again: that is the oscillation
        # we reject.  A single rise-then-fall (distance peaks inside the
        # window) is fine.
        if falls.size and rises.size and rises[-1] > falls[0]:
            raise ScheduleError(
                "anchor map t + eps_t must approach the horizon monotonically; "
                "oscillation detected near the terminal time"
            )


@dataclass(frozen=True)
class PowerLawSchedule(EpsilonSchedule):
    """eps_t = (T - t)**q with q > 0."""

    exponent: float
    horizon: float

    def __post_init__(self):
        _validate_horizon(self.horizon)
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise ScheduleError(f"power-law exponent must be positive, got {self.exponent!r}")
        if self.exponent != 1.0 and self.horizon > 1.0:
            # For q != 1 the look-ahead (T-t)**q compares to the remaining
            # time T-t only when T-t <= 1; larger horizons would flip the
            # comparison on part of the interval and the classification
            # below would be wrong there.  Restrict rather than guess.
            raise ScheduleError(
                "power-law schedules with exponent != 1 require horizon <= 1 "
                f"(got horizon={self.horizon}); rescale time before simulating"
            )
        # No anchor-convergence check: the distance |u**q - u| of the
        # anchors to T, with u = T - t, has at most one peak (at
        # u = q**(1/(1-q))) and falls to 0 after it, so it never rises
        # again once it has started to fall.

    def _eval_array(self, t):
        return np.power(self.horizon - t, self.exponent)

    def _reciprocal_integral(self, end):
        # (T**a - u**a)/a with a = 1 - q over u in [T - end, T], written
        # with expm1 so that q near 1 does not cancel
        T, u, a = self.horizon, self.horizon - end, 1.0 - self.exponent
        if u == 0:
            return T**a / a if a > 0 else math.inf
        if a == 0:
            return math.log(T / u)
        try:
            return T**a * -math.expm1(a * math.log(u / T)) / a
        except OverflowError:
            return math.inf


@dataclass(frozen=True)
class ConstantSchedule(EpsilonSchedule):
    """eps_t = value for all t."""

    value: float
    horizon: float

    def __post_init__(self):
        _validate_horizon(self.horizon)
        if not (math.isfinite(self.value) and self.value > 0):
            raise ScheduleError(f"constant look-ahead must be positive, got {self.value!r}")

    def _eval_array(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.value)

    def _reciprocal_integral(self, end):
        return end / self.value


@dataclass(frozen=True)
class AffineBelowSchedule(EpsilonSchedule):
    """eps_t = c * (T - t) with 0 < c <= 1; the insider never sees past T."""

    slope: float
    horizon: float

    def __post_init__(self):
        _validate_horizon(self.horizon)
        if not (math.isfinite(self.slope) and 0 < self.slope <= 1):
            raise ScheduleError(f"affine-below slope must lie in (0, 1], got {self.slope!r}")

    def _eval_array(self, t):
        return self.slope * (self.horizon - t)

    def _reciprocal_integral(self, end):
        u = self.horizon - end
        return math.log(self.horizon / u) / self.slope if u > 0 else math.inf


@dataclass(frozen=True)
class TableSchedule(EpsilonSchedule):
    """Piecewise-linear look-ahead through (time, duration) knots.

    Knot times must be strictly increasing, cover [0, horizon], and all
    durations must be strictly positive.  Evaluation interpolates
    linearly between knots; extrapolation beyond the knot range is an
    error rather than a silent guess.
    """

    knots: tuple[tuple[float, float], ...]
    horizon: float

    def __post_init__(self):
        _validate_horizon(self.horizon)
        if len(self.knots) < 2:
            raise ScheduleError("table schedule needs at least two knots")
        times = np.array([k[0] for k in self.knots], dtype=float)
        eps = np.array([k[1] for k in self.knots], dtype=float)
        if not np.all(np.diff(times) > 0):
            raise ScheduleError("table knot times must be strictly increasing")
        if np.any(eps <= 0) or not np.all(np.isfinite(eps)):
            raise ScheduleError("table look-ahead durations must be strictly positive")
        if times[0] > 0 or times[-1] < self.horizon:
            raise ScheduleError(
                f"table knots must cover [0, {self.horizon}]; got range "
                f"[{times[0]}, {times[-1]}] and extrapolation is not allowed"
            )
        _check_anchor_convergence(self)

    def _eval_array(self, t):
        times = np.array([k[0] for k in self.knots], dtype=float)
        eps = np.array([k[1] for k in self.knots], dtype=float)
        return np.interp(t, times, eps)

    def _reciprocal_integral(self, end):
        # eps is linear on each segment, whose integral is
        # dt log(e1/e0)/(e1 - e0) = dt/e0 * log1p(r)/r with r = e1/e0 - 1
        total = 0.0
        for (t0, e0), (t1, e1) in zip(self.knots, self.knots[1:]):
            if t0 >= end:
                break
            if t1 > end:
                e1 = e0 + (e1 - e0) * (end - t0) / (t1 - t0)
                t1 = end
            r = (e1 - e0) / e0
            total += (t1 - t0) / e0 * (math.log1p(r) / r if r else 1.0)
        return total


def regime(schedule: EpsilonSchedule) -> Regime:
    """Classify where the anchors t + eps_t sit relative to the horizon.

    Power-law schedules always belong to the above-horizon family (the
    constructor restricts them to horizons where that comparison is
    meaningful), and affine-below schedules sit below it by
    construction.  Constant and table anchor maps are piecewise linear,
    so their anchors at 0, at the knots inside [0, T) and the limit
    T + eps(T) decide the regime exactly.
    """
    if isinstance(schedule, PowerLawSchedule):
        return Regime.ABOVE_HORIZON
    if isinstance(schedule, AffineBelowSchedule):
        return Regime.BELOW_HORIZON
    T = schedule.horizon
    t = np.array([0.0, T])
    if isinstance(schedule, TableSchedule):
        t = np.union1d(t, [k[0] for k in schedule.knots if 0.0 <= k[0] < T])
    anchors = t + schedule._eval_array(t)
    tol = 1e-12 * max(1.0, T)
    if np.all(anchors >= T - tol):
        return Regime.ABOVE_HORIZON
    if np.all(anchors <= T + tol):
        return Regime.BELOW_HORIZON
    return Regime.MIXED


def viability_integral(schedule: EpsilonSchedule, delta: float) -> float:
    """Exact integral of 1/eps_t over [0, T - delta].

    delta = 0 is allowed for schedules whose look-ahead stays bounded
    away from zero at the horizon; for the others the integral diverges
    and QuadratureError is raised.
    """
    T = schedule.horizon
    if not (0 <= delta < T):
        raise ScheduleError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    value = schedule._reciprocal_integral(T - delta)
    if math.isinf(value):
        raise QuadratureError(
            f"the integral of 1/eps over [0, {T - delta:.6g}] is not finite")
    return value


# Growth test used for table schedules, whose integrals are always
# finite: if tightening the truncation from 1e-4 to 1e-6 still grows the
# integral by more than 10%, treat it as divergent.
_HEURISTIC_DELTAS = (1e-4, 1e-6)
_HEURISTIC_GROWTH = 0.1


def classify_viability(schedule: EpsilonSchedule) -> ViabilityReport:
    """Decide viability of the market driven by this schedule.

    Every value comes from the kind's exact integral.  Analytic kinds
    are classified by whether it is finite; a table is classified by
    the truncation-growth convention above and, when viable, reports
    its full integral.  A table whose anchors straddle the horizon is
    rejected: the two regimes call for different treatments and mixing
    them has no supported meaning.
    """
    T = schedule.horizon
    if isinstance(schedule, TableSchedule):
        reg = regime(schedule)
        if reg is Regime.MIXED:
            raise ScheduleError(
                "schedule anchors straddle the horizon (mixed regime); "
                "viability classification is defined per regime only"
            )
        method = Method.QUADRATURE
        if reg is Regime.BELOW_HORIZON:
            # eps_t <= T - t everywhere, so the integral dominates the
            # divergent integral of 1/(T - t).
            cls, value = Classification.NOT_VIABLE_BELOW_HORIZON, math.inf
        else:
            i_mid, i_fine = (viability_integral(schedule, d) for d in _HEURISTIC_DELTAS)
            if i_fine - i_mid > _HEURISTIC_GROWTH * i_mid:
                cls, value = Classification.NOT_VIABLE, math.inf
            else:
                cls, value = Classification.VIABLE, schedule._reciprocal_integral(T)
    else:
        method = Method.ANALYTIC
        value = schedule._reciprocal_integral(T)
        if isinstance(schedule, AffineBelowSchedule):
            cls = Classification.NOT_VIABLE_BELOW_HORIZON
        elif math.isinf(value):
            cls = Classification.NOT_VIABLE
        else:
            cls = Classification.VIABLE
    trace = tuple((d, schedule._reciprocal_integral(T - d)) for d in TRACE_DELTAS if d < T)
    return ViabilityReport(cls, value, method, trace)
