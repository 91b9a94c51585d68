"""Portfolio rules: the honest benchmark and the look-ahead rule.

The honest trader holds the drift-to-variance ratio alpha/beta^2.  The
insider adds a correction proportional to the noise increment it can
already see: (anchor value - current value) / (beta * eps_t).  The same
correction is the conditional-density layer's derivative-to-density
ratio divided by beta.  This module holds the market and the strategy
types.  forward_sde evaluates the fractions on whole blocks of paths;
the one-time-point formulas of both routes live in tests/oracles.py,
where the tests check them against each other and against the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from insider_lab import np
from insider_lab.schedules import EpsilonSchedule, knot_pairs, positive_horizon, real

#: Smallest volatility magnitude a market may have.
BETA_MIN = 1e-6


class StrategyError(ValueError):
    """Invalid market coefficients or strategy parameters."""


@dataclass(frozen=True)
class PiecewiseConstant:
    """Right-open step function: value(t) = values[k] on [breaks[k], breaks[k+1])."""

    breaks: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breaks) != len(self.values) or not self.breaks:
            raise StrategyError("piecewise coefficients need one value per breakpoint")
        if self.breaks[0] != 0.0:
            raise StrategyError(f"first breakpoint must be 0, got {self.breaks[0]}")
        if not all(b < c for b, c in zip(self.breaks, self.breaks[1:])):
            raise StrategyError("breakpoints must be strictly increasing")
        if not all(map(math.isfinite, self.breaks)):
            raise StrategyError("breakpoints must be finite")
        if not all(map(math.isfinite, self.values)):
            raise StrategyError("coefficient values must be finite")

    @classmethod
    def from_spec(cls, spec, what: str) -> "PiecewiseConstant":
        """The one reader of a coefficient: a bare number or a
        {"breaks", "values"} mapping of number lists.  Errors name ``what``."""
        if isinstance(spec, PiecewiseConstant):
            return spec
        if not isinstance(spec, dict):
            return cls(breaks=(0.0,), values=(real(spec, what, StrategyError),))
        if set(spec) == {"breaks", "values"}:
            try:
                breaks = tuple(real(b, what) for b in spec["breaks"])
                values = tuple(real(v, what) for v in spec["values"])
            except (TypeError, ValueError):
                pass
            else:
                return cls(breaks=breaks, values=values)
        raise StrategyError(f"{what} must be a number or breaks and values lists of "
                            f"numbers, got {spec!r}")

    def __call__(self, t):
        idx = np.clip(
            np.searchsorted(self.breaks, np.asarray(t, dtype=float), side="right") - 1,
            0,
            len(self.values) - 1,
        )
        out = np.asarray(self.values, dtype=float)[idx]
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class MarketCoefficients:
    """Drift alpha(t), volatility beta(t) (both piecewise constant), horizon, start wealth."""

    alpha: PiecewiseConstant
    beta: PiecewiseConstant
    horizon: float
    x0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", PiecewiseConstant.from_spec(self.alpha, "market alpha"))
        object.__setattr__(self, "beta", PiecewiseConstant.from_spec(self.beta, "market beta"))
        object.__setattr__(self, "horizon",
                           positive_horizon(self.horizon, "market horizon", StrategyError))
        object.__setattr__(self, "x0", real(self.x0, "market x0", StrategyError))
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise StrategyError(f"initial wealth must be positive, got {self.x0!r}")
        if any(abs(v) < BETA_MIN for v in self.beta.values):
            raise StrategyError(
                f"volatility must stay at least beta_min={BETA_MIN} in magnitude"
            )

    def squared_ratio_integral(self, upto: float) -> float:
        """Exact integral of (alpha/beta)^2 over [0, upto] for step coefficients."""
        if not (0 <= upto <= self.horizon + 1e-12):
            raise StrategyError(f"integration end must lie in [0, {self.horizon}], got {upto}")
        cuts = sorted({0.0, upto, *(b for b in self.alpha.breaks if b < upto),
                       *(b for b in self.beta.breaks if b < upto)})
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            mid = 0.5 * (lo + hi)
            total += (self.alpha(mid) / self.beta(mid)) ** 2 * (hi - lo)
        return total


@dataclass(frozen=True)
class HonestStrategy:
    """Drift-to-variance portfolio; uses no look-ahead."""


@dataclass(frozen=True)
class InsiderStrategy:
    """Honest portfolio plus the look-ahead correction for a schedule."""

    schedule: EpsilonSchedule


@dataclass(frozen=True)
class TableStrategy:
    """Deterministic fraction-of-wealth profile, linear between knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "knots", knot_pairs(self.knots, "strategy", StrategyError))
        if len(self.knots) < 2:
            raise StrategyError("strategy table needs at least two knots")
        times = [k[0] for k in self.knots]
        if not all(b < c for b, c in zip(times, times[1:])):
            raise StrategyError("strategy knot times must be strictly increasing")
        if not all(map(math.isfinite, times)):
            raise StrategyError("strategy knot times must be finite")

    def fraction(self, t):
        times = np.array([k[0] for k in self.knots])
        fracs = np.array([k[1] for k in self.knots])
        arr = np.asarray(t, dtype=float)
        if np.any(arr < times[0] - 1e-12) or np.any(arr > times[-1] + 1e-12):
            raise StrategyError(
                f"strategy table covers [{times[0]}, {times[-1]}]; "
                f"evaluation outside it is extrapolation"
            )
        out = np.interp(arr, times, fracs)
        return float(out) if arr.ndim == 0 else out


Strategy = HonestStrategy | InsiderStrategy | TableStrategy
