"""Conditional densities of look-ahead noise values.

Given the noise level b at time t, the pair
(y1, y2) = (noise at t + eps1, noise at t + eps2) with eps2 > eps1 is
jointly Gaussian, and its conditional density factors through the
increments: y1 is N(b, eps1) and y2 given y1 is N(y1, eps2 - eps1).
cond_delta_2d evaluates that density directly in its unfactored form,
cond_delta_deriv_2d its sensitivity to the conditioning level b, and
malliavin_ratio the ratio of the two.  The ratio (y1 - b)/eps1 is what
the insider portfolio actually consumes: it survives unchanged when the
density itself underflows.

All densities are computed in log space; raw results below 1e-300 are
flushed to exactly 0.0 rather than left to denormal rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_LOG_TWO_PI = math.log(2.0 * math.pi)
_UNDERFLOW_LOG = math.log(1e-300)


class DonskerError(ValueError):
    """Invalid look-ahead parameters."""


@dataclass(frozen=True)
class DonskerParams:
    """Conditioning level and the two look-ahead variances.

    ``base`` is the known noise level at the current time; ``eps1`` and
    ``eps2`` are the look-ahead horizons with 0 < eps1 < eps2.
    """

    base: float
    eps1: float
    eps2: float

    def __post_init__(self):
        if not (math.isfinite(self.eps1) and self.eps1 > 0):
            raise DonskerError(f"eps1 must be positive, got {self.eps1!r}")
        if not (math.isfinite(self.eps2) and self.eps2 > self.eps1):
            raise DonskerError(
                f"eps2 must exceed eps1 ({self.eps1}), got {self.eps2!r}"
            )
        if not math.isfinite(self.base):
            raise DonskerError(f"base level must be finite, got {self.base!r}")


def _log_cond_delta_2d(p: DonskerParams, y1: float, y2: float) -> float:
    gap = p.eps2 - p.eps1
    return (
        -_LOG_TWO_PI
        - 0.5 * math.log(p.eps1 * gap)
        - (y1 - y2) ** 2 / (2.0 * gap)
        - (y1 - p.base) ** 2 / (2.0 * p.eps1)
    )


def cond_delta_2d(p: DonskerParams, y1: float, y2: float) -> float:
    """Joint conditional density of the two look-ahead values at (y1, y2)."""
    log_d = _log_cond_delta_2d(p, y1, y2)
    if log_d < _UNDERFLOW_LOG:
        return 0.0
    return math.exp(log_d)


def cond_delta_deriv_2d(p: DonskerParams, y1: float, y2: float) -> float:
    """Sensitivity of cond_delta_2d to the conditioning level: density * (y1-b)/eps1."""
    return cond_delta_2d(p, y1, y2) * (y1 - p.base) / p.eps1


def malliavin_ratio(base: float, y1: float, eps1: float) -> float:
    """(y1 - base) / eps1: the derivative-to-density ratio.

    Well defined wherever eps1 > 0, including where the density itself
    has underflowed to zero.
    """
    if not (math.isfinite(eps1) and eps1 > 0):
        raise DonskerError(f"eps1 must be positive, got {eps1!r}")
    return (y1 - base) / eps1
