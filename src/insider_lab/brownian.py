"""Time grids that carry every look-ahead anchor, and per-path seeds.

Insider strategies read the driving noise at t and at the anchor
t + eps_t.  Both times must be actual grid points so path values are
exact joint Gaussian draws; interpolating a Brownian path at off-grid
times would silently change its law.  union_grid builds the grid:
a uniform base grid with a ten-times-denser block next to the truncated
horizon, merged with the anchor of every base point.  The paths
themselves are drawn by montecarlo._normal_block, seeded by mix_seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from insider_lab.schedules import (
    EpsilonSchedule,
    Regime,
    ScheduleError,
    TableSchedule,
    regime,
)

#: Grid points closer than this are treated as the same instant.
MERGE_TOL = 1e-12

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class GridError(ValueError):
    """Malformed time grid or path index."""


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the seed for path ``index`` from the master seed.

    Counter-based splitmix64 finalizer: full-period, avalanching, and
    O(1) per path, so any path's generator can be reproduced without
    drawing the ones before it.
    """
    if index < 0:
        raise GridError(f"path index must be non-negative, got {index}")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing times starting at 0.

    ``base_indices`` locates the simulation base grid inside ``points``
    and ``anchor_indices[j]`` locates the anchor of base point j; both
    are populated by union_grid and carried along so integrators never
    have to re-match times against the grid.
    """

    points: np.ndarray
    base_indices: np.ndarray | None = None
    anchor_indices: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise GridError("time grid needs at least two points")
        if pts[0] != 0.0:
            raise GridError(f"time grid must start at 0, got {pts[0]}")
        gaps = np.diff(pts)
        if not np.all(gaps > 0):
            raise GridError("time grid points must be strictly increasing")


def _base_points(base_points: int, horizon: float, delta: float) -> np.ndarray:
    """Two-block base grid on [0, T - delta].

    Uniform over [0, T - 10*delta], then ten times denser over the last
    stretch [T - 10*delta, T - delta] where integrands steepen.  When
    delta is 0 (or so large the head block vanishes) a single uniform
    block is used.
    """
    if base_points < 2:
        raise GridError(f"base grid needs at least 2 points, got {base_points}")
    end = horizon - delta
    split = horizon - 10.0 * delta
    if delta <= 0 or split <= 0 or base_points < 4:
        return np.linspace(0.0, end, base_points)
    n_head = int(round(base_points * split / (horizon + 80.0 * delta)))
    n_head = min(max(n_head, 1), base_points - 2)
    n_tail = base_points - n_head
    head = np.linspace(0.0, split, n_head, endpoint=False)
    tail = np.linspace(split, end, n_tail)
    return np.concatenate([head, tail])


def union_grids(sizes, schedule: EpsilonSchedule, delta: float) -> list[TimeGrid]:
    """Base grids of every size on [0, T - delta], merged with all their anchors.

    The grids share one point set, so a single Brownian draw serves every
    level; each grid carries its own base and anchor indices into it.
    Table schedules whose anchors straddle the horizon are rejected: the
    strategy layer has no consistent reading for them.
    """
    T = schedule.horizon
    if not (0 <= delta < T):
        raise GridError(f"truncation delta must lie in [0, {T}), got {delta!r}")
    if isinstance(schedule, TableSchedule) and regime(schedule) is Regime.MIXED:
        raise ScheduleError(
            "table schedule anchors straddle the horizon (mixed regime); "
            "cannot build a simulation grid for it"
        )
    segments = []
    for n in sizes:
        base = _base_points(n, T, delta)
        # the closed-endpoint evaluation: with delta = 0 the base grid ends
        # at T itself, where the kind formulas extend continuously
        segments += [base, base + schedule._eval_array(base)]

    merged = np.concatenate(segments)
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    keep = np.empty(len(merged), dtype=bool)
    keep[0] = True
    np.greater(np.diff(merged), MERGE_TOL, out=keep[1:])
    points = merged[keep]
    # map each original time to its surviving representative
    inverse = np.empty(len(merged), dtype=np.int64)
    inverse[order] = np.cumsum(keep) - 1
    parts = np.split(inverse, np.cumsum([len(seg) for seg in segments[:-1]]))
    return [
        TimeGrid(points=points, base_indices=base_idx, anchor_indices=anchor_idx)
        for base_idx, anchor_idx in zip(parts[::2], parts[1::2])
    ]


def union_grid(base_points: int, schedule: EpsilonSchedule, delta: float) -> TimeGrid:
    """Base grid on [0, T - delta] merged with every anchor t_j + eps(t_j)."""
    return union_grids([base_points], schedule, delta)[0]
