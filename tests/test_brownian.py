"""Grid construction and exact Brownian sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_lab.brownian import (
    GridError,
    TimeGrid,
    mix_seed,
    union_grid,
    union_grids,
)
from insider_lab.cli import main
from insider_lab.montecarlo import _normal_block
from insider_lab.schedules import (
    AffineBelowSchedule,
    ConstantSchedule,
    PowerLawSchedule,
    ScheduleError,
    TableSchedule,
)
from oracles import check_path, draw, index_of, value_at


class TestTimeGrid:
    def test_rejects_nonzero_start(self):
        with pytest.raises(GridError, match="start at 0"):
            TimeGrid(points=np.array([0.1, 1.0]))

    def test_rejects_decreasing(self):
        with pytest.raises(GridError, match="strictly increasing"):
            TimeGrid(points=np.array([0.0, 0.5, 0.5, 1.0]))
        with pytest.raises(GridError, match="strictly increasing"):
            TimeGrid(points=np.array([0.0, np.nan, 1.0]))

    def test_index_of(self):
        g = TimeGrid(points=np.array([0.0, 0.5, 1.0]))
        assert index_of(g, 0.5) == 1
        assert index_of(g, 0.5 + 1e-13) == 1
        with pytest.raises(GridError, match="interpolate"):
            index_of(g, 0.25)


class TestUnionGrid:
    def test_constant_lookahead_example(self):
        g = union_grid(3, ConstantSchedule(0.5, 1.0), 0.0)
        for t in (0.0, 0.5, 1.0, 1.5):
            assert index_of(g, t) >= 0
        assert len(g.points) == 4
        assert g.points[-1] == pytest.approx(1.5)

    def test_full_lookahead_example(self):
        g = union_grid(2, PowerLawSchedule(1.0, 1.0), 0.5)
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0])

    def test_contains_base_and_anchors(self):
        s = PowerLawSchedule(0.5, 1.0)
        g = union_grid(64, s, 1e-2)
        assert g.base_indices is not None and g.anchor_indices is not None
        base = g.points[g.base_indices]
        np.testing.assert_allclose(
            g.points[g.anchor_indices], base + s.eval(base), atol=1e-12
        )
        assert np.all(np.diff(g.points) > 0)
        assert g.points[0] == 0.0

    def test_below_horizon_anchors_interleave(self):
        s = AffineBelowSchedule(0.5, 1.0)
        g = union_grid(64, s, 1e-2)
        anchors = g.points[g.anchor_indices]
        assert np.all(anchors <= 1.0 + 1e-12)
        # anchors are genuine new points between base points
        assert len(g.points) > 64

    def test_two_block_density(self):
        g = union_grid(4096, ConstantSchedule(1.0, 1.0), 1e-2)
        base = g.points[g.base_indices]
        gaps = np.diff(base)
        head = gaps[base[:-1] < 0.9 - 1e-9]
        tail = gaps[base[:-1] >= 0.9 - 1e-9]
        assert np.median(head) / np.median(tail) == pytest.approx(10.0, rel=0.05)

    def test_mixed_table_rejected(self):
        s = TableSchedule(((0.0, 0.5), (1.0, 0.5)), 1.0)
        with pytest.raises(ScheduleError, match="[Mm]ixed"):
            union_grid(16, s, 0.0)

    def test_bad_delta(self):
        with pytest.raises(GridError, match="delta"):
            union_grid(16, ConstantSchedule(1.0, 1.0), 1.0)

    def test_levels_share_points_and_keep_their_own_times(self):
        s = PowerLawSchedule(0.5, 1.0)
        grids = union_grids([64, 256], s, 1e-2)
        assert grids[0].points is grids[1].points
        for n, g in zip([64, 256], grids):
            alone = union_grid(n, s, 1e-2)
            for idx, own in ((g.base_indices, alone.base_indices),
                             (g.anchor_indices, alone.anchor_indices)):
                np.testing.assert_allclose(g.points[idx], alone.points[own],
                                           rtol=0, atol=1e-12)
        # every point of the shared set is some level's base or anchor time
        used = np.concatenate([np.r_[g.base_indices, g.anchor_indices] for g in grids])
        assert np.array_equal(np.unique(used), np.arange(len(grids[0].points)))


class TestSampling:
    # montecarlo._normal_block is the one sampler: the estimate and the
    # --dump-path/--dump-wealth files draw every path with it
    def test_deterministic(self):
        g = union_grid(128, ConstantSchedule(1.0, 1.0), 0.0)
        sqrt_gaps = np.sqrt(np.diff(g.points))
        a = _normal_block([7, mix_seed(42, 3)], sqrt_gaps)
        b = _normal_block([7, mix_seed(42, 3)], sqrt_gaps)
        assert np.array_equal(a, b)

    def test_starts_at_zero(self):
        g = union_grid(128, ConstantSchedule(1.0, 1.0), 0.0)
        p = draw(g, 3)
        assert p[0] == 0.0
        assert value_at(g, p, 0.0) == 0.0

    def test_different_seeds_differ(self):
        g = union_grid(128, ConstantSchedule(1.0, 1.0), 0.0)
        a, b = _normal_block([1, 2], np.sqrt(np.diff(g.points)))
        assert not np.array_equal(a, b)

    def test_value_at_exact_and_off_grid(self):
        g = TimeGrid(points=np.array([0.0, 0.25, 1.0]))
        p = draw(g, 11)
        assert value_at(g, p, 0.25) == p[1]
        with pytest.raises(GridError, match="interpolate"):
            value_at(g, p, 0.7)

    def test_path_values_must_match_grid(self):
        g = TimeGrid(points=np.array([0.0, 1.0]))
        with pytest.raises(GridError, match="align"):
            check_path(g, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(GridError, match="start at 0"):
            check_path(g, np.array([0.5, 1.0]))

    def test_standardized_increment_moments(self):
        # statistical gate: 1e5 paths, all standardized increments
        # mean within +-0.02, variance within [0.97, 1.03], and disjoint
        # increments uncorrelated within +-0.02
        g = TimeGrid(points=np.array([0.0, 0.3, 0.55, 1.0, 1.4]))
        n, block = 100_000, 10_000
        rows = np.empty((n, 4))
        gaps = np.diff(g.points)
        for lo in range(0, n, block):
            seeds = [mix_seed(123, k) for k in range(lo, lo + block)]
            rows[lo:lo + block] = np.diff(_normal_block(seeds, np.sqrt(gaps))) / np.sqrt(gaps)
        means = rows.mean(axis=0)
        variances = rows.var(axis=0, ddof=1)
        assert np.all(np.abs(means) < 0.02)
        assert np.all((variances > 0.97) & (variances < 1.03))
        corr = np.corrcoef(rows, rowvar=False)
        off_diag = corr[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off_diag) < 0.02)

    def test_dump_csv(self, tmp_path):
        g = union_grid(256, ConstantSchedule(value=1.0, horizon=1.0), 0.0)
        target = tmp_path / "path.csv"
        assert main(["simulate", "--schedule", "const:1", "--paths", "200",
                     "--base-points", "256", "--dump-path", str(target)]) == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "t,B"
        assert len(lines) == 1 + len(g.points)
        assert float(lines[1].split(",")[1]) == 0.0


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        seeds = [mix_seed(42, k) for k in range(1000)]
        assert seeds == [mix_seed(42, k) for k in range(1000)]
        assert len(set(seeds)) == 1000

    def test_master_seed_matters(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(GridError, match="index"):
            mix_seed(42, -1)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    delta=st.sampled_from([0.0, 1e-3, 1e-2, 1e-1]),
    q=st.sampled_from([0.25, 0.5, 1.0]),
)
def test_union_grid_always_well_formed(n, delta, q):
    s = PowerLawSchedule(q, 1.0)
    g = union_grid(n, s, delta)
    assert g.points[0] == 0.0
    assert np.all(np.diff(g.points) > 0)
    base = g.points[g.base_indices]
    # base sub-grid reaches the truncated horizon
    assert base[-1] == pytest.approx(1.0 - delta, abs=1e-12)
    # every anchor is present at its recorded index
    np.testing.assert_allclose(
        g.points[g.anchor_indices],
        np.minimum(base + s._eval_array(base), g.points[-1]),
        atol=1e-9,
    )
