"""Conditional look-ahead densities: spot values, normalization, factorization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import stats

from insider_lab.cli import _even_grid
from insider_lab.donsker import (
    DonskerError,
    DonskerParams,
    cond_delta_2d,
    cond_delta_deriv_2d,
    malliavin_ratio,
)
from oracles import cond_delta_1d

# parameter grid pinned for the normalization gate
PARAM_GRID = [
    DonskerParams(base=b, eps1=e1, eps2=e1 * f)
    for b in (-2.0, 0.0, 3.0)
    for e1 in (0.01, 0.5)
    for f in (1.5, 4.0)
]


def gauss_legendre_nodes(lo, hi, n):
    x, w = leggauss(n)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def quad_2d(p, n=2048):
    """Tensor Gauss-Legendre integral of cond_delta_2d over b +- 8*sqrt(eps2)."""
    half_width = 8.0 * math.sqrt(p.eps2)
    x1, w1 = gauss_legendre_nodes(p.base - half_width, p.base + half_width, n)
    x2, w2 = gauss_legendre_nodes(p.base - half_width, p.base + half_width, n)
    gap = p.eps2 - p.eps1
    # vectorized log density over the tensor grid
    log_norm = -math.log(2.0 * math.pi) - 0.5 * math.log(p.eps1 * gap)
    a = np.exp(-((x1 - p.base) ** 2) / (2.0 * p.eps1))[:, None]
    b = np.exp(-((x1[:, None] - x2[None, :]) ** 2) / (2.0 * gap))
    dens = math.exp(log_norm) * a * b
    return float(w1 @ dens @ w2)


class TestSpotValues:
    def test_center_value(self):
        p = DonskerParams(base=0.0, eps1=1.0, eps2=2.0)
        assert cond_delta_2d(p, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)

    def test_peak_is_prefactor(self):
        p = DonskerParams(base=1.0, eps1=0.5, eps2=1.0)
        expected = 1.0 / (2.0 * math.pi * math.sqrt(0.5 * 0.5))
        assert cond_delta_2d(p, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_deriv_zero_at_base(self):
        p = DonskerParams(base=0.7, eps1=0.3, eps2=0.9)
        assert cond_delta_deriv_2d(p, 0.7, 0.7) == 0.0

    def test_deriv_value(self):
        p = DonskerParams(base=0.0, eps1=1.0, eps2=2.0)
        expected = math.exp(-0.5) / (2.0 * math.pi)
        assert cond_delta_deriv_2d(p, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_far_tail_underflows_to_zero(self):
        p = DonskerParams(base=0.0, eps1=0.01, eps2=0.02)
        assert cond_delta_2d(p, 60.0, 60.0) == 0.0

    def test_1d_is_normal_density(self):
        assert cond_delta_1d(0.5, 1.5, 2.0) == pytest.approx(
            stats.norm.pdf(1.5, loc=0.5, scale=math.sqrt(2.0)), rel=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_eps(self, bad):
        with pytest.raises(DonskerError):
            DonskerParams(base=0.0, eps1=bad, eps2=2.0)
        with pytest.raises(DonskerError):
            cond_delta_1d(0.0, 0.0, bad)
        with pytest.raises(DonskerError):
            malliavin_ratio(0.0, 1.0, bad)

    def test_eps2_must_exceed_eps1(self):
        with pytest.raises(DonskerError, match="eps2"):
            DonskerParams(base=0.0, eps1=1.0, eps2=1.0)


class TestNormalization:
    @pytest.mark.parametrize("p", PARAM_GRID, ids=lambda p: f"b{p.base}_e{p.eps1}_{p.eps2}")
    def test_integrates_to_one(self, p):
        assert quad_2d(p) == pytest.approx(1.0, abs=1e-9)

    def test_1d_marginal_matches(self):
        # integrating y2 out of the 2-D density leaves the 1-D density in y1
        p = DonskerParams(base=0.5, eps1=0.25, eps2=1.0)
        y1 = 0.9
        lo, hi = y1 - 8.0 * math.sqrt(p.eps2), y1 + 8.0 * math.sqrt(p.eps2)
        x, w = gauss_legendre_nodes(lo, hi, 2048)
        marginal = float(np.sum(w * np.array([cond_delta_2d(p, y1, y2) for y2 in x])))
        assert marginal == pytest.approx(cond_delta_1d(p.base, y1, p.eps1), abs=1e-9)


class TestFactorization:
    @pytest.mark.parametrize("p", PARAM_GRID[:6], ids=lambda p: f"b{p.base}_e{p.eps1}_{p.eps2}")
    def test_product_of_normals(self, p):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            y1 = p.base + rng.normal() * 2.0 * math.sqrt(p.eps1)
            y2 = y1 + rng.normal() * 2.0 * math.sqrt(p.eps2 - p.eps1)
            expected = stats.norm.pdf(y1, p.base, math.sqrt(p.eps1)) * stats.norm.pdf(
                y2, y1, math.sqrt(p.eps2 - p.eps1)
            )
            got = cond_delta_2d(p, y1, y2)
            if expected > 1e-280:
                assert got == pytest.approx(expected, rel=1e-12)


class TestRatio:
    def test_examples(self):
        assert malliavin_ratio(0.0, 1.0, 0.5) == pytest.approx(2.0)
        assert malliavin_ratio(1.0, 1.0, 0.1) == 0.0

    def test_ratio_recovers_deriv_over_density(self):
        rng = np.random.default_rng(7)
        p = DonskerParams(base=-1.0, eps1=0.2, eps2=0.5)
        for _ in range(500):
            y1 = rng.normal(-1.0, 2.0)
            y2 = rng.normal(-1.0, 2.0)
            dens = cond_delta_2d(p, y1, y2)
            if dens > 1e-300:
                assert cond_delta_deriv_2d(p, y1, y2) / dens == pytest.approx(
                    malliavin_ratio(p.base, y1, p.eps1), rel=1e-12
                )


@settings(max_examples=60, deadline=None)
@given(
    b=st.floats(-3.0, 3.0),
    y1=st.floats(-3.0, 3.0),
    y2=st.floats(-3.0, 3.0),
    e1=st.floats(0.01, 1.0),
    gap=st.floats(0.01, 1.0),
)
def test_density_positive_and_deriv_sign(b, y1, y2, e1, gap):
    p = DonskerParams(base=b, eps1=e1, eps2=e1 + gap)
    dens = cond_delta_2d(p, y1, y2)
    assert dens >= 0.0
    deriv = cond_delta_deriv_2d(p, y1, y2)
    if dens > 0:
        assert math.copysign(1.0, deriv) == math.copysign(1.0, y1 - b) or deriv == 0.0


class TestDistribution:
    def test_chi_square_histogram(self):
        # simulate 1e5 conditional pairs and compare cell counts against
        # probabilities integrated from cond_delta_2d
        p = DonskerParams(base=0.5, eps1=0.3, eps2=0.8)
        n = 100_000
        rng = np.random.default_rng(314159)
        y1 = p.base + math.sqrt(p.eps1) * rng.standard_normal(n)
        y2 = y1 + math.sqrt(p.eps2 - p.eps1) * rng.standard_normal(n)

        # 10x10 cells covering +-8 sd, outer cells absorb the tails
        s1 = math.sqrt(p.eps1)
        s2 = math.sqrt(p.eps2)
        edges1 = np.concatenate([[p.base - 8 * s1], np.linspace(p.base - 3 * s1, p.base + 3 * s1, 9), [p.base + 8 * s1]])
        edges2 = np.concatenate([[p.base - 8 * s2], np.linspace(p.base - 3 * s2, p.base + 3 * s2, 9), [p.base + 8 * s2]])
        observed, _, _ = np.histogram2d(y1, y2, bins=[edges1, edges2])

        probs = np.empty((10, 10))
        for i in range(10):
            xi, wi = gauss_legendre_nodes(edges1[i], edges1[i + 1], 32)
            for j in range(10):
                xj, wj = gauss_legendre_nodes(edges2[j], edges2[j + 1], 32)
                vals = np.array([[cond_delta_2d(p, a, c) for c in xj] for a in xi])
                probs[i, j] = wi @ vals @ wj
        assert probs.sum() == pytest.approx(1.0, abs=1e-6)

        expected = n * probs
        mask = expected.ravel() >= 5.0
        stat = np.sum(
            (observed.ravel()[mask] - expected.ravel()[mask]) ** 2 / expected.ravel()[mask]
        )
        dof = int(mask.sum()) - 1
        p_value = stats.chi2.sf(stat, dof)
        assert p_value > 1e-3


@settings(max_examples=500, deadline=None)
@given(base=st.floats(-1e6, 1e6), width=st.floats(5e-324, 1e6),
       points=st.integers(2, 400))
@example(base=0.0, width=1e-321, points=1000)  # the step underflows to 0
@example(base=1e10, width=1e-10, points=21)  # start == stop
def test_donsker_table_grid_is_linspace_bit_for_bit(base, width, points):
    ys = _even_grid(base - width, base + width, points)
    assert np.array(ys).tobytes() == np.linspace(base - width, base + width, points).tobytes()
