"""Full-rig acceptance gates.

Every check here runs the default experiment rig (horizon 1, alpha 0.1,
beta 0.2, base grid 4096 points, antithetic pairs, 200000 paths, master
seed 42) or a documented variation of it, and grades the result against
a closed form at a stated tolerance.  The whole module takes a few
minutes; it is the final word on whether the lab reproduces the theory
it implements.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import stats

from insider_lab import cli
from insider_lab.analysis import benchmark_value
from insider_lab.donsker import (
    DonskerParams,
    cond_delta_2d,
    cond_delta_deriv_2d,
    malliavin_ratio,
)
from insider_lab.montecarlo import (
    ExperimentConfig,
    duality_check,
    estimate_log_utility,
    increment_regression,
    refinement_study,
)
from insider_lab.schedules import (
    AffineBelowSchedule,
    Classification,
    ConstantSchedule,
    PowerLawSchedule,
    classify_viability,
)
from insider_lab.strategy import HonestStrategy, InsiderStrategy, MarketCoefficients

RIG = dict(n_paths=200_000, base_points=4096, master_seed=42, antithetic=True)
MARKET = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0)
DRIFTLESS = MarketCoefficients(alpha=0.0, beta=0.2, horizon=1.0)


def rig_estimate(market, schedule, strategy, delta, **overrides):
    cfg = ExperimentConfig(market=market, schedule=schedule, strategy=strategy,
                           delta=delta, **{**RIG, **overrides})
    return estimate_log_utility(cfg)


class TestHonestBaseline:
    def test_merton_fraction_recovers_its_closed_form(self):
        # constant pi = alpha/beta^2 earns 0.5*(alpha/beta)^2*T = 0.125
        est = rig_estimate(MARKET, ConstantSchedule(1.0, 1.0),
                           HonestStrategy(), 0.0)
        assert abs(est.mean - 0.125) <= max(3 * est.stderr, 0.005)


class TestViableSqrtSchedule:
    def test_truncated_estimate_matches_theory(self):
        sched = PowerLawSchedule(0.5, 1.0)
        est = rig_estimate(MARKET, sched, InsiderStrategy(sched), 1e-3)
        theory = benchmark_value(MARKET, InsiderStrategy(sched), 1e-3)
        # 0.5*(2*(1 - sqrt(1e-3)) + 0.25*0.999)
        assert theory == pytest.approx(1.0932522233983162, rel=1e-12)
        assert abs(est.mean - theory) <= max(3 * est.stderr, 0.02)

    def test_untruncated_theory_limit(self):
        sched = PowerLawSchedule(0.5, 1.0)
        theory = benchmark_value(MARKET, InsiderStrategy(sched), 0.0)
        assert theory == pytest.approx(1.125, rel=1e-9)


class TestConstantWindow:
    def test_unit_lookahead_estimate(self):
        sched = ConstantSchedule(1.0, 1.0)
        est = rig_estimate(MARKET, sched, InsiderStrategy(sched), 0.0)
        assert abs(est.mean - 0.625) <= max(3 * est.stderr, 0.01)


class TestDivergentLogGrowth:
    def test_reciprocal_window_tracks_half_log_and_keeps_growing(self):
        sched = PowerLawSchedule(1.0, 1.0)
        means = {}
        for delta in (1e-1, 1e-2):
            est = rig_estimate(DRIFTLESS, sched, InsiderStrategy(sched), delta)
            target = 0.5 * math.log(1.0 / delta)
            assert abs(est.mean - target) <= max(3 * est.stderr, 0.03), delta
            means[delta] = est.mean
        assert means[1e-2] - means[1e-1] >= 1.0


class TestBelowHorizonFamily:
    def test_classification_and_truncated_values(self):
        sched = AffineBelowSchedule(0.5, 1.0)
        report = classify_viability(sched)
        assert report.classification is Classification.NOT_VIABLE_BELOW_HORIZON
        for delta in (1e-1, 1e-2):
            est = rig_estimate(DRIFTLESS, sched, InsiderStrategy(sched), delta)
            target = math.log(1.0 / delta)
            assert abs(est.mean - target) <= max(3 * est.stderr, 0.05), delta


class TestForwardIntegralIdentities:
    def test_lookahead_integrand_mean(self):
        est, analytic = duality_check("constant_lookahead", 1.0, 200_000, 4096,
                                      42, eps=0.5)
        assert analytic == 1.0
        assert abs(est.mean - analytic) <= 3 * est.stderr

    def test_terminal_value_integrand_mean(self):
        est, analytic = duality_check("terminal_value", 1.0, 200_000, 4096, 42)
        assert analytic == 1.0
        assert abs(est.mean - analytic) <= 3 * est.stderr


# same pinned grid as the density test module: 3 levels x 2 windows x 2 gaps
DENSITY_GRID = [
    DonskerParams(base=b, eps1=e1, eps2=e1 * f)
    for b in (-2.0, 0.0, 3.0)
    for e1 in (0.01, 0.5)
    for f in (1.5, 4.0)
]


def _tensor_integral(p, n=2048):
    x, w = leggauss(n)
    half = 8.0 * math.sqrt(p.eps2)
    nodes = p.base + half * x
    weights = half * w
    gap = p.eps2 - p.eps1
    norm = 1.0 / (2.0 * math.pi * math.sqrt(p.eps1 * gap))
    a = np.exp(-((nodes - p.base) ** 2) / (2.0 * p.eps1))[:, None]
    b = np.exp(-((nodes[:, None] - nodes[None, :]) ** 2) / (2.0 * gap))
    return float(weights @ (norm * a * b) @ weights)


class TestConditionalDensityLayer:
    @pytest.mark.parametrize("p", DENSITY_GRID,
                             ids=lambda p: f"b{p.base}_e{p.eps1}_{p.eps2}")
    def test_density_normalizes_on_the_pinned_grid(self, p):
        assert _tensor_integral(p) == pytest.approx(1.0, abs=1e-9)

    def test_derivative_to_density_ratio_identity(self):
        p = DonskerParams(base=0.5, eps1=0.3, eps2=0.8)
        for y1 in np.linspace(-1.5, 2.5, 9):
            expected = malliavin_ratio(p.base, float(y1), p.eps1)
            for y2 in np.linspace(-1.5, 2.5, 9):
                dens = cond_delta_2d(p, float(y1), float(y2))
                if dens == 0.0 or expected == 0.0:
                    continue
                ratio = cond_delta_deriv_2d(p, float(y1), float(y2)) / dens
                assert ratio == pytest.approx(expected, rel=1e-12)

    def test_sampled_pairs_match_density_cells(self):
        # 1e5 simulated look-ahead pairs vs probabilities integrated from
        # the density, graded as a chi-square over a 10x10 cell grid
        p = DonskerParams(base=0.5, eps1=0.3, eps2=0.8)
        n = 100_000
        rng = np.random.default_rng(314159)
        y1 = p.base + math.sqrt(p.eps1) * rng.standard_normal(n)
        y2 = y1 + math.sqrt(p.eps2 - p.eps1) * rng.standard_normal(n)

        s1, s2 = math.sqrt(p.eps1), math.sqrt(p.eps2)
        edges1 = np.concatenate([[p.base - 8 * s1],
                                 np.linspace(p.base - 3 * s1, p.base + 3 * s1, 9),
                                 [p.base + 8 * s1]])
        edges2 = np.concatenate([[p.base - 8 * s2],
                                 np.linspace(p.base - 3 * s2, p.base + 3 * s2, 9),
                                 [p.base + 8 * s2]])
        observed, _, _ = np.histogram2d(y1, y2, bins=[edges1, edges2])

        probs = np.empty((10, 10))
        for i in range(10):
            xi, wi = leggauss(32)
            mi, hi = 0.5 * (edges1[i + 1] + edges1[i]), 0.5 * (edges1[i + 1] - edges1[i])
            xi, wi = mi + hi * xi, hi * wi
            for j in range(10):
                xj, wj = leggauss(32)
                mj, hj = 0.5 * (edges2[j + 1] + edges2[j]), 0.5 * (edges2[j + 1] - edges2[j])
                xj, wj = mj + hj * xj, hj * wj
                vals = np.array([[cond_delta_2d(p, a, c) for c in xj] for a in xi])
                probs[i, j] = wi @ vals @ wj

        expected = n * probs
        mask = expected.ravel() >= 5.0
        stat = np.sum((observed.ravel()[mask] - expected.ravel()[mask]) ** 2
                      / expected.ravel()[mask])
        p_value = stats.chi2.sf(stat, int(mask.sum()) - 1)
        assert p_value > 1e-3


class TestDriftRegressions:
    def test_bridge_slope_inside_the_window(self):
        for ratio in (0.25, 0.5, 1.0):
            res = increment_regression(0.5, 0.1, ratio * 0.1, 100_000, 42)
            assert abs(res.slope - ratio) <= 3 * res.stderr or res.slope == ratio

    def test_martingale_slope_beyond_the_window(self):
        for ratio in (1.0, 2.0, 10.0):
            res = increment_regression(0.5, 0.1, ratio * 0.1, 100_000, 42)
            assert abs(res.slope - 1.0) <= 3 * res.stderr or res.slope == 1.0

    def test_window_boundary_is_exact(self):
        res = increment_regression(0.5, 0.1, 0.1, 100_000, 42)
        assert res.slope == 1.0 and res.stderr == 0.0

    def test_drift_check_command_passes_every_row(self):
        # the CLI derives each ratio's seed from the master seed, so its
        # regressions are independent draws of the ones above
        assert cli.main(["drift-check", "--ratios", "0.25,0.5,1,2,10",
                         "--paths", "100000", "--seed", "42", "--strict"]) == 0


class TestThreadByteIdentity:
    def test_one_and_eight_worker_threads_agree_bit_for_bit(self, tmp_path):
        base = [sys.executable, "-m", "insider_lab", "simulate",
                "--schedule", "powerlaw:q=0.5", "--delta", "1e-3",
                "--paths", "200000", "--base-points", "4096", "--seed", "42"]
        payloads = []
        for threads, name in ((1, "t1.json"), (8, "t8.json")):
            out = tmp_path / name
            proc = subprocess.run([*base, "--threads", str(threads),
                                   "--output", str(out)],
                                  capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            payloads.append(json.loads(out.read_text()))
        for payload in payloads:
            payload.pop("wall_time_s")
        assert payloads[0] == payloads[1]
        assert (json.dumps(payloads[0], sort_keys=True)
                == json.dumps(payloads[1], sort_keys=True))


class TestRefinementBiasDecay:
    def test_gap_to_theory_shrinks_with_the_grid(self):
        sched = PowerLawSchedule(0.5, 1.0)
        cfg = ExperimentConfig(market=MARKET, schedule=sched,
                               strategy=InsiderStrategy(sched), delta=1e-3,
                               n_paths=200_000, base_points=1024,
                               master_seed=42, antithetic=True)
        levels = refinement_study(cfg, levels=3, factor=4)
        assert [lvl.base_points for lvl in levels] == [1024, 4096, 16384]
        theory = benchmark_value(MARKET, InsiderStrategy(sched), 1e-3)
        gaps = [abs(lvl.estimate.mean - theory) for lvl in levels]
        for coarse, fine in zip(gaps, gaps[1:]):
            assert coarse >= 1.5 * fine, gaps
