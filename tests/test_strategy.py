"""Portfolio rules and market coefficient handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_lab.brownian import GridError, union_grid
from insider_lab.config import from_dict, strategy_literal
from insider_lab.schedules import ConstantSchedule, PowerLawSchedule
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    PiecewiseConstant,
    StrategyError,
    TableStrategy,
)
from oracles import donsker_composed, draw, honest_merton, index_of, insider_optimal

RIG = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0)


class TestMarket:
    def test_scalar_coefficients(self):
        assert RIG.alpha(0.5) == 0.1
        assert RIG.beta(0.99) == 0.2

    def test_piecewise_lookup(self):
        pw = PiecewiseConstant(breaks=(0.0, 0.5), values=(1.0, 2.0))
        assert pw(0.49) == 1.0
        assert pw(0.5) == 2.0
        np.testing.assert_allclose(pw(np.array([0.0, 0.6])), [1.0, 2.0])

    def test_beta_floor_enforced(self):
        with pytest.raises(StrategyError, match="beta_min"):
            MarketCoefficients(alpha=0.1, beta=1e-9, horizon=1.0)

    def test_negative_volatility_magnitude_ok(self):
        m = MarketCoefficients(alpha=0.1, beta=-0.2, horizon=1.0)
        assert honest_merton(m, 0.0) == pytest.approx(0.1 / 0.04)

    @pytest.mark.parametrize("x0", [0.0, -1.0])
    def test_wealth_positive(self, x0):
        with pytest.raises(StrategyError, match="wealth"):
            MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=x0)

    def test_squared_ratio_integral_constant(self):
        assert RIG.squared_ratio_integral(1.0) == pytest.approx(0.25)
        assert RIG.squared_ratio_integral(0.4) == pytest.approx(0.1)

    def test_squared_ratio_integral_piecewise(self):
        m = MarketCoefficients(
            alpha={"breaks": [0.0, 0.5], "values": [0.1, 0.2]},
            beta=0.2,
            horizon=1.0,
        )
        expected = 0.25 * 0.5 + 1.0 * 0.5
        assert m.squared_ratio_integral(1.0) == pytest.approx(expected)

    def test_bad_piecewise(self):
        with pytest.raises(StrategyError, match="breakpoint"):
            PiecewiseConstant(breaks=(0.1,), values=(1.0,))
        with pytest.raises(StrategyError, match="increasing"):
            PiecewiseConstant(breaks=(0.0, 0.0), values=(1.0, 2.0))
        with pytest.raises(StrategyError, match="increasing"):
            PiecewiseConstant(breaks=(0.0, math.nan), values=(0.1, 0.2))


class TestHonest:
    def test_value(self):
        assert honest_merton(RIG, 0.3) == pytest.approx(2.5)

    def test_path_independent(self):
        s = ConstantSchedule(1.0, 1.0)
        g = union_grid(64, s, 0.0)
        p1, p2 = draw(g, 1), draw(g, 2)
        ts = g.points[g.base_indices][:-1]
        assert all(honest_merton(RIG, t) == honest_merton(RIG, t) for t in ts)
        del p1, p2  # honest fraction never reads a path


class TestInsider:
    def test_closed_form(self):
        s = ConstantSchedule(0.5, 1.0)
        g = union_grid(5, s, 0.0)
        p = draw(g, 9)
        t = float(g.points[g.base_indices][1])
        eps = s.eval(t)
        expected = 2.5 - (p[index_of(g, t)] - p[index_of(g, t + eps)]) / (0.2 * eps)
        assert insider_optimal(RIG, s, g, p, t) == pytest.approx(expected, rel=1e-14)

    def test_missing_anchor_named_in_error(self):
        s = ConstantSchedule(0.3, 1.0)
        g = union_grid(5, ConstantSchedule(1.0, 1.0), 0.0)  # anchors for eps=1 only
        p = draw(g, 4)
        with pytest.raises(GridError, match="0.55"):
            insider_optimal(RIG, s, g, p, 0.25)

    def test_zero_when_flat_increment(self):
        # identical noise at t and anchor: correction vanishes
        s = ConstantSchedule(0.5, 1.0)
        g = union_grid(5, s, 0.0)
        frozen = np.zeros(len(g.points))
        assert insider_optimal(RIG, s, g, frozen, 0.5) == pytest.approx(2.5)

    def test_two_routes_agree(self):
        # composed conditional-density route equals the direct formula
        s = PowerLawSchedule(0.5, 1.0)
        g = union_grid(512, s, 1e-3)
        rng = np.random.default_rng(99)
        base = g.points[g.base_indices][:-1]
        for seed in range(20):
            p = draw(g, seed)
            for t in rng.choice(base, size=500):
                a = insider_optimal(RIG, s, g, p, float(t))
                b = donsker_composed(RIG, s, g, p, float(t))
                assert b == pytest.approx(a, rel=1e-12, abs=1e-12)

    def test_second_horizon_is_irrelevant(self):
        # the portfolio depends only on the first look-ahead; a second
        # observation horizon cancels identically in the composed route
        from insider_lab.donsker import DonskerParams, cond_delta_2d, cond_delta_deriv_2d

        rng = np.random.default_rng(5)
        for _ in range(200):
            b, y1 = rng.normal(size=2)
            e1 = rng.uniform(0.05, 1.0)
            ratios = []
            for gap in (0.1, 1.0, 7.3):
                y2 = rng.normal()
                p = DonskerParams(base=b, eps1=e1, eps2=e1 + gap)
                dens = cond_delta_2d(p, y1, y2)
                if dens > 0:
                    ratios.append(cond_delta_deriv_2d(p, y1, y2) / dens)
            assert all(r == pytest.approx(ratios[0], rel=1e-12) for r in ratios)


class TestTableStrategy:
    def test_interpolates(self):
        ts = TableStrategy(knots=((0.0, 0.0), (1.0, 2.0)))
        assert ts.fraction(0.25) == pytest.approx(0.5)

    def test_extrapolation_rejected(self):
        ts = TableStrategy(knots=((0.0, 0.0), (0.5, 1.0)))
        with pytest.raises(StrategyError, match="extrapolation"):
            ts.fraction(0.75)

    def test_parse_literals(self, tmp_path):
        def parse(text):
            # the CLI's path: the literal's entry, built on the config's schedule
            return from_dict({"schedule": {"kind": "const", "value": 1.0},
                              "strategy": strategy_literal(text)})

        assert isinstance(parse("merton").strategy, HonestStrategy)
        cfg = parse("insider")
        assert isinstance(cfg.strategy, InsiderStrategy) and cfg.strategy.schedule is cfg.schedule
        prof = tmp_path / "profile.csv"
        prof.write_text("t,pi\n0.0,0.0\n1.0,0.0\n")
        tab = parse(f"table:@{prof}").strategy
        assert isinstance(tab, TableStrategy)
        assert tab.fraction(0.5) == 0.0

    def test_bad_literal(self):
        with pytest.raises(StrategyError, match="unknown"):
            strategy_literal("kelly")


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(-0.5, 0.5),
    beta=st.floats(0.05, 2.0),
    t=st.floats(0.0, 0.99),
)
def test_honest_fraction_formula(alpha, beta, t):
    m = MarketCoefficients(alpha=alpha, beta=beta, horizon=1.0)
    assert honest_merton(m, t) == pytest.approx(alpha / beta**2, rel=1e-12, abs=1e-12)
