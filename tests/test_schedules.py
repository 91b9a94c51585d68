"""Look-ahead schedule construction, evaluation and viability classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insider_lab.config import load_table_csv, parse_schedule
from insider_lab.schedules import (
    AffineBelowSchedule,
    Classification,
    ConstantSchedule,
    Method,
    PowerLawSchedule,
    QuadratureError,
    Regime,
    ScheduleError,
    TableSchedule,
    classify_viability,
    _interp,
    regime,
    viability_integral,
)
from oracles import anchors_oscillate, table_regime


class TestEval:
    def test_power_law_value(self):
        s = PowerLawSchedule(0.5, 1.0)
        assert s.eval(0.75) == pytest.approx(0.5)

    def test_constant_value(self):
        s = ConstantSchedule(0.3, 2.0)
        assert s.eval(1.7) == 0.3

    def test_affine_below_value(self):
        s = AffineBelowSchedule(0.5, 1.0)
        assert s.eval(0.5) == pytest.approx(0.25)

    def test_vector_eval(self):
        s = PowerLawSchedule(2.0, 1.0)
        t = np.array([0.0, 0.5, 0.9])
        np.testing.assert_allclose(s.eval(t), (1.0 - t) ** 2)

    @pytest.mark.parametrize("t", [-0.1, 1.0, 1.5])
    def test_domain_errors(self, t):
        s = PowerLawSchedule(0.5, 1.0)
        with pytest.raises(ScheduleError, match="evaluation time"):
            s.eval(t)

    def test_positive_on_domain(self):
        s = PowerLawSchedule(0.5, 1.0)
        t = np.linspace(0.0, 1.0, 512, endpoint=False)
        assert np.all(s.eval(t) > 0)

    def test_epsilon0_metadata(self):
        assert PowerLawSchedule(0.5, 1.0).eval(0.0) == pytest.approx(1.0)
        assert ConstantSchedule(0.25, 1.0).eval(0.0) == 0.25


class TestConstruction:
    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan])
    def test_bad_exponent(self, q):
        with pytest.raises(ScheduleError, match="exponent"):
            PowerLawSchedule(q, 1.0)

    def test_power_law_long_horizon_needs_q_one(self):
        # (T-t)^q vs T-t flips order when T-t > 1, so only q=1 extends.
        with pytest.raises(ScheduleError, match="horizon <= 1"):
            PowerLawSchedule(0.5, 2.0)
        PowerLawSchedule(1.0, 2.0)  # fine

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_bad_horizon(self, T):
        with pytest.raises(ScheduleError, match="horizon"):
            ConstantSchedule(0.5, T)

    @pytest.mark.parametrize("c", [0.0, 1.5, -0.2])
    def test_bad_affine_slope(self, c):
        with pytest.raises(ScheduleError, match="slope"):
            AffineBelowSchedule(c, 1.0)

    def test_bad_constant(self):
        with pytest.raises(ScheduleError, match="positive"):
            ConstantSchedule(0.0, 1.0)

    def test_table_needs_increasing_times(self):
        with pytest.raises(ScheduleError, match="strictly increasing"):
            TableSchedule(((0.0, 1.0), (0.5, 0.9), (0.5, 0.8), (1.0, 0.7)), 1.0)
        with pytest.raises(ScheduleError, match="strictly increasing"):
            TableSchedule(((0.0, 0.5), (math.nan, 0.4), (1.0, 0.3)), 1.0)

    @pytest.mark.parametrize("knots", [((-math.inf, 1.0), (1.0, 2.0)),
                                       ((0.0, 1.0), (math.inf, 2.0)),
                                       ((0.0, 1.0), (1.0, 1.0), (math.inf, 1.0))])
    def test_table_needs_finite_times(self, knots):
        with pytest.raises(ScheduleError, match="finite"):
            TableSchedule(knots, 1.0)

    def test_table_needs_positive_durations(self):
        with pytest.raises(ScheduleError, match="positive"):
            TableSchedule(((0.0, 1.0), (1.0, 0.0)), 1.0)

    def test_table_must_cover_horizon(self):
        with pytest.raises(ScheduleError, match="extrapolation"):
            TableSchedule(((0.0, 1.0), (0.5, 1.0)), 1.0)

    def test_table_interpolates_linearly(self):
        s = TableSchedule(((0.0, 1.0), (1.0, 2.0)), 1.0)
        assert s.eval(0.25) == pytest.approx(1.25)

    def test_oscillating_anchors_rejected(self):
        # anchor distance to T wobbles near the end: up at 0.93, down at 0.96
        knots = ((0.0, 1.0), (0.9, 0.11), (0.93, 0.12), (0.96, 0.05), (1.0, 0.05))
        with pytest.raises(ScheduleError, match="monotonically"):
            TableSchedule(knots, 1.0)

    def test_wobble_between_samples_rejected(self):
        # anchor distances 0.0749 -> 0.0759 -> 0.0748 within 2e-4 of time
        knots = ((0.0, 1.1), (0.9, 0.2), (0.9502, 0.1247), (0.9503, 0.1256),
                 (0.9504, 0.1244), (1.0, 0.05))
        with pytest.raises(ScheduleError, match="monotonically"):
            TableSchedule(knots, 1.0)

    def test_crossing_inside_the_window_is_mixed_not_oscillating(self):
        # anchors 0.2 + 0.9 t pass T at t = 0.889 and keep rising: the
        # regime is mixed, but the anchors never back away from T
        s = TableSchedule(((0.0, 0.2), (1.0, 0.1)), 1.0)
        with pytest.raises(ScheduleError, match="mixed"):
            classify_viability(s)

    def test_constant_style_table_allowed(self):
        # anchors keep a growing lead over the horizon; no convergence to check
        TableSchedule(((0.0, 0.4), (1.0, 0.4)), 1.0)
        TableSchedule(((0.0, 1.0), (1.0, 1.0)), 1.0)


class TestRegime:
    def test_power_law_q1(self):
        assert regime(PowerLawSchedule(1.0, 1.0)) is Regime.ABOVE_HORIZON

    def test_power_law_sqrt(self):
        assert regime(PowerLawSchedule(0.5, 1.0)) is Regime.ABOVE_HORIZON

    @pytest.mark.parametrize("q", [0.25, 0.5, 1.0, 2.0, 5.0])
    def test_power_law_always_above(self, q):
        assert regime(PowerLawSchedule(q, 1.0)) is Regime.ABOVE_HORIZON

    def test_affine_below(self):
        assert regime(AffineBelowSchedule(0.5, 1.0)) is Regime.BELOW_HORIZON

    def test_constant_at_least_horizon_is_above(self):
        assert regime(ConstantSchedule(1.0, 1.0)) is Regime.ABOVE_HORIZON
        assert regime(ConstantSchedule(2.0, 1.0)) is Regime.ABOVE_HORIZON

    def test_short_constant_is_mixed(self):
        assert regime(ConstantSchedule(0.5, 1.0)) is Regime.MIXED

    def test_table_mixed(self):
        s = TableSchedule(((0.0, 0.5), (1.0, 0.5)), 1.0)
        assert regime(s) is Regime.MIXED

    def test_table_above(self):
        s = TableSchedule(((0.0, 1.0), (1.0, 1.0)), 1.0)
        assert regime(s) is Regime.ABOVE_HORIZON

    def test_table_crossing_in_its_last_step_is_mixed(self):
        # anchors 0.5 + 0.500001 t cross T at t ~ 0.999998, inside the
        # last gap of any 1024-point sample of [0, T)
        s = TableSchedule(((0, 0.5), (1, 1e-6)), 1)
        assert regime(s) is Regime.MIXED
        with pytest.raises(ScheduleError, match="mixed"):
            classify_viability(s)

    def test_constant_regime_is_exact(self):
        assert regime(ConstantSchedule(1e-4, 1.0)) is Regime.MIXED
        assert regime(ConstantSchedule(1.0 - 1e-13, 1.0)) is Regime.ABOVE_HORIZON


class TestViabilityIntegral:
    # closed-form truncated antiderivatives are the oracles here

    @pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-6])
    def test_sqrt_power_law(self, delta):
        s = PowerLawSchedule(0.5, 1.0)
        expected = 2.0 - 2.0 * math.sqrt(delta)
        assert viability_integral(s, delta) == pytest.approx(expected, abs=1e-8)

    def test_constant_full_interval(self):
        s = ConstantSchedule(1.0, 1.0)
        assert viability_integral(s, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_log_divergence_rate(self):
        s = PowerLawSchedule(1.0, 1.0)
        assert viability_integral(s, math.exp(-2.0)) == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.9])
    def test_quadrature_matches_truncated_closed_form(self, q):
        # integral over [0, T-delta] of (T-t)^-q is (T^(1-q)-delta^(1-q))/(1-q)
        s = PowerLawSchedule(q, 1.0)
        delta = 1e-6
        expected = (1.0 - delta ** (1.0 - q)) / (1.0 - q)
        assert viability_integral(s, delta) == pytest.approx(expected, abs=1e-4 + 1e-9)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    def test_affine_truncated(self, c):
        s = AffineBelowSchedule(c, 1.0)
        delta = 1e-3
        expected = math.log(1.0 / delta) / c
        assert viability_integral(s, delta) == pytest.approx(expected, abs=1e-7)

    def test_divergent_at_zero_delta(self):
        s = PowerLawSchedule(1.0, 1.0)
        with pytest.raises(QuadratureError):
            viability_integral(s, 0.0)

    def test_bad_delta(self):
        s = ConstantSchedule(1.0, 1.0)
        with pytest.raises(ScheduleError, match="delta"):
            viability_integral(s, 1.5)
        with pytest.raises(ScheduleError, match="delta"):
            viability_integral(s, -0.1)


class TestClassification:
    def test_sqrt_power_law_viable(self):
        r = classify_viability(PowerLawSchedule(0.5, 1.0))
        assert r.classification is Classification.VIABLE
        assert r.integral_value == pytest.approx(2.0)
        assert r.method is Method.ANALYTIC

    def test_square_power_law_not_viable(self):
        r = classify_viability(PowerLawSchedule(2.0, 1.0))
        assert r.classification is Classification.NOT_VIABLE
        assert r.divergent

    def test_constant_viable(self):
        r = classify_viability(ConstantSchedule(0.5, 1.0))
        assert r.classification is Classification.VIABLE
        assert r.integral_value == pytest.approx(2.0)

    def test_affine_below_never_viable(self):
        r = classify_viability(AffineBelowSchedule(0.5, 1.0))
        assert r.classification is Classification.NOT_VIABLE_BELOW_HORIZON
        assert r.divergent

    @pytest.mark.parametrize(
        "q,viable",
        [(0.9, True), (0.99, True), (1.0, False), (1.01, False), (1.1, False)],
    )
    def test_flip_at_unit_exponent(self, q, viable):
        r = classify_viability(PowerLawSchedule(q, 1.0))
        assert (r.classification is Classification.VIABLE) == viable
        assert r.divergent != viable

    def test_trace_monotone_and_bounded(self):
        r = classify_viability(PowerLawSchedule(0.5, 1.0))
        values = [v for _, v in r.truncation_trace]
        assert len(values) == 4
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= r.integral_value

    def test_trace_present_for_divergent(self):
        r = classify_viability(PowerLawSchedule(1.0, 1.0))
        values = [v for _, v in r.truncation_trace]
        assert all(b >= a for a, b in zip(values, values[1:]))
        # truncated log integrals: ln(1/delta)
        for (d, v) in r.truncation_trace:
            assert v == pytest.approx(math.log(1.0 / d), abs=1e-6)

    def test_table_viable(self):
        s = TableSchedule(((0.0, 1.0), (1.0, 1.0)), 1.0)
        r = classify_viability(s)
        assert r.classification is Classification.VIABLE
        assert r.method is Method.QUADRATURE
        assert r.integral_value == pytest.approx(1.0, abs=1e-4)

    def test_table_divergence_heuristic(self):
        # linearly collapsing look-ahead behaves like 1/(T-t): divergent
        s = TableSchedule(((0.0, 1.0), (0.999, 1e-3), (1.0, 1e-9)), 1.0)
        r = classify_viability(s)
        assert r.classification is Classification.NOT_VIABLE
        assert r.divergent

    def test_table_integral_is_exact(self):
        # segments 1.5 -> 1 and 1 -> 0.5 contribute ln 1.5 and ln 2
        s = TableSchedule(((0.0, 1.5), (0.5, 1.0), (1.0, 0.5)), 1.0)
        r = classify_viability(s)
        assert r.classification is Classification.VIABLE
        assert r.integral_value == pytest.approx(math.log(3.0), rel=1e-12)
        assert viability_integral(s, 0.5) == pytest.approx(math.log(1.5), rel=1e-12)

    @pytest.mark.parametrize("q", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_power_law_near_unit_exponent_does_not_cancel(self, q):
        # (1 - delta**(1-q))/(1-q) -> ln(1/delta); the relative gap is
        # about (1-q) ln(1/delta)/2 ~ 3.5e-12
        value = viability_integral(PowerLawSchedule(q, 1.0), 1e-3)
        assert value == pytest.approx(math.log(1e3), rel=1e-10)

    def test_mixed_table_rejected(self):
        s = TableSchedule(((0.0, 0.5), (1.0, 0.5)), 1.0)
        with pytest.raises(ScheduleError, match="[Mm]ixed"):
            classify_viability(s)


class TestParsing:
    def test_power_law_literal(self):
        s = parse_schedule("powerlaw:q=0.5", 1.0)
        assert isinstance(s, PowerLawSchedule) and s.exponent == 0.5

    def test_constant_literal(self):
        s = parse_schedule("const:0.5", 1.0)
        assert isinstance(s, ConstantSchedule) and s.value == 0.5

    def test_affine_literal(self):
        s = parse_schedule("affine_below:c=0.5", 1.0)
        assert isinstance(s, AffineBelowSchedule) and s.slope == 0.5

    def test_table_literal(self, tmp_path):
        p = tmp_path / "knots.csv"
        p.write_text("t,eps\n0.0,1.0\n1.0,1.0\n")
        s = parse_schedule(f"table:@{p}", 1.0)
        assert isinstance(s, TableSchedule)
        assert s.eval(0.5) == pytest.approx(1.0)

    def test_table_requires_header(self, tmp_path):
        p = tmp_path / "knots.csv"
        p.write_text("0.0,1.0\n1.0,1.0\n")
        with pytest.raises(ScheduleError, match="header"):
            load_table_csv(p)

    @pytest.mark.parametrize("bad", ["powerlaw", "powerlaw:p=2", "gauss:1", "table:knots.csv"])
    def test_bad_literals(self, bad):
        with pytest.raises(ScheduleError):
            parse_schedule(bad, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    T=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_power_law_eval_positive_and_trace_monotone(q, T):
    s = PowerLawSchedule(q, T)
    t = np.linspace(0.0, T, 257, endpoint=False)
    assert np.all(s.eval(t) > 0)
    r = classify_viability(s)
    values = [v for _, v in r.truncation_trace]
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    T=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
)
def test_affine_below_anchor_stays_below_horizon(c, T):
    s = AffineBelowSchedule(c, T)
    t = np.linspace(0.0, T, 257, endpoint=False)
    assert np.all(t + s.eval(t) <= T + 1e-12)
    assert regime(s) is Regime.BELOW_HORIZON


@settings(max_examples=40, deadline=None)
@given(
    q=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
    T=st.floats(min_value=0.1, max_value=1.0, allow_nan=False),
)
def test_power_law_anchor_distance_never_rises_after_falling(q, T):
    # why PowerLawSchedule needs no anchor-convergence check
    u = np.linspace(T / 8, 0.0, 4097)
    steps = np.diff(np.abs(u**q - u))
    falls = np.flatnonzero(steps < -1e-12)
    rises = np.flatnonzero(steps > 1e-12)
    assert not (falls.size and rises.size and rises[-1] > falls[0])


# The benchmark's two gate tables, a table whose anchors stay below T
# until they end 1e-9 past it, and an oscillating table: regime and the
# anchor check must agree with their numpy forms in tests/oracles.py.
GATE_TABLES = [((0.0, 0.5), (1.0, 1e-6)), ((0.0, 1.5), (0.5, 1.0), (1.0, 0.5)),
               ((0, 0.5), (0.5, 0.25), (1, 1e-9))]
OSCILLATING = ((0.0, 1.0), (0.9, 0.11), (0.93, 0.12), (0.96, 0.05), (1.0, 0.05))


@st.composite
def tables(draw):
    """Knots covering [0, T], crowded into the anchor check's window
    [7T/8, T] and with look-aheads near T - t, so that every regime and
    both verdicts of the anchor check come up."""
    T = draw(st.floats(min_value=0.1, max_value=10.0))
    fracs = draw(st.lists(st.one_of(st.floats(0.0, 1.25), st.floats(0.875, 1.0)),
                          max_size=6))
    end = draw(st.sampled_from([1.0, 1.25]))
    times = sorted({0.0, T * end, *(T * f for f in fracs if f < end)})
    knots = []
    for t in times:
        near = draw(st.floats(0.5, 1.5)) * (T - t)  # anchors near the horizon
        eps = draw(st.one_of(st.just(near), st.floats(1e-9, 2.0 * T)))
        knots.append((t, eps if eps > 0 else 1e-13 * T))
    return tuple(knots), T


class TestPlainTableChecks:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.floats(0.0, 1.0))
    def test_interpolation_is_np_interp(self, table, frac):
        knots, _ = table
        times, eps = zip(*knots)
        for t in (frac * times[-1], *times):
            assert _interp(knots, t) == np.interp(t, times, eps)

    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_regime_and_anchor_check_match_numpy(self, table):
        knots, T = table
        self._check(knots, T)

    @pytest.mark.parametrize("knots", [*GATE_TABLES, OSCILLATING])
    def test_gate_tables_match_numpy(self, knots):
        self._check(knots, 1.0)

    @staticmethod
    def _check(knots, T):
        oscillates = anchors_oscillate(knots, T)
        try:
            s = TableSchedule(knots, T)
        except ScheduleError as exc:
            assert oscillates, exc
            assert "monotonically" in str(exc)
            return
        assert not oscillates
        assert regime(s) is table_regime(knots, T)
