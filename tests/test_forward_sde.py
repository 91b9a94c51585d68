"""Left-endpoint integral sums and pathwise log wealth."""

import numpy as np
import pytest

from insider_lab.brownian import TimeGrid, mix_seed, union_grid
from insider_lab.cli import main
from insider_lab.forward_sde import (
    ForwardError,
    check_truncation,
    log_wealth_matrix,
    wealth_plan,
    wealth_trace,
)
from insider_lab.schedules import ConstantSchedule, PowerLawSchedule
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    TableStrategy,
)
from oracles import (
    LogWealthSample,
    draw,
    forward_integral,
    index_of,
    ito_integral,
    log_wealth,
    value_at,
)

RIG = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0)


def flat_strategy(value, horizon=1.0):
    return TableStrategy(knots=((0.0, value), (horizon, value)))


def make_path(seed=7, n=9, end=1.0):
    grid = TimeGrid(points=np.linspace(0.0, end, n))
    return grid, draw(grid, seed)


class TestForwardIntegral:
    def test_single_step_is_product(self):
        grid, path = make_path(seed=1, n=2)
        phi = np.array([3.0])
        got = forward_integral(phi, grid, path, [0, 1])
        assert got == 3.0 * (path[1] - path[0])

    def test_left_endpoint_not_midpoint(self):
        # hand-built path where the evaluation point matters
        grid = TimeGrid(points=np.array([0.0, 1.0, 2.0]))
        path = np.array([0.0, 1.0, 3.0])
        phi = np.array([10.0, 20.0])
        # 10*(1-0) + 20*(3-1); midpoint weighting would give different mass
        assert forward_integral(phi, grid, path, [0, 1, 2]) == 10.0 * 1.0 + 20.0 * 2.0

    def test_sub_grid_skips_nodes(self):
        grid, path = make_path(seed=3, n=9)
        sub = [0, 4, 8]
        phi = np.array([2.0, -1.0])
        inc1 = path[4] - path[0]
        inc2 = path[8] - path[4]
        assert forward_integral(phi, grid, path, sub) == pytest.approx(2 * inc1 - inc2,
                                                                       rel=1e-15)

    def test_pull_out_power_of_two_factor_exact(self):
        grid, path = make_path(seed=11, n=33)
        psi = np.sin(np.linspace(0.0, 3.0, 32))
        sub = np.arange(33)
        assert (forward_integral(4.0 * psi, grid, path, sub)
                == 4.0 * forward_integral(psi, grid, path, sub))

    def test_pull_out_general_factor(self):
        grid, path = make_path(seed=13, n=33)
        psi = np.cos(np.linspace(0.0, 2.0, 32))
        sub = np.arange(33)
        scaled = forward_integral(2.7 * psi, grid, path, sub)
        assert scaled == pytest.approx(2.7 * forward_integral(psi, grid, path, sub), rel=1e-13)

    def test_additive_in_integrand(self):
        grid, path = make_path(seed=17, n=17)
        rng = np.random.default_rng(0)
        f = rng.normal(size=16)
        g = rng.normal(size=16)
        sub = np.arange(17)
        total = forward_integral(f + g, grid, path, sub)
        assert total == pytest.approx(
            forward_integral(f, grid, path, sub) + forward_integral(g, grid, path, sub),
            rel=1e-12, abs=1e-15
        )

    def test_adapted_alias_is_same_function(self):
        assert ito_integral is forward_integral

    def test_length_mismatch_rejected(self):
        grid, path = make_path()
        with pytest.raises(ForwardError, match="left endpoints"):
            forward_integral(np.ones(8), grid, path, np.arange(8))

    def test_decreasing_indices_rejected(self):
        grid, path = make_path()
        with pytest.raises(ForwardError, match="increasing"):
            forward_integral(np.ones(2), grid, path, [0, 2, 1])

    def test_out_of_range_indices_rejected(self):
        grid, path = make_path(n=5)
        with pytest.raises(ForwardError, match="outside"):
            forward_integral(np.ones(2), grid, path, [0, 3, 12])

    def test_too_few_nodes_rejected(self):
        grid, path = make_path()
        with pytest.raises(ForwardError, match="two node"):
            forward_integral(np.array([]), grid, path, [0])


class TestLogWealthOracles:
    def test_zero_strategy_gives_exactly_zero(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.0)
        path = draw(grid, seed=5)
        sample = log_wealth(RIG, flat_strategy(0.0), grid, path, delta=0.0)
        assert sample.log_wealth == 0.0
        assert sample.stochastic_part == 0.0
        assert sample.drift_part == 0.0

    def test_unit_strategy_pure_diffusion(self):
        # alpha = 0, beta = 1, pi = 1: log X(T') = B(T') - T'/2 by telescoping
        market = MarketCoefficients(alpha=0.0, beta=1.0, horizon=1.0)
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        for delta in (0.0, 0.125):
            grid = union_grid(base_points=512, schedule=sched, delta=delta)
            path = draw(grid, seed=29)
            sample = log_wealth(market, flat_strategy(1.0), grid, path, delta=delta)
            t_end = 1.0 - delta
            b_end = path[index_of(grid, t_end)]
            assert sample.log_wealth == pytest.approx(b_end - t_end / 2.0, rel=1e-12, abs=1e-12)

    def test_decomposition_identity_bitwise(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=1024, schedule=sched, delta=1e-3)
        path = draw(grid, seed=41)
        sample = log_wealth(RIG, InsiderStrategy(schedule=sched), grid, path, delta=1e-3)
        assert sample.log_wealth == sample.stochastic_part + sample.drift_part

    def test_decomposition_guard_in_constructor(self):
        with pytest.raises(ForwardError, match="exactly"):
            LogWealthSample(horizon=1.0, log_wealth=1.0, stochastic_part=0.4, drift_part=0.7)

    def test_honest_pair_mean_recovers_drift(self):
        # for the constant honest fraction, log wealth is affine in the
        # path, so averaging a path with its negation isolates the drift:
        # pi*alpha - pi^2 beta^2 / 2 = 0.125 on the whole of [0, 1]
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.0)
        strat = HonestStrategy()
        acc = 0.0
        for k in range(20):
            path = draw(grid, seed=mix_seed(99, k))
            a = log_wealth(RIG, strat, grid, path, delta=0.0).log_wealth
            b = log_wealth(RIG, strat, grid, -path, delta=0.0).log_wealth
            acc += 0.5 * (a + b)
        assert acc / 20 == pytest.approx(0.125, abs=1e-12)

    def test_insider_matches_hand_rolled_loop(self):
        sched = ConstantSchedule(value=0.5, horizon=1.0)
        grid = union_grid(base_points=4, schedule=sched, delta=0.0)
        path = draw(grid, seed=77)
        sample = log_wealth(RIG, InsiderStrategy(schedule=sched), grid, path, delta=0.0)

        base_t = grid.points[grid.base_indices]
        expected = 0.0
        for j in range(len(base_t) - 1):
            t = base_t[j]
            dt = base_t[j + 1] - base_t[j]
            db = value_at(grid, path, base_t[j + 1]) - value_at(grid, path, t)
            pi = 0.1 / 0.04 - (value_at(grid, path, t)
                               - value_at(grid, path, t + 0.5)) / (0.2 * 0.5)
            expected += pi * 0.2 * db + (pi * 0.1 - 0.5 * pi**2 * 0.04) * dt
        assert sample.log_wealth == pytest.approx(expected, rel=1e-12)

    def test_horizon_field_reports_truncated_time(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=1024, schedule=sched, delta=0.01)
        path = draw(grid, seed=2)
        sample = log_wealth(RIG, InsiderStrategy(schedule=sched), grid, path, delta=0.01)
        assert sample.horizon == pytest.approx(0.99)

    def test_initial_capital_shifts_drift_part(self):
        market = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=2.0)
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        path = draw(grid, seed=3)
        rich = log_wealth(market, HonestStrategy(), grid, path, delta=0.0)
        flat = log_wealth(RIG, HonestStrategy(), grid, path, delta=0.0)
        assert rich.drift_part == pytest.approx(flat.drift_part + np.log(2.0), rel=1e-14)
        assert rich.stochastic_part == flat.stochastic_part


class TestMatrixConsistency:
    def test_single_row_matches_scalar_api_bitwise(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=512, schedule=sched, delta=1e-2)
        path = draw(grid, seed=55)
        strat = InsiderStrategy(schedule=sched)
        total, stoch, drift = log_wealth_matrix(wealth_plan(RIG, strat, grid, 1e-2),
                                                path[None, :])
        sample = log_wealth(RIG, strat, grid, path, delta=1e-2)
        assert sample.log_wealth == total[0]
        assert sample.stochastic_part == stoch[0]
        assert sample.drift_part == drift[0]

    def test_stacked_rows_match_individual_paths(self):
        sched = ConstantSchedule(value=0.4, horizon=1.0)
        grid = union_grid(base_points=128, schedule=sched, delta=0.0)
        paths = [draw(grid, seed=mix_seed(8, k)) for k in range(6)]
        block = np.stack(paths)
        plan = wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0)
        total, _, _ = log_wealth_matrix(plan, block)
        for k, p in enumerate(paths):
            single = log_wealth(RIG, InsiderStrategy(schedule=sched), grid, p, delta=0.0)
            assert total[k] == single.log_wealth

    @pytest.mark.parametrize("strategy", ["honest", "insider", "table"])
    @pytest.mark.parametrize("pi_cap", [None, 3.0])
    def test_antithetic_pairs_match_two_passes_bitwise(self, strategy, pi_cap):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        strat = {"honest": HonestStrategy(), "insider": InsiderStrategy(schedule=sched),
                 "table": TableStrategy(knots=((0.0, 1.0), (1.0, 4.0)))}[strategy]
        market = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=2.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.1)
        block = np.stack([draw(grid, seed=mix_seed(9, k)) for k in range(5)])
        one_sided = wealth_plan(market, strat, grid, 0.1, pi_cap)
        plus = log_wealth_matrix(one_sided, block)
        minus = log_wealth_matrix(one_sided, -block)
        paired = log_wealth_matrix(wealth_plan(market, strat, grid, 0.1, pi_cap, True), block)
        for p, m, avg in zip(plus, minus, paired):
            if strategy == "insider" and pi_cap is None:
                # the uncapped insider's pairs come from the closed-form pair
                # average, which rounds differently from two separate passes
                assert np.max(np.abs(avg - 0.5 * (p + m))) <= 1e-13
            else:
                assert np.array_equal(avg, 0.5 * (p + m))

    @pytest.mark.parametrize("strategy", ["honest", "insider", "table"])
    @pytest.mark.parametrize("pi_cap", [None, 3.0])
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_caller_scratch_changes_no_bit_and_is_not_returned(self, strategy, pi_cap,
                                                                antithetic):
        # a reused scratch arrives holding the previous chunk's blocks
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        strat = {"honest": HonestStrategy(), "insider": InsiderStrategy(schedule=sched),
                 "table": TableStrategy(knots=((0.0, 1.0), (1.0, 4.0)))}[strategy]
        grid = union_grid(base_points=256, schedule=sched, delta=0.1)
        block = np.stack([draw(grid, seed=mix_seed(9, k)) for k in range(5)])
        plan = wealth_plan(RIG, strat, grid, 0.1, pi_cap, antithetic)
        scratch = np.full(5 * plan.scratch, np.nan)
        fresh = log_wealth_matrix(plan, block)
        for _ in range(2):
            reused = log_wealth_matrix(plan, block, scratch)
            for a, b in zip(fresh, reused):
                assert np.array_equal(a, b)
                assert not np.shares_memory(b, scratch)
                assert not np.shares_memory(b, block)

    def test_pair_kernel_rows_are_independent(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        strat = InsiderStrategy(schedule=sched)
        market = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=2.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.1)
        block = np.stack([draw(grid, seed=mix_seed(9, k)) for k in range(5)])
        plan = wealth_plan(market, strat, grid, 0.1, antithetic=True)
        paired = log_wealth_matrix(plan, block)
        for k in range(5):
            single = log_wealth_matrix(plan, block[k:k + 1])
            for whole, one in zip(paired, single):
                assert whole[k] == one[0]

    def test_pair_kernel_names_non_finite_row(self):
        sched = ConstantSchedule(value=0.4, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        block = np.zeros((3, len(grid.points)))
        block[1, 5] = np.nan
        with pytest.raises(ForwardError, match="row 1") as info:
            log_wealth_matrix(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0,
                                          antithetic=True), block)
        assert info.value.row == 1

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("strategy", ["honest", "insider"])
    def test_non_finite_total_names_row(self, strategy, antithetic):
        # every fraction stays finite: the NaN only reaches row 1's total
        sched = ConstantSchedule(value=0.4, horizon=1.0)
        strat = HonestStrategy() if strategy == "honest" else InsiderStrategy(schedule=sched)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        block = np.zeros((3, len(grid.points)))
        block[1, grid.base_indices[-1]] = np.nan
        with pytest.raises(ForwardError, match="row 1") as info:
            log_wealth_matrix(wealth_plan(RIG, strat, grid, 0.0, antithetic=antithetic), block)
        assert info.value.row == 1

    def test_non_finite_fraction_names_row(self):
        sched = ConstantSchedule(value=0.4, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        block = np.zeros((3, len(grid.points)))
        block[1, 5] = np.nan
        with pytest.raises(ForwardError, match="row 1"):
            log_wealth_matrix(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0), block)

    def test_fraction_cap_limits_exposure(self):
        sched = ConstantSchedule(value=0.5, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        values = np.zeros(len(grid.points))
        # a huge spike at t=0 drives the uncapped fraction far negative
        values[index_of(grid, 0.0)] = 0.0
        spiked = values.copy()
        anchor0 = grid.anchor_indices[0]
        spiked[anchor0] = -50.0
        spiked[0] = 0.0
        path = spiked - spiked[0]
        strat = InsiderStrategy(schedule=sched)
        wild = log_wealth(RIG, strat, grid, path, delta=0.0, pi_cap=None)
        tame = log_wealth(RIG, strat, grid, path, delta=0.0, pi_cap=1.0)
        assert abs(tame.drift_part) < abs(wild.drift_part)


class TestTruncationRule:
    def test_coarse_tail_rejected_for_look_ahead(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=1e-4)
        with pytest.raises(ForwardError, match="too coarse"):
            check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 1e-4))

    def test_fine_tail_accepted(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=4096, schedule=sched, delta=1e-3)
        check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 1e-3))

    def test_honest_strategy_exempt(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=1e-4)
        check_truncation(wealth_plan(RIG, HonestStrategy(), grid, 1e-4))

    def test_delta_zero_requires_viable_schedule(self):
        sched = PowerLawSchedule(exponent=1.0, horizon=1.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.0)
        with pytest.raises(ForwardError, match="diverges"):
            check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0))

    def test_delta_zero_fine_for_viable_schedule(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=256, schedule=sched, delta=0.0)
        check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0))

    def test_log_wealth_runs_the_check(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=1e-4)
        path = draw(grid, seed=1)
        with pytest.raises(ForwardError, match="too coarse"):
            log_wealth(RIG, InsiderStrategy(schedule=sched), grid, path, delta=1e-4)

    def test_step_longer_than_its_look_ahead_rejected(self):
        # eps = (1 - t)**3 falls below the 4096-point grid step before the
        # refined tail; the first offending step starts at t = 0.964719
        sched = PowerLawSchedule(exponent=3.0, horizon=1.0)
        grid = union_grid(base_points=4096, schedule=sched, delta=1e-2)
        with pytest.raises(ForwardError, match="t=0.964719"):
            check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 1e-2))

    def test_square_law_steps_stay_inside_the_look_ahead(self):
        # the smallest ratio eps(t_j)/dt_j on this grid is 2.29
        sched = PowerLawSchedule(exponent=2.0, horizon=1.0)
        grid = union_grid(base_points=4096, schedule=sched, delta=1e-2)
        check_truncation(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 1e-2))

    def test_delta_outside_range_rejected(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=64, schedule=sched, delta=0.0)
        path = draw(grid, seed=1)
        with pytest.raises(ForwardError, match="delta"):
            log_wealth(RIG, HonestStrategy(), grid, path, delta=1.5)

    @pytest.mark.parametrize("strategy", [
        HonestStrategy(), InsiderStrategy(schedule=ConstantSchedule(0.5, 1.0)),
    ], ids=["honest", "insider"])
    def test_grid_without_indices_refused(self, strategy):
        # every plan reads its times through the grid's base and anchor indices
        grid = TimeGrid(points=np.linspace(0.0, 1.5, 7))
        with pytest.raises(ForwardError, match="base and anchor indices"):
            wealth_plan(RIG, strategy, grid, 0.0)


def _cli_wealth_dump(tmp_path, *flags):
    out = tmp_path / "wealth.csv"
    assert main(["simulate", "--schedule", "const:1", "--paths", "200",
                 "--base-points", "256", *flags, "--dump-wealth", str(out)]) == 0
    return out.read_text().strip().splitlines()


class TestWealthDump:
    def test_csv_columns_and_final_row(self, tmp_path):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(base_points=32, schedule=sched, delta=0.0)
        path = draw(grid, seed=4)
        t, pi, running = wealth_trace(wealth_plan(RIG, HonestStrategy(), grid, 0.0), path)
        sample = log_wealth(RIG, HonestStrategy(), grid, path, delta=0.0)
        assert running[-1] == pytest.approx(sample.log_wealth, rel=1e-10)
        # one row per base point; no fraction is held past the last one
        assert len(t) == len(running) == len(pi) + 1 == len(grid.base_indices)
        # the CLI writes the trace of the run's first path
        lines = _cli_wealth_dump(tmp_path, "--strategy", "merton")
        assert lines[0] == "t,pi,log_wealth"
        grid = union_grid(256, sched, 0.0)
        first = draw(grid, mix_seed(42, 0))
        final = float(lines[-1].split(",")[2])
        assert final == pytest.approx(
            log_wealth(RIG, HonestStrategy(), grid, first, 0.0).log_wealth, rel=1e-10)

    def test_trace_starts_from_log_x0(self, tmp_path):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        market = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=2.0)
        grid = union_grid(256, sched, 0.0)
        path = draw(grid, mix_seed(4, 0))
        sample = log_wealth(market, InsiderStrategy(schedule=sched), grid, path, delta=0.0)
        lines = _cli_wealth_dump(tmp_path, "--x0", "2", "--seed", "4")
        t0, _, start = map(float, lines[1].split(","))
        assert (t0, start) == (0.0, np.log(2.0))
        assert float(lines[-1].split(",")[2]) == pytest.approx(sample.log_wealth, rel=1e-10)
        plan = wealth_plan(market, InsiderStrategy(schedule=sched), grid, 0.0)
        _, _, running = wealth_trace(plan, path)
        assert running[0] == np.log(2.0)
        assert running[-1] == pytest.approx(sample.log_wealth, rel=1e-10)

    @pytest.mark.parametrize("value, strategy, cap", [(1.0, "merton", 1.0),
                                                      (0.5, "insider", 0.5)])
    def test_dump_holds_the_capped_fraction(self, tmp_path, value, strategy, cap):
        lines = _cli_wealth_dump(tmp_path, "--schedule", f"const:{value:g}",
                                 "--strategy", strategy, "--pi-cap", f"{cap:g}")
        rows = [line.split(",") for line in lines[1:]]
        assert rows[-1][1] == ""
        assert max(abs(float(row[1])) for row in rows[:-1]) <= cap
        sched = ConstantSchedule(value=value, horizon=1.0)
        strat = HonestStrategy() if strategy == "merton" else InsiderStrategy(schedule=sched)
        grid = union_grid(256, sched, 0.0)
        sample = log_wealth(RIG, strat, grid, draw(grid, mix_seed(42, 0)), 0.0, pi_cap=cap)
        assert float(rows[-1][2]) == pytest.approx(sample.log_wealth, rel=1e-10)
