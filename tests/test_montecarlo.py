"""Engine determinism, estimator oracles and regression slopes."""

import importlib.util
import inspect
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import insider_lab.forward_sde as fsde
import insider_lab.montecarlo as mc
from insider_lab.brownian import mix_seed, union_grid, union_grids
from insider_lab.cli import main
from insider_lab.config import to_dict as config_dict
from insider_lab.forward_sde import ForwardError, check_truncation, wealth_plan
from insider_lab.montecarlo import (
    BatchAbort,
    ExperimentConfig,
    McEstimate,
    MonteCarloError,
    RegressionResult,
    discretized_mean,
    duality_check,
    estimate_log_utility,
    increment_regression,
    refinement_study,
)
from insider_lab.schedules import (
    AffineBelowSchedule,
    ConstantSchedule,
    PowerLawSchedule,
    ScheduleError,
    TableSchedule,
)
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    TableStrategy,
)
from oracles import bridge_increments, config_digest, martingale_increments

RIG = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0)


def honest_config(**overrides):
    base = dict(
        market=RIG,
        schedule=ConstantSchedule(value=1.0, horizon=1.0),
        strategy=HonestStrategy(),
        n_paths=400,
        base_points=256,
        delta=0.0,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def insider_config(**overrides):
    sched = overrides.pop("schedule", PowerLawSchedule(exponent=0.5, horizon=1.0))
    base = dict(
        market=RIG,
        schedule=sched,
        strategy=InsiderStrategy(schedule=sched),
        n_paths=2000,
        base_points=1024,
        delta=1e-3,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMcEstimate:
    def test_ci_band_computed(self):
        est = McEstimate(mean=1.0, stderr=0.1, n_paths=100)
        assert est.ci95 == (1.0 - 0.196, 1.0 + 0.196)

    def test_consistent_band_accepted(self):
        est = McEstimate(mean=1.0, stderr=0.1, n_paths=100)
        assert est.ci95[0] <= 1.1 <= est.ci95[1]
        assert not est.ci95[0] <= 1.5 <= est.ci95[1]

    def test_tiny_sample_rejected(self):
        with pytest.raises(MonteCarloError, match="at least 2"):
            McEstimate(mean=0.0, stderr=0.0, n_paths=1)

    def test_non_finite_rejected(self):
        with pytest.raises(MonteCarloError, match="finite"):
            McEstimate(mean=math.nan, stderr=0.0, n_paths=10)


class TestExperimentConfig:
    def test_too_few_paths(self):
        with pytest.raises(MonteCarloError, match="100"):
            honest_config(n_paths=50)

    def test_base_points_not_power_of_two(self):
        with pytest.raises(MonteCarloError, match="power of two"):
            honest_config(base_points=300)

    def test_base_points_too_small(self):
        with pytest.raises(MonteCarloError, match="power of two"):
            honest_config(base_points=128)

    def test_master_seed_range(self):
        with pytest.raises(MonteCarloError, match="64 bits"):
            honest_config(master_seed=-1)
        with pytest.raises(MonteCarloError, match="64 bits"):
            honest_config(master_seed=2**64)

    def test_delta_outside_horizon(self):
        with pytest.raises(MonteCarloError, match="delta"):
            honest_config(delta=1.0)

    def test_horizon_mismatch(self):
        with pytest.raises(MonteCarloError, match="horizon"):
            honest_config(schedule=ConstantSchedule(value=1.0, horizon=2.0))

    def test_insider_with_foreign_schedule(self):
        mine = PowerLawSchedule(exponent=0.5, horizon=1.0)
        other = PowerLawSchedule(exponent=0.7, horizon=1.0)
        with pytest.raises(MonteCarloError, match="schedule"):
            ExperimentConfig(
                market=RIG, schedule=mine, strategy=InsiderStrategy(schedule=other),
                n_paths=200, base_points=256, delta=1e-2,
            )

    def test_antithetic_needs_even_paths(self):
        with pytest.raises(MonteCarloError, match="even"):
            honest_config(n_paths=401)

    def test_odd_paths_fine_without_antithetic(self):
        cfg = honest_config(n_paths=401, antithetic=False)
        assert cfg.n_paths == 401


class TestDigest:
    def test_digest_is_16_hex_chars(self):
        d = config_digest(honest_config())
        assert len(d) == 16
        assert set(d) <= set("0123456789abcdef")

    def test_equal_configs_equal_digests(self):
        assert config_digest(honest_config()) == config_digest(honest_config())

    def test_seed_changes_digest(self):
        assert config_digest(honest_config()) != config_digest(honest_config(master_seed=7))

    def test_strategy_changes_digest(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        a = honest_config()
        b = honest_config(strategy=InsiderStrategy(schedule=sched))
        assert config_digest(a) != config_digest(b)

    def test_config_dict_is_json_ready(self):
        payload = config_dict(insider_config())
        json.dumps(payload)  # no numpy scalars or exotic types allowed


class TestEstimateOracles:
    def test_zero_strategy_exact_zero(self):
        cfg = honest_config(strategy=TableStrategy(knots=((0.0, 0.0), (1.0, 0.0))))
        est = estimate_log_utility(cfg)
        assert est.mean == 0.0
        assert est.stderr == 0.0

    def test_honest_antithetic_pairs_are_exact(self):
        # log wealth is affine in the path, so each antithetic pair
        # averages to the drift 0.125 up to rounding
        est = estimate_log_utility(honest_config())
        assert est.mean == pytest.approx(0.125, abs=1e-12)
        assert est.stderr < 1e-13

    def test_honest_without_antithetic_within_band(self):
        est = estimate_log_utility(honest_config(n_paths=4000, antithetic=False))
        assert est.stderr > 1e-3
        assert abs(est.mean - 0.125) < 3 * est.stderr

    def test_insider_matches_discretized_mean(self):
        cfg = insider_config()
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        center = discretized_mean(wealth_plan(cfg.market, cfg.strategy, grid, cfg.delta))
        est = estimate_log_utility(cfg)
        assert abs(est.mean - center) < 3 * est.stderr
        # the continuum value is about 1.09, far above the honest 0.125
        assert est.mean > 0.9

    def test_estimate_n_paths_counts_pairs(self):
        est = estimate_log_utility(honest_config(n_paths=400))
        assert est.n_paths == 200
        est = estimate_log_utility(honest_config(n_paths=400, antithetic=False))
        assert est.n_paths == 400


class TestDeterminism:
    def test_repeat_run_bitwise_identical(self):
        cfg = insider_config(n_paths=400, base_points=512)
        a = estimate_log_utility(cfg)
        b = estimate_log_utility(cfg)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)

    def test_thread_count_does_not_change_bits(self):
        cfg = insider_config(n_paths=600, base_points=512)
        one = estimate_log_utility(cfg, threads=1)
        four = estimate_log_utility(cfg, threads=4)
        eight = estimate_log_utility(cfg, threads=8)
        assert one.mean == four.mean == eight.mean
        assert one.stderr == four.stderr == eight.stderr

    def test_chunk_memory_bounded_by_target(self):
        # 2792675 is the shared grid of refine --levels 5 --factor 4 from
        # 4096 base points; no row floor may push a chunk past the target
        sizes = [2, 511, 8192, 8193, 42984, 131072, 131073, 1 << 22, (1 << 22) + 1]
        for points in sizes + list(range(100_000, 2_792_676, 4_321)) + [2_792_675]:
            rows = mc._chunk_units(points)
            assert 1 <= rows <= 512
            assert rows * points <= max(mc._CHUNK_TARGET, points), points

    def test_chunk_size_does_not_change_bits(self, monkeypatch):
        cfg = insider_config(n_paths=400, base_points=512)
        coarse = estimate_log_utility(cfg)
        monkeypatch.setattr(mc, "_CHUNK_TARGET", 1 << 15)
        fine = estimate_log_utility(cfg)
        assert coarse.mean == fine.mean
        assert coarse.stderr == fine.stderr

    @pytest.mark.parametrize("run", [
        lambda: estimate_log_utility(insider_config(n_paths=400, base_points=512, pi_cap=3.0)),
        lambda: estimate_log_utility(honest_config(antithetic=False)),
        lambda: refinement_study(insider_config(n_paths=400, base_points=512), levels=2),
        lambda: duality_check("constant_lookahead", T=1.0, n_paths=400, base_points=512,
                              seed=3, eps=0.5),
        lambda: duality_check("terminal_value", T=1.0, n_paths=400, base_points=512, seed=5),
    ], ids=["pi_cap", "honest", "refine", "duality_lookahead", "duality_terminal"])
    def test_chunk_size_does_not_change_bits_on_every_path(self, monkeypatch, run):
        # the default budget runs each in 3-12 chunks; the smaller targets
        # split them into chunks of 2-32 rows and of 1-4 rows
        results = [run()]
        for target in (1 << 15, 1 << 12):
            monkeypatch.setattr(mc, "_CHUNK_TARGET", target)
            results.append(run())
        assert results[0] == results[1] == results[2]

    @staticmethod
    def traced_peak(cfg, threads):
        # numpy.random loads on first use; an untraced run of the same config
        # loads it, and the run's caches, before the traced window opens
        estimate_log_utility(cfg, threads=threads)
        tracemalloc.start()
        try:
            estimate_log_utility(cfg, threads=threads)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("pi_cap, step_blocks", [(None, 3), (1e6, 4)])
    def test_traced_peak_within_chunk_budget(self, pi_cap, step_blocks):
        # On the rig grid (8192 points, 4095 base steps) a row's step blocks
        # hold three base steps for the closed-form pairs and four for the
        # two-pass kernel.  This bound allows a values block of the budget's
        # size plus step blocks of half its width per thread, and a quarter
        # block per thread for the grid and the plan.
        cfg = insider_config(n_paths=512, base_points=4096, pi_cap=pi_cap)
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        scratch = mc.run_plan(cfg, grid).scratch
        assert len(grid.points) == 8192 and scratch == step_blocks * 4095
        assert 256 // mc._chunk_units(len(grid.points) + scratch) >= 4
        budget = mc._CHUNK_TARGET * 8 * 2
        assert self.traced_peak(cfg, threads=2) < (1.25 + 0.5 * step_blocks) * budget

    @pytest.mark.parametrize("pi_cap", [None, 1e6])
    def test_traced_workspace_within_chunk_budget(self, pi_cap):
        # chunks are sized from the values block and the step blocks together,
        # so each thread's whole workspace fits the budget; half a budget more
        # covers the grid, the plan and the chunk results
        cfg = insider_config(n_paths=512, base_points=4096, pi_cap=pi_cap)
        budget = mc._CHUNK_TARGET * 8 * 2
        assert self.traced_peak(cfg, threads=2) < 1.5 * budget

    def test_more_workers_than_cores_keep_every_bit(self, monkeypatch):
        # 8 threads on chunks of 1-8 rows, switching threads every microsecond:
        # each worker must draw and reduce only inside its own workspace
        cfg = insider_config(n_paths=400, base_points=512)
        runs = [
            lambda t: estimate_log_utility(cfg, threads=t),
            lambda t: refinement_study(cfg, levels=2, threads=t),
            lambda t: duality_check("constant_lookahead", T=1.0, n_paths=400,
                                    base_points=512, seed=3, eps=0.5, threads=t),
        ]
        monkeypatch.setattr(mc, "_CHUNK_TARGET", 1 << 14)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for run in runs:
                assert run(8) == run(1)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("threads", [0, -1, 1.0, "2", True, False])
    def test_bad_thread_count_refused(self, threads):
        with pytest.raises(MonteCarloError, match="thread count must be a positive integer"):
            estimate_log_utility(insider_config(n_paths=400, base_points=512), threads=threads)

    def test_dump_sampler_matches_chunk_sampler(self, tmp_path):
        # --dump-path writes the run's first path: row 0 of the block the
        # estimate drew, bit for bit, since .17g round-trips every double
        grid = union_grid(4096, PowerLawSchedule(exponent=0.5, horizon=1.0), 1e-3)
        sqrt_gaps = np.sqrt(np.diff(grid.points))
        for s in (42, 7):
            target = tmp_path / f"path{s}.csv"
            assert main(["simulate", "--schedule", "powerlaw:q=0.5", "--delta", "1e-3",
                         "--base-points", "4096", "--paths", "100", "--seed", str(s),
                         "--dump-path", str(target)]) == 0
            dumped = np.loadtxt(target, delimiter=",", skiprows=1)
            row = mc._normal_block([mix_seed(s, 0)], sqrt_gaps)[0]
            assert np.array_equal(dumped[:, 0], grid.points)
            assert np.array_equal(dumped[:, 1], row)

    def test_per_row_generator_matches_default_rng(self):
        # each row builds Generator(PCG64(s)) directly; it must draw the bits
        # default_rng(s) draws, including at the edges of the seed range
        sqrt_gaps = np.sqrt(np.diff(np.linspace(0.0, 1.0, 65)))
        seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64 + 12345, mix_seed(42, 0)]
        block = mc._normal_block(seeds, sqrt_gaps)
        for row, s in zip(block, seeds):
            steps = np.random.default_rng(s).standard_normal(sqrt_gaps.size) * sqrt_gaps
            assert row[0] == 0.0
            assert np.array_equal(row[1:], np.cumsum(steps))

    def test_seed_changes_result(self):
        cfg = insider_config(n_paths=400, base_points=512)
        other = insider_config(n_paths=400, base_points=512, master_seed=7)
        assert estimate_log_utility(cfg).mean != estimate_log_utility(other).mean


class TestFailurePropagation:
    def test_bad_path_aborts_with_seed(self):
        knots = ((0.0, math.nan), (1.0, math.nan))
        cfg = honest_config(strategy=TableStrategy(knots=knots))
        with pytest.raises(MonteCarloError, match=str(mix_seed(42, 0))):
            estimate_log_utility(cfg)

    def test_bad_path_aborts_refine_with_seed(self):
        knots = ((0.0, math.nan), (1.0, math.nan))
        cfg = honest_config(strategy=TableStrategy(knots=knots))
        with pytest.raises(BatchAbort, match=str(mix_seed(42, 0))):
            refinement_study(cfg, levels=2)

    def test_bad_pair_aborts_with_seed(self, monkeypatch):
        # the uncapped insider's pairs take the closed-form kernel; a NaN
        # planted in row 1 of the first chunk must still name that path
        draw = mc._normal_block

        def poisoned(seeds, sqrt_gaps, out):
            values = draw(seeds, sqrt_gaps, out)
            if seeds[0] == mix_seed(42, 0):
                values[1, 5] = np.nan
            return values

        monkeypatch.setattr(mc, "_normal_block", poisoned)
        with pytest.raises(BatchAbort, match=f"seed {mix_seed(42, 1)} \\(unit 1\\)"):
            estimate_log_utility(insider_config(n_paths=400, base_points=512))

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("make_config", [honest_config, insider_config])
    def test_non_finite_total_aborts_with_seed(self, monkeypatch, make_config, antithetic):
        # a NaN at the right end of the last base step leaves every fraction
        # finite; only the row's total shows it, and it must name the path
        cfg = make_config(n_paths=400, base_points=512, antithetic=antithetic)
        last = union_grid(cfg.base_points, cfg.schedule, cfg.delta).base_indices[-1]
        draw = mc._normal_block

        def poisoned(seeds, sqrt_gaps, out):
            values = draw(seeds, sqrt_gaps, out)
            if seeds[0] == mix_seed(42, 0):
                values[1, last] = np.nan
            return values

        monkeypatch.setattr(mc, "_normal_block", poisoned)
        with pytest.raises(BatchAbort, match=f"seed {mix_seed(42, 1)} \\(unit 1\\)"):
            estimate_log_utility(cfg)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestKernelHook:
    """The kernel is reached through the module attribute the benchmark's
    tracer wraps, once per chunk per grid, in a call whose values block the
    tracer reads."""

    def count_calls(self, monkeypatch, run):
        calls = []
        kernel = mc.log_wealth_matrix
        signature = inspect.signature(kernel)
        matrix_info = _load_tracing()._matrix_info

        def counting(*args, **kwargs):
            values = signature.bind(*args, **kwargs).arguments["values"]
            assert matrix_info(args, kwargs) == list(values.shape)
            calls.append(values)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(mc, "_CHUNK_TARGET", 1 << 15)
        monkeypatch.setattr(mc, "log_wealth_matrix", counting)
        run()
        return calls

    def test_estimate_calls_once_per_chunk(self, monkeypatch):
        cfg = insider_config(n_paths=400, base_points=512)
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        points = len(grid.points)
        scratch = mc.run_plan(cfg, grid).scratch
        calls = self.count_calls(monkeypatch, lambda: estimate_log_utility(cfg, threads=1))
        assert len(calls) == math.ceil(200 / mc._chunk_units(points + scratch)) > 1
        assert all(v.ndim == 2 and v.shape[1] == points for v in calls)
        assert sum(v.shape[0] for v in calls) == 200

    def test_refine_calls_once_per_chunk_per_level(self, monkeypatch):
        cfg = insider_config(n_paths=400, base_points=512)
        grids = union_grids([512, 2048], cfg.schedule, cfg.delta)
        points = len(grids[0].points)
        scratch = max(mc.run_plan(cfg, g).scratch for g in grids)
        calls = self.count_calls(monkeypatch,
                                 lambda: refinement_study(cfg, levels=2, threads=1))
        chunks = math.ceil(200 / mc._chunk_units(points + scratch))
        assert chunks > 1
        assert len(calls) == 2 * chunks
        assert all(v.ndim == 2 and v.shape[1] == points for v in calls)
        assert sum(v.shape[0] for v in calls) == 2 * 200

    def test_chunks_reuse_one_workspace(self, monkeypatch):
        # at one thread every chunk draws into the same values block
        cfg = insider_config(n_paths=400, base_points=512)
        calls = self.count_calls(monkeypatch, lambda: estimate_log_utility(cfg, threads=1))
        assert len(calls) > 1
        assert all(np.shares_memory(v, calls[0]) for v in calls)


class TestPlanReuse:
    """Each grid's WealthPlan is built once and shared by the truncation
    check, the closed-form mean and the kernel."""

    def count_plans(self, monkeypatch, run):
        calls = []
        build = fsde.wealth_plan

        def counting(*args, **kwargs):
            calls.append(args[2])
            return build(*args, **kwargs)

        monkeypatch.setattr(fsde, "wealth_plan", counting)
        monkeypatch.setattr(mc, "wealth_plan", counting)
        run()
        return calls

    @pytest.mark.parametrize("make_config", [honest_config, insider_config])
    def test_estimate_builds_one_plan(self, monkeypatch, make_config):
        cfg = make_config(n_paths=400, base_points=512)
        calls = self.count_plans(monkeypatch, lambda: estimate_log_utility(cfg, threads=1))
        assert len(calls) == 1

    def test_refine_builds_one_plan_per_level(self, monkeypatch):
        cfg = insider_config(n_paths=400, base_points=512)
        calls = self.count_plans(monkeypatch,
                                 lambda: refinement_study(cfg, levels=2, threads=1))
        assert len(calls) == 2
        assert calls[0] is not calls[1]


class TestCiCalibration:
    def test_coverage_between_90_and_100(self):
        # independent paths (no antithetic pairing: pairs would be exact
        # for the honest strategy and the interval would degenerate)
        hits = 0
        for s in range(100):
            cfg = honest_config(n_paths=400, antithetic=False, master_seed=1000 + s)
            lo, hi = estimate_log_utility(cfg).ci95
            if lo <= 0.125 <= hi:
                hits += 1
        assert 90 <= hits <= 100


class TestMonotonicityOfInformation:
    @pytest.mark.parametrize("sched,delta", [
        (ConstantSchedule(value=1.0, horizon=1.0), 0.0),
        (PowerLawSchedule(exponent=0.5, horizon=1.0), 1e-3),
        (PowerLawSchedule(exponent=1.0, horizon=1.0), 1e-1),
        (AffineBelowSchedule(slope=0.5, horizon=1.0), 1e-1),
    ])
    def test_look_ahead_never_hurts(self, sched, delta):
        common = dict(n_paths=2000, base_points=1024, delta=delta, master_seed=11)
        ins = ExperimentConfig(market=RIG, schedule=sched,
                               strategy=InsiderStrategy(schedule=sched), **common)
        hon = ExperimentConfig(market=RIG, schedule=sched,
                               strategy=HonestStrategy(), **common)
        ei = estimate_log_utility(ins)
        eh = estimate_log_utility(hon)
        assert ei.mean >= eh.mean - 3 * (ei.stderr + eh.stderr)


class TestDiscretizedMean:
    def test_honest_constant_coefficients(self):
        cfg = honest_config()
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        got = discretized_mean(wealth_plan(RIG, HonestStrategy(), grid, 0.0))
        assert got == pytest.approx(0.125, rel=1e-12)

    def test_insider_constant_window_has_no_grid_bias(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(512, sched, 0.0)
        got = discretized_mean(wealth_plan(RIG, InsiderStrategy(schedule=sched), grid, 0.0))
        assert got == pytest.approx(0.625, rel=1e-12)

    def test_flat_table_matches_honest(self):
        cfg = honest_config()
        grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
        table = TableStrategy(knots=((0.0, 2.5), (1.0, 2.5)))
        got = discretized_mean(wealth_plan(RIG, table, grid, 0.0))
        assert got == pytest.approx(0.125, rel=1e-12)

    def test_initial_capital_enters(self):
        market = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0, x0=math.e)
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        grid = union_grid(256, sched, 0.0)
        got = discretized_mean(wealth_plan(market, HonestStrategy(), grid, 0.0))
        assert got == pytest.approx(1.125, rel=1e-12)


class TestRefinementStudy:
    def test_levels_report_growing_grids(self):
        cfg = insider_config(n_paths=400, base_points=512)
        levels = refinement_study(cfg, levels=2, factor=2)
        assert [lv.base_points for lv in levels] == [512, 1024]

    def test_control_variate_estimates_unbiased_and_tight(self):
        cfg = insider_config(n_paths=400, base_points=512)
        levels = refinement_study(cfg, levels=2, factor=2)
        for lv in levels:
            grid = union_grid(lv.base_points, cfg.schedule, cfg.delta)
            center = discretized_mean(wealth_plan(cfg.market, cfg.strategy, grid, cfg.delta))
            est = lv.estimate
            assert est.stderr < 0.01
            assert abs(est.mean - center) < max(4 * est.stderr, 1e-3)

    def test_shared_noise_moves_levels_together(self):
        cfg = insider_config(n_paths=400, base_points=512)
        a, b = refinement_study(cfg, levels=2, factor=2)
        # bias shrinks with refinement, so the coarse level sits further
        # below the fine level's center than the fine level itself
        assert a.estimate.mean < b.estimate.mean

    def test_pi_cap_refused_before_any_path_is_drawn(self, monkeypatch):
        # the control variate is centred on uncapped grid means, which a
        # binding cap moves: every level would be pulled onto the wrong value
        drawn = []
        monkeypatch.setattr(mc, "_normal_block", lambda *a, **k: drawn.append(a))
        for cfg in (honest_config(pi_cap=1.0), insider_config(n_paths=400, pi_cap=3.0)):
            with pytest.raises(MonteCarloError, match="pi_cap"):
                refinement_study(cfg, levels=2, factor=2)
        assert drawn == []

    def test_needs_two_levels(self):
        with pytest.raises(MonteCarloError, match="2 levels"):
            refinement_study(insider_config(n_paths=400, base_points=512), levels=1)

    def test_mixed_table_refused_like_simulate(self):
        sched = TableSchedule(knots=((0.0, 0.5), (1.0, 0.5)), horizon=1.0)
        cfg = honest_config(schedule=sched, delta=1e-2)
        with pytest.raises(ScheduleError, match="mixed"):
            estimate_log_utility(cfg)
        with pytest.raises(ScheduleError, match="mixed"):
            refinement_study(cfg, levels=2)

    def test_determinism_across_threads(self):
        cfg = insider_config(n_paths=400, base_points=512)
        one = refinement_study(cfg, levels=2, factor=2, threads=1)
        four = refinement_study(cfg, levels=2, factor=2, threads=4)
        for x, y in zip(one, four):
            assert x.estimate.mean == y.estimate.mean


class TestDuality:
    def test_constant_lookahead_hits_horizon(self):
        est, analytic = duality_check("constant_lookahead", T=1.0, n_paths=4000,
                                      base_points=512, seed=3, eps=0.5)
        assert analytic == 1.0
        assert abs(est.mean - analytic) < 3 * est.stderr

    def test_terminal_value_hits_horizon(self):
        est, analytic = duality_check("terminal_value", T=1.0, n_paths=4000,
                                      base_points=512, seed=5)
        assert analytic == 1.0
        assert abs(est.mean - analytic) < 3 * est.stderr

    def test_adapted_integrand_has_no_drift(self):
        est, analytic = duality_check("adapted_one", T=1.0, n_paths=4000,
                                      base_points=512, seed=7)
        assert analytic == 0.0
        assert abs(est.mean) < 3 * est.stderr

    def test_terminal_value_sum_telescopes_per_path(self):
        est, _ = duality_check("terminal_value", T=1.0, n_paths=100,
                               base_points=64, seed=11)
        # every per-path sum is B(T)^2 >= 0, so the mean must be too
        assert est.mean > 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(MonteCarloError, match="unknown duality kind"):
            duality_check("sideways", T=1.0, n_paths=100, base_points=64, seed=0)

    def test_lookahead_requires_eps(self):
        with pytest.raises(MonteCarloError, match="eps"):
            duality_check("constant_lookahead", T=1.0, n_paths=100, base_points=64, seed=0)

    def test_eps_rejected_for_other_kinds(self):
        with pytest.raises(MonteCarloError, match="no eps"):
            duality_check("terminal_value", T=1.0, n_paths=100, base_points=64,
                          seed=0, eps=0.5)

    def test_determinism(self):
        a, _ = duality_check("constant_lookahead", T=1.0, n_paths=500,
                             base_points=256, seed=3, eps=0.5, threads=1)
        b, _ = duality_check("constant_lookahead", T=1.0, n_paths=500,
                             base_points=256, seed=3, eps=0.5, threads=4)
        assert a.mean == b.mean


class TestIncrementRegression:
    @pytest.mark.parametrize("t,eps,h,seed", [
        (0.3, 0.2, 0.1, 2), (0.0, 0.4, 0.1, 3), (0.0, 0.5, 0.005, 4),
    ])
    def test_bridge_slope_inside_the_window(self, t, eps, h, seed):
        res = increment_regression(t=t, eps=eps, h=h, n_paths=100_000, seed=seed)
        assert abs(res.slope - h / eps) < 3 * res.stderr
        assert res.stderr < 0.01

    @pytest.mark.parametrize("ratio", [1.0, 2.0, 10.0])
    def test_slope_pinned_at_one_beyond_the_window(self, ratio):
        eps = 0.1
        res = increment_regression(t=0.2, eps=eps, h=ratio * eps,
                                   n_paths=100_000, seed=6)
        assert abs(res.slope - 1.0) < max(3 * res.stderr, 1e-12)

    def test_full_window_slope_exactly_one(self):
        res = increment_regression(t=0.3, eps=0.2, h=0.2, n_paths=1000, seed=1)
        assert res.slope == 1.0
        assert res.stderr == 0.0

    @pytest.mark.parametrize("h", [0.1, 0.2, 0.5])
    def test_equals_the_bridge_and_martingale_constructions(self, h):
        # one construction for both sides: at h = eps it is both of them
        eps, want = 0.2, []
        if h <= eps:
            want.append(bridge_increments(eps, h, 5000, 9))
        if h >= eps:
            want.append(martingale_increments(eps, h, 5000, 9))
        got = increment_regression(t=0.0, eps=eps, h=h, n_paths=5000, seed=9)
        for x, y in want:
            assert got == mc._regress(x, y)

    def test_zero_h_rejected(self):
        with pytest.raises(MonteCarloError, match="h > 0"):
            increment_regression(t=0.0, eps=0.2, h=0.0, n_paths=100, seed=0)

    def test_degenerate_regressor_detected(self):
        from insider_lab.montecarlo import _regress

        with pytest.raises(MonteCarloError, match="degenerate"):
            _regress(np.zeros(10), np.zeros(10))

    def test_result_reports_sample_size(self):
        res = increment_regression(t=0.0, eps=0.1, h=0.2, n_paths=5000, seed=8)
        assert res.n_paths == 5000
        assert isinstance(res, RegressionResult)


@st.composite
def small_insider_configs(draw):
    kind = draw(st.sampled_from(["powerlaw", "const", "affine_below", "table"]))
    if kind == "powerlaw":
        schedule = PowerLawSchedule(draw(st.floats(0.1, 3.0)), 1.0)
    elif kind == "const":
        # 2**-8 and shorter look-aheads lie below the step of some grids
        schedule = ConstantSchedule(2.0 ** -draw(st.integers(-1, 10)), 1.0)
    elif kind == "affine_below":
        schedule = AffineBelowSchedule(draw(st.floats(0.1, 1.0)), 1.0)
    else:
        # anchors above T, linear over the last eighth
        schedule = TableSchedule(tuple((t, 1.0 - t + draw(st.floats(0.05, 1.0)))
                                       for t in (0.0, 0.5, 1.0)), 1.0)
    return insider_config(schedule=schedule, n_paths=1000,
                          base_points=draw(st.sampled_from([256, 512])),
                          delta=draw(st.sampled_from([0.0, 0.1, 0.2])),
                          master_seed=draw(st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=small_insider_configs())
# a look-ahead shorter than every grid step, whose estimator's mean lies far
# below its discretized_mean: check_truncation must refuse it
@example(cfg=insider_config(schedule=ConstantSchedule(2.0**-9, 1.0), n_paths=1000,
                            base_points=256, delta=0.0))
def test_accepted_insider_configs_average_to_their_grid_mean(cfg):
    # every config that passes check_truncation has discretized_mean as
    # its exact expectation
    grid = union_grid(cfg.base_points, cfg.schedule, cfg.delta)
    try:
        plan = wealth_plan(cfg.market, cfg.strategy, grid, cfg.delta)
        check_truncation(plan)
    except ForwardError:
        assume(False)
    est = estimate_log_utility(cfg, threads=1)
    exact = discretized_mean(plan)
    assert abs(est.mean - exact) <= 4 * est.stderr
