"""Benchmark values, comparison verdicts and truncation sweeps."""

import json
import math

import pytest

import insider_lab.montecarlo as mc
from insider_lab.analysis import (
    AnalysisError,
    ComparisonReport,
    Verdict,
    benchmark_value,
    compare,
    grade,
    report_dict,
    truncation_sweep,
)
from insider_lab.cli import main
from insider_lab.montecarlo import ExperimentConfig, McEstimate, estimate_log_utility
from insider_lab.schedules import AffineBelowSchedule, ConstantSchedule, PowerLawSchedule
from insider_lab.strategy import (
    HonestStrategy,
    InsiderStrategy,
    MarketCoefficients,
    TableStrategy,
)

RIG = MarketCoefficients(alpha=0.1, beta=0.2, horizon=1.0)
DRIFTLESS = MarketCoefficients(alpha=0.0, beta=0.2, horizon=1.0)


def insider_value(market, sched, delta):
    """The look-ahead portfolio's closed-form benchmark."""
    return benchmark_value(market, InsiderStrategy(schedule=sched), delta)


def insider_cfg(sched, market=RIG, **overrides):
    base = dict(
        market=market,
        schedule=sched,
        strategy=InsiderStrategy(schedule=sched),
        n_paths=2000,
        base_points=1024,
        delta=1e-3,
        master_seed=42,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTheoreticalUtility:
    def test_constant_window_full_horizon(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        assert insider_value(RIG, sched, 0.0) == pytest.approx(0.625, rel=1e-12)

    def test_square_root_window_full_horizon(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        assert insider_value(RIG, sched, 0.0) == pytest.approx(1.125, rel=1e-12)

    def test_reciprocal_window_log_truncation(self):
        sched = PowerLawSchedule(exponent=1.0, horizon=1.0)
        got = insider_value(DRIFTLESS, sched, math.exp(-2))
        assert got == pytest.approx(1.0, rel=1e-7)

    def test_below_horizon_window_truncated(self):
        sched = AffineBelowSchedule(slope=0.5, horizon=1.0)
        got = insider_value(DRIFTLESS, sched, 1e-2)
        assert got == pytest.approx(math.log(100.0), rel=1e-7)

    def test_truncated_value_tracks_quadrature(self):
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        got = insider_value(RIG, sched, 1e-3)
        want = 0.5 * ((2.0 - 2.0 * math.sqrt(1e-3)) + 0.25 * (1.0 - 1e-3))
        assert got == pytest.approx(want, rel=1e-9)

    def test_divergent_schedule_at_zero_rejected(self):
        sched = PowerLawSchedule(exponent=1.0, horizon=1.0)
        with pytest.raises(AnalysisError, match="diverges"):
            insider_value(RIG, sched, 0.0)

    def test_below_horizon_at_zero_rejected(self):
        sched = AffineBelowSchedule(slope=0.5, horizon=1.0)
        with pytest.raises(AnalysisError, match="diverges"):
            insider_value(DRIFTLESS, sched, 0.0)

    def test_horizon_mismatch_rejected(self):
        sched = ConstantSchedule(value=1.0, horizon=2.0)
        with pytest.raises(AnalysisError, match="horizon"):
            insider_value(RIG, sched, 0.0)

    def test_delta_out_of_range_rejected(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        with pytest.raises(AnalysisError, match="delta"):
            insider_value(RIG, sched, 1.0)


class TestAdditivityAcrossTruncations:
    def test_nested_horizon_strip_matches_antiderivative(self):
        # moving the cut from delta1 to delta2 must add exactly the
        # strip integral; checked against the independent closed form
        sched = PowerLawSchedule(exponent=0.5, horizon=1.0)
        d1, d2 = 1e-2, 1e-3
        gap = insider_value(RIG, sched, d2) - insider_value(RIG, sched, d1)
        strip = (math.sqrt(d1) - math.sqrt(d2)) + 0.5 * 0.25 * (d1 - d2)
        assert gap == pytest.approx(strip, rel=1e-6)

    def test_divergent_log_growth_is_exact(self):
        sched = PowerLawSchedule(exponent=1.0, horizon=1.0)
        for d in (1e-1, 1e-2):
            step = insider_value(DRIFTLESS, sched, d / 10) \
                - insider_value(DRIFTLESS, sched, d)
            assert step >= 0.5 * math.log(10.0) - 1e-6
            assert step == pytest.approx(0.5 * math.log(10.0), rel=1e-6)


class TestBenchmarkSelection:
    def test_honest_value_ignores_schedule(self):
        got = benchmark_value(RIG, HonestStrategy(), 0.0)
        assert got == pytest.approx(0.125, rel=1e-12)

    def test_honest_piecewise_drift(self):
        market = MarketCoefficients(
            alpha={"breaks": [0.0, 0.5], "values": [0.1, 0.2]},
            beta=0.2, horizon=1.0,
        )
        got = benchmark_value(market, HonestStrategy(), 0.0)
        assert got == pytest.approx(0.5 * (0.25 * 0.5 + 1.0 * 0.5), rel=1e-12)

    def test_insider_value_uses_schedule(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        got = benchmark_value(RIG, InsiderStrategy(schedule=sched), 0.0)
        assert got == pytest.approx(0.625, rel=1e-12)

    def test_table_strategy_has_no_benchmark(self):
        table = TableStrategy(knots=((0.0, 1.0), (1.0, 1.0)))
        with pytest.raises(AnalysisError, match="benchmark"):
            benchmark_value(RIG, table, 0.0)


class TestComparisonReport:
    def sample(self, mean, stderr, theory=1.0, abs_tol=0.02):
        mc = McEstimate(mean=mean, stderr=stderr, n_paths=100)
        return ComparisonReport(theory=theory, mc=mc, delta=0.0, abs_tol=abs_tol)

    def test_z_score_signed(self):
        rep = self.sample(mean=1.1, stderr=0.05)
        assert rep.z_score == pytest.approx(2.0)
        rep = self.sample(mean=0.9, stderr=0.05)
        assert rep.z_score == pytest.approx(-2.0)

    def test_pass_inside_three_sigma(self):
        assert self.sample(mean=1.1, stderr=0.05).verdict is Verdict.PASS

    def test_fail_outside_both_tolerances(self):
        rep = self.sample(mean=1.1, stderr=0.01)
        assert rep.verdict is Verdict.FAIL
        assert not rep.passed()

    def test_abs_tol_rescues_tight_stderr(self):
        rep = self.sample(mean=1.015, stderr=0.001, abs_tol=0.02)
        assert rep.verdict is Verdict.PASS

    def test_exact_match_with_zero_stderr(self):
        rep = self.sample(mean=1.0, stderr=0.0)
        assert rep.z_score == 0.0
        assert rep.verdict is Verdict.PASS

    def test_mismatch_with_zero_stderr(self):
        rep = self.sample(mean=1.5, stderr=0.0)
        assert math.isinf(rep.z_score)
        assert rep.verdict is Verdict.FAIL


class TestGrade:
    def test_report_verdict_follows_grade(self):
        mc = McEstimate(mean=1.015, stderr=0.001, n_paths=100)
        rep = ComparisonReport(theory=1.0, mc=mc, delta=0.0, abs_tol=0.02)
        assert (rep.z_score, rep.verdict) == grade(mc.mean - 1.0, mc.stderr, 0.02)

    def test_zero_abs_tol_grades_at_three_sigma(self):
        assert grade(0.029, 0.01)[1] is Verdict.PASS
        assert grade(-0.031, 0.01)[1] is Verdict.FAIL
        assert grade(0.031, 0.01, abs_tol=0.05)[1] is Verdict.PASS

    def test_exact_hit_passes_and_nan_fails(self):
        assert grade(0.0, 0.0) == (0.0, Verdict.PASS)
        z, verdict = grade(math.nan, 0.1)
        assert math.isnan(z)
        assert verdict is Verdict.FAIL


class TestCompare:
    def test_honest_passes(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        cfg = ExperimentConfig(
            market=RIG, schedule=sched, strategy=HonestStrategy(),
            n_paths=400, base_points=256, delta=0.0,
        )
        rep = compare(cfg)
        assert rep.passed()
        assert rep.theory == pytest.approx(0.125, rel=1e-12)

    def test_insider_passes(self):
        rep = compare(insider_cfg(PowerLawSchedule(exponent=0.5, horizon=1.0)))
        assert rep.passed()
        assert rep.theory == pytest.approx(1.0932522233983162, rel=1e-9)

    def test_wrong_reference_fails(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        cfg = ExperimentConfig(
            market=RIG, schedule=sched, strategy=HonestStrategy(),
            n_paths=400, base_points=256, delta=0.0,
        )
        rep = ComparisonReport(theory=0.125 + 0.5, mc=estimate_log_utility(cfg),
                               delta=cfg.delta)
        assert rep.verdict is Verdict.FAIL


class TestTruncationSweep:
    def test_reciprocal_window_drifts_up(self):
        sched = PowerLawSchedule(exponent=1.0, horizon=1.0)
        cfg = insider_cfg(sched, market=DRIFTLESS, delta=1e-1, base_points=2048)
        reports = truncation_sweep(cfg, [1e-1, 1e-2], abs_tol=0.03)
        assert [r.theory for r in reports] == pytest.approx(
            [0.5 * math.log(10.0), math.log(10.0)], rel=1e-7
        )
        assert all(r.passed() for r in reports)
        assert reports[1].mc.mean - reports[0].mc.mean >= 1.0

    def test_below_horizon_window_drifts_up_twice_as_fast(self):
        sched = AffineBelowSchedule(slope=0.5, horizon=1.0)
        cfg = insider_cfg(sched, market=DRIFTLESS, delta=1e-1, base_points=2048)
        reports = truncation_sweep(cfg, [1e-1, 1e-2], abs_tol=0.05)
        assert [r.theory for r in reports] == pytest.approx(
            [math.log(10.0), 2.0 * math.log(10.0)], rel=1e-7
        )
        assert all(r.passed() for r in reports)

    def test_viable_schedule_settles(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        cfg = insider_cfg(sched, delta=1e-2, n_paths=400, base_points=256)
        reports = truncation_sweep(cfg, [1e-2, 1e-3])
        assert abs(reports[1].theory - reports[0].theory) < 0.05

    def test_deltas_must_decrease(self):
        cfg = insider_cfg(ConstantSchedule(value=1.0, horizon=1.0), delta=1e-2)
        with pytest.raises(AnalysisError, match="decreasing"):
            truncation_sweep(cfg, [1e-3, 1e-2])

    def test_empty_sweep_rejected(self):
        cfg = insider_cfg(ConstantSchedule(value=1.0, horizon=1.0), delta=1e-2)
        with pytest.raises(AnalysisError, match="at least one"):
            truncation_sweep(cfg, [])


class TestSerialization:
    def make_reports(self):
        sched = ConstantSchedule(value=1.0, horizon=1.0)
        cfg = insider_cfg(sched, delta=1e-2, n_paths=400, base_points=256)
        return truncation_sweep(cfg, [1e-2, 1e-3])

    def test_report_dict_is_json_ready(self):
        reports = self.make_reports()
        blob = json.dumps([report_dict(r) for r in reports])
        parsed = json.loads(blob)
        assert parsed[0]["verdict"] in ("Pass", "Fail")
        assert parsed[0]["delta"] == 1e-2

    def test_csv_layout(self, tmp_path):
        reports = self.make_reports()
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--schedule", "const:1", "--paths", "400",
                     "--base-points", "256", "--deltas", "1e-2,1e-3",
                     "--output", str(out), "--format", "csv"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "delta,theory,mc_mean,mc_stderr,z,verdict"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1e-2
        assert first[5] in ("Pass", "Fail")
        assert float(first[1]) == pytest.approx(reports[0].theory)


@pytest.fixture
def no_draws(monkeypatch):
    def poisoned(*args, **kwargs):
        raise AssertionError("a path was drawn before the input was checked")

    monkeypatch.setattr(mc, "_normal_block", poisoned)


def test_negative_abs_tol_refused_before_any_path_is_drawn(no_draws, capsys):
    flags = ["--schedule", "const:1", "--strategy", "merton", "--paths", "400",
             "--base-points", "256", "--abs-tol", "-1"]
    assert main(["compare", *flags]) == 1
    assert main(["sweep", "--deltas", "1e-1,1e-2", *flags]) == 1
    assert capsys.readouterr().err.count("abs_tol cannot be negative") == 2


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_abs_tol_refused_before_any_path_is_drawn(no_draws, capsys, tol):
    # NaN would grade like 0 and write invalid JSON; inf would pass every run
    flags = ["--schedule", "const:1", "--strategy", "merton", "--paths", "400",
             "--base-points", "256", "--abs-tol", tol]
    assert main(["compare", *flags]) == 1
    assert main(["sweep", "--deltas", "1e-1,1e-2", *flags]) == 1
    assert capsys.readouterr().err.count(f"non-finite, got {tol}") == 2


@pytest.mark.parametrize("deltas", ["1e-1,nan", "1e-1,-1"])
def test_sweep_refuses_a_later_delta_before_any_path_is_drawn(no_draws, capsys, deltas):
    assert main(["sweep", "--schedule", "powerlaw:q=1", "--alpha", "0", "--paths", "400",
                 "--base-points", "256", "--deltas", deltas]) == 1
    assert "truncation delta must lie in" in capsys.readouterr().err


@pytest.mark.parametrize("deltas, refusal", [("1e-1,1e-6", "too coarse"),
                                              ("1e-1,0", "diverges")])
def test_sweep_refuses_a_later_level_before_any_path_is_drawn(no_draws, capsys, deltas,
                                                              refusal):
    # a valid delta whose grid or benchmark is refused: level 1 must not wait
    # for level 0's paths
    assert main(["sweep", "--schedule", "powerlaw:q=1", "--alpha", "0", "--paths", "400",
                 "--deltas", deltas]) == 1
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize("ratio", ["-1", "0", "nan", "inf"])
def test_refine_refuses_a_min_ratio_before_any_path_is_drawn(no_draws, capsys, ratio):
    # -1 or 0 would pass any gaps, nan would fail them all under --strict
    assert main(["refine", "--schedule", "const:1", "--paths", "400", "--base-points",
                 "256", "--levels", "2", "--min-ratio", ratio, "--strict"]) == 1
    assert "--min-ratio must be finite and positive" in capsys.readouterr().err
