"""End-to-end checks of the command-line interface via subprocesses."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from insider_lab.brownian import mix_seed

CLI = [sys.executable, "-m", "insider_lab"]


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([*CLI, *argv], capture_output=True, text=True, env=env)


def load_payload(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestViability:
    def test_divergent_powerlaw_prints_not_viable(self):
        proc = run_cli("viability", "--schedule", "powerlaw:q=2", "--T", "1")
        assert proc.returncode == 0
        assert "NotViable" in proc.stdout
        assert "NotViableBelowHorizon" not in proc.stdout

    def test_square_root_schedule_is_viable(self, tmp_path):
        out = tmp_path / "via.json"
        proc = run_cli("viability", "--schedule", "powerlaw:q=0.5", "--T", "1",
                       "--output", str(out))
        assert proc.returncode == 0
        assert "-> Viable" in proc.stdout
        payload = load_payload(out)
        assert payload["classification"] == "Viable"
        assert payload["integral"] == pytest.approx(2.0)
        assert payload["method"] == "Analytic"

    def test_below_horizon_classification_and_truncated_integral(self, tmp_path):
        out = tmp_path / "via.json"
        proc = run_cli("viability", "--schedule", "affine_below:c=0.5",
                       "--T", "1", "--delta", "0.1", "--output", str(out))
        assert proc.returncode == 0
        assert "NotViableBelowHorizon" in proc.stdout
        payload = load_payload(out)
        # integral of 2/(1-t) from 0 to 0.9 is 2*ln(10)
        assert payload["truncated_integral"] == pytest.approx(2 * math.log(10), rel=1e-6)

    def test_csv_output_layout(self, tmp_path):
        out = tmp_path / "via.csv"
        proc = run_cli("viability", "--schedule", "const:1", "--T", "1",
                       "--output", str(out), "--format", "csv")
        assert proc.returncode == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["schedule", "horizon", "classification", "integral", "method"]
        assert rows[1][2] == "Viable"


class TestSimulate:
    def test_repeat_runs_identical_except_wall_time(self, tmp_path):
        args = ["simulate", "--schedule", "const:1", "--strategy", "merton",
                "--paths", "100", "--base-points", "512"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(*args, "--output", str(first)).returncode == 0
        assert run_cli(*args, "--output", str(second)).returncode == 0
        pa, pb = load_payload(first), load_payload(second)
        assert pa.pop("wall_time_s") > 0 and pb.pop("wall_time_s") > 0
        assert set(pa) == {"command", "config", "config_digest", "mean", "stderr",
                           "ci95", "n_paths"}
        assert pa == pb
        assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)

    def test_dumped_config_reproduces_the_run(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        proc = run_cli("simulate", "--schedule", "powerlaw:q=0.5",
                       "--delta", "1e-3", "--paths", "200",
                       "--base-points", "1024", "--dump-config", str(cfg_file),
                       "--output", str(out1))
        assert proc.returncode == 0
        proc = run_cli("simulate", "--config", str(cfg_file), "--output", str(out2))
        assert proc.returncode == 0
        pa, pb = load_payload(out1), load_payload(out2)
        pa.pop("wall_time_s"), pb.pop("wall_time_s")
        assert pa == pb

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "schedule": {"kind": "const", "value": 1.0},
            "strategy": {"kind": "merton"},
            "n_paths": 1000,
            "base_points": 512,
        }))
        out = tmp_path / "r.json"
        proc = run_cli("simulate", "--config", str(cfg_file), "--paths", "400",
                       "--output", str(out))
        assert proc.returncode == 0
        payload = load_payload(out)
        assert payload["config"]["n_paths"] == 400
        assert payload["config"]["base_points"] == 512

    def test_thread_count_does_not_change_results(self, tmp_path):
        args = ["simulate", "--schedule", "const:1", "--paths", "400",
                "--base-points", "512"]
        one, two = tmp_path / "t1.json", tmp_path / "t2.json"
        assert run_cli(*args, "--threads", "1", "--output", str(one)).returncode == 0
        assert run_cli(*args, "--threads", "4", "--output", str(two)).returncode == 0
        pa, pb = load_payload(one), load_payload(two)
        pa.pop("wall_time_s"), pb.pop("wall_time_s")
        assert pa == pb

    def test_env_var_thread_fallback(self, tmp_path):
        args = ["simulate", "--schedule", "const:1", "--paths", "400",
                "--base-points", "512"]
        one, two = tmp_path / "e1.json", tmp_path / "e2.json"
        assert run_cli(*args, "--threads", "1",
                       "--output", str(one)).returncode == 0
        assert run_cli(*args, "--output", str(two),
                       env_extra={"INSIDER_LAB_THREADS": "2"}).returncode == 0
        pa, pb = load_payload(one), load_payload(two)
        pa.pop("wall_time_s"), pb.pop("wall_time_s")
        assert pa == pb

    def test_debug_dumps_and_csv_output(self, tmp_path):
        path_csv = tmp_path / "path.csv"
        wealth_csv = tmp_path / "wealth.csv"
        out = tmp_path / "r.csv"
        proc = run_cli("simulate", "--schedule", "const:1", "--paths", "200",
                       "--base-points", "256", "--dump-path", str(path_csv),
                       "--dump-wealth", str(wealth_csv),
                       "--output", str(out), "--format", "csv")
        assert proc.returncode == 0
        assert path_csv.read_text().splitlines()[0] == "t,B"
        assert wealth_csv.read_text().splitlines()[0] == "t,pi,log_wealth"
        rows = list(csv.reader(out.open()))
        assert rows[0][:3] == ["config_digest", "mean", "stderr"]
        assert len(rows) == 2


class TestCompareAndSweep:
    def test_compare_constant_window_passes(self, tmp_path):
        out = tmp_path / "cmp.json"
        proc = run_cli("compare", "--schedule", "const:1", "--paths", "4000",
                       "--base-points", "512", "--strict", "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout.startswith("Pass")
        payload = load_payload(out)
        assert payload["report"]["theory"] == pytest.approx(0.625)
        assert payload["report"]["verdict"] == "Pass"
        assert payload["config_digest"] == payload["config_digest"].lower()
        assert len(payload["config_digest"]) == 16

    def test_compare_theory_starts_from_log_x0(self):
        # the estimate is expected log wealth from x0, and so is the theory
        proc = run_cli("compare", "--schedule", "const:1", "--strategy", "merton",
                       "--paths", "400", "--base-points", "256", "--x0", "2", "--strict")
        assert proc.returncode == 0
        assert proc.stdout.startswith("Pass: theory=0.818147 mc=0.818147")

    def test_sweep_reciprocal_window_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--schedule", "powerlaw:q=1", "--alpha", "0",
                       "--paths", "4000", "--base-points", "2048",
                       "--deltas", "1e-1,1e-2", "--abs-tol", "0.05",
                       "--strict", "--output", str(out), "--format", "csv")
        assert proc.returncode == 0
        assert "2/2 Pass" in proc.stdout
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["delta", "theory", "mc_mean", "mc_stderr", "z", "verdict"]
        assert len(rows) == 3
        assert float(rows[1][1]) == pytest.approx(0.5 * math.log(10))
        assert float(rows[2][1]) == pytest.approx(math.log(10))


class TestDiagnostics:
    def test_duality_constant_lookahead(self, tmp_path):
        out = tmp_path / "du.json"
        proc = run_cli("duality", "--kind", "constant_lookahead", "--eps", "0.5",
                       "--paths", "4000", "--base-points", "1024",
                       "--strict", "--output", str(out))
        assert proc.returncode == 0
        payload = load_payload(out)
        assert payload["analytic"] == pytest.approx(1.0)
        assert payload["verdict"] == "Pass"

    def test_duality_requires_eps_for_lookahead_kind(self):
        proc = run_cli("duality", "--kind", "constant_lookahead", "--paths", "400",
                       "--base-points", "512")
        assert proc.returncode == 1
        assert "eps" in proc.stderr

    def test_duality_refuses_a_look_ahead_shorter_than_a_grid_step(self):
        # each step adds min(eps, dt) to the grid mean, 255 * 0.001 here, so
        # the analytic value T holds only when eps covers every base step
        proc = run_cli("duality", "--kind", "constant_lookahead", "--eps", "0.001",
                       "--base-points", "256", "--paths", "2000", "--strict")
        assert proc.returncode == 1
        assert "eps=0.001" in proc.stderr and "step 0.00392" in proc.stderr

    def test_donsker_table_rows_satisfy_ratio_identity(self, tmp_path):
        out = tmp_path / "table.csv"
        proc = run_cli("donsker-table", "--eps1", "0.25", "--eps2", "1.0",
                       "--points", "5", "--output", str(out), "--format", "csv")
        assert proc.returncode == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["y1", "y2", "density", "derivative", "ratio"]
        assert len(rows) == 26
        for row in rows[1:]:
            density, deriv, ratio = map(float, row[2:])
            assert density >= 0.0
            assert deriv == pytest.approx(density * ratio, abs=1e-15)

    @pytest.mark.parametrize("span", ["inf", "nan", "0", "-1"])
    def test_donsker_table_refuses_a_span_that_is_not_finite_and_positive(self, tmp_path,
                                                                          span):
        out = tmp_path / "d.json"
        proc = run_cli("donsker-table", "--eps1", "0.25", "--eps2", "1", "--points", "3",
                       "--span", span, "--output", str(out))
        assert proc.returncode == 1
        assert "--span must be finite and positive" in proc.stderr
        assert not out.exists()

    def test_drift_check_passes_on_both_sides_of_the_window(self, tmp_path):
        out = tmp_path / "drift.json"
        proc = run_cli("drift-check", "--ratios", "0.5,1,2", "--paths", "20000",
                       "--strict", "--output", str(out))
        assert proc.returncode == 0
        # the boundary ratio 1 is checked from both sides, so 3 ratios
        # produce 4 rows
        assert "4/4 Pass" in proc.stdout
        rows = load_payload(out)["rows"]
        kinds = [r["kind"] for r in rows]
        assert kinds == ["bridge", "bridge", "martingale", "martingale"]
        assert rows[1]["slope"] == 1.0 and rows[1]["stderr"] == 0.0
        assert rows[2]["slope"] == 1.0 and rows[2]["stderr"] == 0.0
        assert rows[3]["expected"] == 1.0

    def test_drift_check_ratio_one_prints_both_rows_of_one_regression(self, tmp_path):
        out = tmp_path / "drift.json"
        proc = run_cli("drift-check", "--ratios", "1", "--t", "0.2", "--eps", "0.3",
                       "--paths", "2000", "--seed", "5", "--output", str(out))
        assert proc.returncode == 0
        bridge, martingale = load_payload(out)["rows"]
        assert (bridge["kind"], martingale["kind"]) == ("bridge", "martingale")
        assert bridge["slope"] == martingale["slope"]
        assert bridge["stderr"] == martingale["stderr"]
        assert bridge["expected"] == 1.0 and martingale["expected"] == 1.0

    def test_drift_check_refuses_a_ratio_that_is_not_a_number(self):
        # nan lies on neither side of the window, so no row would grade it
        proc = run_cli("drift-check", "--ratios", "nan,0.5", "--paths", "200")
        assert proc.returncode == 1
        assert "h=nan" in proc.stderr

    def test_refine_reports_levels_and_gap_ratios(self, tmp_path):
        out = tmp_path / "refine.json"
        proc = run_cli("refine", "--schedule", "powerlaw:q=0.5",
                       "--delta", "1e-3", "--paths", "2000",
                       "--base-points", "512", "--levels", "2", "--factor", "2",
                       "--output", str(out))
        assert proc.returncode == 0
        payload = load_payload(out)
        assert [r["base_points"] for r in payload["levels"]] == [512, 1024]
        assert len(payload["gap_ratios"]) == 1
        assert payload["theory"] == pytest.approx(1.0932522233983162)
        assert payload["verdict"] == "Pass"

    def test_refine_gaps_start_from_log_x0(self, tmp_path):
        # honest constant coefficients carry no grid bias, so every level
        # sits on 0.125 + log 2
        out = tmp_path / "refine.json"
        proc = run_cli("refine", "--schedule", "const:1", "--strategy", "merton",
                       "--x0", "2", "--paths", "400", "--base-points", "256",
                       "--levels", "2", "--factor", "2", "--output", str(out))
        assert proc.returncode == 0
        payload = load_payload(out)
        assert payload["theory"] == pytest.approx(0.125 + math.log(2.0), rel=1e-12)
        assert all(level["abs_gap"] < 1e-12 for level in payload["levels"])

    def test_refine_refuses_pi_cap(self, tmp_path):
        # a binding cap moves every level's mean off the uncapped centres
        # the control variate pulls it onto
        out = tmp_path / "refine.json"
        proc = run_cli("refine", "--schedule", "const:1", "--strategy", "merton",
                       "--pi-cap", "1", "--paths", "400", "--base-points", "256",
                       "--levels", "2", "--factor", "2", "--output", str(out))
        assert proc.returncode == 1
        assert "pi_cap" in proc.stderr
        assert not out.exists()


_SMALL = ["--schedule", "const:1", "--paths", "200", "--base-points", "256"]
_REPORT_HEADER = ["delta", "theory", "mc_mean", "mc_stderr", "z", "verdict"]

# command -> (arguments, JSON key holding its records or None for one
# record, CSV header, number of records)
_LAYOUTS = {
    "viability": (["--schedule", "powerlaw:q=0.5"], None,
                  ["schedule", "horizon", "classification", "integral", "method"], 1),
    "simulate": (_SMALL, None,
                 ["config_digest", "mean", "stderr", "ci_lo", "ci_hi", "n_paths",
                  "wall_time_s"], 1),
    "compare": (_SMALL, "report", _REPORT_HEADER, 1),
    "sweep": ([*_SMALL, "--deltas", "1e-1,1e-2"], "reports", _REPORT_HEADER, 2),
    "refine": ([*_SMALL, "--levels", "2", "--factor", "2"], "levels",
               ["base_points", "mean", "stderr", "theory", "abs_gap"], 2),
    "duality": (["--kind", "terminal_value", "--paths", "200", "--base-points", "64"],
                None, ["kind", "analytic", "mean", "stderr", "z", "verdict"], 1),
    "donsker-table": (["--eps1", "0.25", "--eps2", "1", "--points", "3"], "rows",
                      ["y1", "y2", "density", "derivative", "ratio"], 9),
    "drift-check": (["--ratios", "0.5,2", "--paths", "200"], "rows",
                    ["kind", "h_over_eps", "slope", "stderr", "expected", "z",
                     "verdict"], 2),
}


class TestOutputLayout:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", list(_LAYOUTS))
    def test_every_command_writes_its_layout(self, tmp_path, command, fmt):
        argv, key, header, n_rows = _LAYOUTS[command]
        out = tmp_path / f"out.{fmt}"
        proc = run_cli(command, *argv, "--output", str(out), "--format", fmt)
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            payload = load_payload(out)
            assert payload["command"] == command
            records = payload[key] if key else payload
            assert (len(records) if isinstance(records, list) else 1) == n_rows
        else:
            rows = list(csv.reader(out.open()))
            assert rows[0] == header
            assert len(rows) == 1 + n_rows


_ESTIMATE_KEYS = {"mean", "stderr", "ci95", "n_paths"}
_EXPERIMENT_KEYS = {"command", "config", "config_digest"}
_REPORT_KEYS = {"delta", "theory", *_ESTIMATE_KEYS, "z_score", "verdict", "abs_tol"}
_DUALITY_KEYS = {"command", "kind", "horizon", "eps", "base_points", "seed",
                 *_ESTIMATE_KEYS, "analytic", "z_score", "verdict"}
_VIABILITY_KEYS = {"command", "schedule", "horizon", "classification", "integral",
                   "integral_label", "method"}

# (arguments, payload keys, key of its records or None, keys of each record)
_PAYLOADS = {
    "compare": (["compare", *_SMALL], {*_EXPERIMENT_KEYS, "report"}, "report",
                _REPORT_KEYS),
    "sweep": (["sweep", *_SMALL, "--deltas", "1e-1,1e-2"], {*_EXPERIMENT_KEYS, "reports"},
              "reports", _REPORT_KEYS),
    "refine": (["refine", *_SMALL, "--levels", "2", "--factor", "2"],
               {*_EXPERIMENT_KEYS, "theory", "levels", "gap_ratios", "min_ratio", "verdict"},
               "levels", {"base_points", "mean", "stderr", "abs_gap"}),
    "duality-lookahead": (["duality", "--kind", "constant_lookahead", "--eps", "0.5",
                           "--paths", "200", "--base-points", "64"], _DUALITY_KEYS, None, None),
    "duality-terminal": (["duality", "--kind", "terminal_value", "--paths", "200",
                          "--base-points", "64"], _DUALITY_KEYS, None, None),
    "duality-adapted": (["duality", "--kind", "adapted_one", "--paths", "200",
                         "--base-points", "64"], _DUALITY_KEYS, None, None),
    "drift-check": (["drift-check", "--ratios", "0.5,2", "--paths", "200"],
                    {"command", "t", "eps", "paths", "seed", "rows"}, "rows",
                    {"kind", "h_over_eps", "slope", "stderr", "expected", "z_score",
                     "verdict"}),
    "viability": (["viability", "--schedule", "powerlaw:q=0.5"], _VIABILITY_KEYS, None, None),
    "viability-delta": (["viability", "--schedule", "powerlaw:q=0.5", "--delta", "1e-3"],
                        {*_VIABILITY_KEYS, "delta", "truncated_integral"}, None, None),
    "donsker-table": (["donsker-table", "--eps1", "0.25", "--eps2", "1", "--points", "3"],
                      {"command", "base", "eps1", "eps2", "points", "span", "columns",
                       "rows"}, None, None),
}


@pytest.mark.parametrize("name", list(_PAYLOADS))
def test_every_payload_keeps_its_keys(tmp_path, name):
    argv, keys, record_key, record_keys = _PAYLOADS[name]
    out = tmp_path / "out.json"
    proc = run_cli(*argv, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = load_payload(out)
    assert set(payload) == keys
    if record_key is not None:
        records = payload[record_key]
        for record in records if isinstance(records, list) else [records]:
            assert set(record) == record_keys


class TestExitCodes:
    def test_unknown_config_key_is_an_error(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({
            "schedule": {"kind": "const", "value": 1.0},
            "bogus_key": 3,
        }))
        proc = run_cli("simulate", "--config", str(cfg_file))
        assert proc.returncode == 1
        assert "bogus_key" in proc.stderr

    @pytest.mark.parametrize("overrides, offender", [
        ({"market": {"gamma": 1.0}}, "gamma"),
        ({"strategy": {"kind": "merton", "leverage": 2}}, "leverage"),
        ({"strategy": {"kind": "kelly"}}, "kelly"),
        ({"strategy": {"kind": "table"}}, "knots"),
        ({"antithetic": "yes"}, "antithetic"),
        ({"market": {"horizon": "one"}}, "horizon"),
        ({"market": {"horizon": "1"}}, "horizon"),
        ({"delta": "0.1"}, "delta"),
        ({"schedule": {"kind": "const", "value": "1"}}, "value"),
        ({"pi_cap": True}, "pi_cap"),
        ({"market": {"alpha": True}}, "market alpha"),
        ({"market": {"alpha": "0.1"}}, "market alpha"),
        ({"market": {"alpha": {"breaks": [0, "0.5"], "values": [0.1, 0.2]}}}, "market alpha"),
        ({"market": {"alpha": {"breaks": [0, 0.5], "values": [0.1, True]}}}, "market alpha"),
        ({"market": {"beta": None}}, "market beta"),
        ({"market": {"beta": {"breaks": [0], "values": [0.2], "k": 1}}}, "market beta"),
        # a NaN compares false with every number, so it must not pass for a step
        ({"market": {"alpha": {"breaks": [0, math.nan], "values": [0.1, 0.2]}}},
         "strictly increasing"),
        ({"strategy": {"kind": "table", "knots": [[0, 1], [math.nan, 2], [1, 1]]}},
         "strictly increasing"),
        ({"schedule": {"kind": "table", "knots": [[0, 0.5], [math.nan, 0.4], [1, 0.3]]}},
         "strictly increasing"),
    ])
    def test_bad_config_entry_is_refused(self, tmp_path, overrides, offender):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({
            "schedule": {"kind": "const", "value": 1.0},
            "n_paths": 200,
            "base_points": 256,
            **overrides,
        }))
        proc = run_cli("simulate", "--config", str(cfg_file))
        assert proc.returncode == 1
        assert offender in proc.stderr

    def test_missing_schedule_is_an_error(self):
        proc = run_cli("simulate", "--paths", "200", "--base-points", "256")
        assert proc.returncode == 1
        assert "schedule" in proc.stderr

    def test_unknown_schedule_kind_is_an_error(self):
        proc = run_cli("simulate", "--schedule", "nope:1")
        assert proc.returncode == 1
        assert "unknown schedule kind" in proc.stderr

    def test_step_longer_than_its_look_ahead_is_refused(self):
        proc = run_cli("compare", "--schedule", "powerlaw:q=3", "--delta", "1e-2",
                       "--base-points", "4096", "--paths", "200")
        assert proc.returncode == 1
        assert "t=0.964719" in proc.stderr

    def test_divergent_horizon_comparison_is_an_error(self):
        proc = run_cli("compare", "--schedule", "powerlaw:q=1", "--delta", "0",
                       "--paths", "200", "--base-points", "256")
        assert proc.returncode == 1
        assert "diverges" in proc.stderr

    def test_exploding_path_reports_its_seed_with_exit_2(self, tmp_path):
        profile = tmp_path / "profile.csv"
        profile.write_text("t,pi\n0.0,nan\n1.0,nan\n")
        proc = run_cli("simulate", "--schedule", "const:1", "--strategy",
                       f"table:@{profile}", "--paths", "200",
                       "--base-points", "256")
        assert proc.returncode == 2
        assert str(mix_seed(42, 0)) in proc.stderr

    def test_strict_verdict_failure_exits_3(self):
        # seed 24 lands the honest estimate four standard errors low, and
        # the tiny abs tolerance removes the rescue floor
        args = ["compare", "--schedule", "const:1", "--strategy", "merton",
                "--paths", "400", "--base-points", "256", "--seed", "24",
                "--no-antithetic", "--abs-tol", "1e-9"]
        assert run_cli(*args, "--strict").returncode == 3
        assert run_cli(*args).returncode == 0

    def test_bad_thread_env_var_is_an_error(self):
        proc = run_cli("simulate", "--schedule", "const:1", "--paths", "200",
                       "--base-points", "256",
                       env_extra={"INSIDER_LAB_THREADS": "abc"})
        assert proc.returncode == 1
        assert "INSIDER_LAB_THREADS" in proc.stderr

    def test_help_exits_cleanly(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "viability" in proc.stdout
