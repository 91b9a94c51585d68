#!/usr/bin/env python3
"""Self-tests of the benchmark: its oracles are right and its checks can fail.

    python3 bench/selftest.py

Each check is fed a correct value, which it must accept, and a planted
wrong one (a theory value shifted by 5 sigma, a table integral off by
1e-6 relative, a 2-thread result one bit away from the 1-thread one,
...), which it must reject.  The closed forms are compared with scipy
quadrature, and the oracle's base grid with the program's own grid.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SQRT = wl.SQRT


def ok(res):
    return all(flag for flag, _ in res)


def result(payload, code=0, stderr=""):
    return wl.Result(code=code, payload=payload, stderr=stderr)


class ClosedForms(unittest.TestCase):
    def test_integrals_match_quadrature(self):
        from scipy.integrate import quad

        cases = [SQRT, {"kind": "powerlaw", "q": 1.0}, {"kind": "powerlaw", "q": 2.0},
                 {"kind": "const", "value": 0.5}, {"kind": "affine_below", "c": 0.5},
                 {"kind": "table", "knots": wl.TABLE_VIABLE}]
        for sched in cases:
            for delta in (1e-1, 1e-2):
                want, _ = quad(lambda t: 1.0 / orc.eps_of(sched, np.array(t), 1.0), 0,
                               1 - delta, epsabs=1e-13, epsrel=1e-13, limit=200)
                got = orc.lookahead_integral(sched, 1.0, delta)
                self.assertAlmostEqual(got / want, 1.0, places=10, msg=(sched, delta))

    def test_table_integrals(self):
        table = {"kind": "table", "knots": wl.TABLE_VIABLE}
        self.assertAlmostEqual(orc.lookahead_integral(table, 1.0, 0.0), math.log(3), 14)
        mixed = {"kind": "table", "knots": wl.TABLE_MIXED}
        self.assertAlmostEqual(orc.lookahead_integral(mixed, 1.0, 0.0),
                               math.log(5e5) / 0.499999, 12)
        self.assertEqual(orc.table_regime(wl.TABLE_MIXED, 1.0), "Mixed")
        self.assertEqual(orc.table_regime(wl.TABLE_VIABLE, 1.0), "AboveHorizon")

    def test_rig_theory(self):
        # the README's graded value for the acceptance rig
        self.assertAlmostEqual(orc.insider_utility(SQRT, 0.1, 0.2, 1.0, 1e-3),
                               1.093252, 6)

    def test_base_grid_matches_the_program(self):
        sys.path.insert(0, str(ROOT / "src"))
        from insider_lab.brownian import union_grid
        from insider_lab.schedules import PowerLawSchedule

        for n, delta in ((4096, 1e-3), (1024, 1e-3), (16384, 1e-3), (4096, 1e-2)):
            grid = union_grid(n, PowerLawSchedule(0.5, 1.0), delta)
            ours = orc.base_grid(n, 1.0, delta)
            np.testing.assert_allclose(grid.points[grid.base_indices], ours, rtol=0,
                                       atol=1e-12)

    def test_setup_intercept(self):
        # wall = 0.4 s + paths * 1 ms  ->  intercept 0.4 s
        p = wl.PROBE_PATHS
        self.assertAlmostEqual(run.intercept(0.4 + p * 1e-3, 0.4 + 6000 * 1e-3, 6000),
                               0.4, 12)


class ChecksRejectPlantedValues(unittest.TestCase):
    def test_theory_shifted_by_five_sigma(self):
        check = wl.insider_check(SQRT, 1e-3, 4096, 1000)
        closed = orc.insider_utility(SQRT, 0.1, 0.2, 1.0, 1e-3)
        exact = orc.discretized_mean(SQRT, 0.1, 0.2, 1.0, 1e-3, 4096)
        se = 0.01
        good = {"mean": exact, "stderr": se, "n_paths": 500}
        self.assertTrue(ok(check(result(good))))
        allowance = abs(exact - closed)
        for sign in (1, -1):
            bad = dict(good, mean=closed + sign * (5 * se + allowance))
            self.assertFalse(ok(check(result(bad))))
        self.assertFalse(ok(check(result(dict(good, n_paths=1000)))))
        self.assertFalse(ok(check(result(None, code=2))))

    def test_refine_level_shifted_by_five_sigma(self):
        check = wl.refine_check(SQRT, 1e-3, 1024, 3, 4, 1000)
        sizes = [1024, 4096, 16384]
        rows = [{"base_points": n, "stderr": 1e-4,
                 "mean": orc.discretized_mean(SQRT, 0.1, 0.2, 1.0, 1e-3, n)} for n in sizes]
        self.assertTrue(ok(check(result({"levels": rows}))))
        for j in range(3):
            bad = [dict(r) for r in rows]
            bad[j]["mean"] += 5e-4
            self.assertFalse(ok(check(result({"levels": bad}))), j)

    def test_one_bit_between_thread_counts(self):
        a = {"mean": 1.0932, "stderr": 0.01, "wall_time_s": 3.0}
        cross = wl.identical("x1", "x2")
        same = {"x1": result(a), "x2": result(dict(a, wall_time_s=1.5))}
        self.assertTrue(ok(cross(same)))
        flipped = dict(a, mean=math.nextafter(a["mean"], 2.0))
        self.assertFalse(ok(cross({"x1": result(a), "x2": result(flipped)})))

    def test_table_integral_off_by_1e6_relative(self):
        table = {"kind": "table", "knots": wl.TABLE_VIABLE}
        check = wl.viability_check(table, None)
        good = {"classification": "Viable", "integral": math.log(3)}
        self.assertTrue(ok(check(result(good))))
        self.assertFalse(ok(check(result(dict(good, integral=math.log(3) * (1 + 1e-6))))))
        self.assertFalse(ok(check(result(dict(good, classification="NotViable")))))

    def test_mixed_table_outcomes(self):
        mixed = {"kind": "table", "knots": wl.TABLE_MIXED}
        check = wl.viability_check(mixed, None, refusal="mixed")
        exact = math.log(5e5) / 0.499999
        self.assertTrue(ok(check(result({"classification": "Viable", "integral": exact}))))
        self.assertTrue(ok(check(result(None, 1, "error: ... (mixed regime) ..."))))
        self.assertFalse(ok(check(result(None, 1, "error: something else"))))
        self.assertFalse(ok(check(result({"classification": "NotViableBelowHorizon",
                                          "integral": None}))))

    def test_truncated_integral_checked(self):
        check = wl.viability_check({"kind": "powerlaw", "q": 2.0}, 1e-3)
        good = {"classification": "NotViable", "integral": None,
                "truncated_integral": 999.0}
        self.assertTrue(ok(check(result(good))))
        self.assertFalse(ok(check(result(dict(good, truncated_integral=999.001)))))
        self.assertFalse(ok(check(result(dict(good, integral=998.0)))))

    def test_honest_constant(self):
        check = wl.honest_check(1000)
        good = {"report": {"mean": 0.125, "stderr": 0.0, "n_paths": 500}}
        self.assertTrue(ok(check(result(good))))
        bad = {"report": {"mean": 0.125 + 1e-11, "stderr": 0.0, "n_paths": 500}}
        self.assertFalse(ok(check(result(bad))))

    def test_coarse_grid(self):
        check = wl.coarse_check({"kind": "powerlaw", "q": 3.0}, 1e-2, 4096)
        self.assertTrue(ok(check(result(None, 1, "error: grid step too coarse"))))
        bad = {"report": {"mean": -1519.16, "stderr": 6.3}}
        self.assertFalse(ok(check(result(bad))))
        exact = orc.discretized_mean({"kind": "powerlaw", "q": 3.0}, 0.1, 0.2, 1.0, 1e-2,
                                     4096)
        self.assertTrue(ok(check(result({"report": {"mean": exact, "stderr": 6.3}}))))

    def test_duality_shifted(self):
        check = wl.duality_check(100, 1.0)
        self.assertTrue(ok(check(result({"n_paths": 100, "mean": 1.01, "stderr": 0.01}))))
        self.assertFalse(ok(check(result({"n_paths": 100, "mean": 1.05, "stderr": 0.01}))))

    def test_sweep_level_shifted(self):
        q1 = {"kind": "powerlaw", "q": 1.0}
        check = wl.sweep_check(q1, (1e-1, 1e-2), 4096, 1000, 0.03)
        reps = [{"mean": orc.discretized_mean(q1, 0.0, 0.2, 1.0, d, 4096), "stderr": 0.02,
                 "n_paths": 500} for d in (1e-1, 1e-2)]
        self.assertTrue(ok(check(result({"reports": reps}))))
        reps[1] = dict(reps[1], mean=reps[1]["mean"] + 0.11)
        self.assertFalse(ok(check(result({"reports": reps}))))

    def test_donsker_density(self):
        from scipy.stats import multivariate_normal

        b, e1, e2 = 0.25, 0.25, 1.0
        ys = np.linspace(-1, 1, 5)
        pdf = multivariate_normal(mean=[b, b], cov=[[e1, e1], [e1, e2]]).pdf
        rows = []
        for y1 in ys:
            for y2 in ys:
                d = float(pdf([y1, y2]))
                rows.append([y1, y2, d, d * (y1 - b) / e1, (y1 - b) / e1])
        check = wl.donsker_check(b, e1, e2, 5)
        self.assertTrue(ok(check(result({"rows": rows}))))
        for col, factor in ((2, 1 + 1e-10), (3, 1 + 1e-10), (4, 1.001)):
            bad = [list(r) for r in rows]
            bad[7][col] *= factor
            self.assertFalse(ok(check(result({"rows": bad}))), col)
        swapped = [[r[0], r[1], float(pdf([r[1], r[0]])), r[3], r[4]] for r in rows]
        self.assertFalse(ok(check(result({"rows": swapped}))))

    def test_first_round_is_the_reference(self):
        op = wl.Op("x", [wl.Command(key="x", argv=[], check=lambda res: [(True, "")])])
        first = {}
        checks = run.grade_op(op, {"x": result({"mean": 1.0})}, {}, first, cross=False)
        self.assertTrue(ok(checks))
        checks = run.grade_op(op, {"x": result({"mean": 1.0 + 2**-52})}, {}, first,
                              cross=False)
        self.assertFalse(ok(checks))


class Spans(unittest.TestCase):
    def test_self_time_and_per_pair_figures(self):
        import tracing

        spans = [["round", 0.0, 10.0, -1, None],
                 ["montecarlo.estimate", 1.0, 7.0, 0, None],
                 ["brownian.mix_seed", 2.0, 2.5, 1, None],
                 ["forward_sde.log_wealth_matrix", 3.0, 5.0, 1, [4, 8192]],
                 ["forward_sde.check_truncation", 3.5, 4.0, 3, None],
                 ["brownian.mix_seed", 5.5, 6.0, 1, None],
                 ["forward_sde.log_wealth_matrix", 6.0, 6.5, 1, [2, 8192]]]
        fig = tracing.layer_figures(spans, 0, len(spans), chunks=2)
        self.assertEqual(fig["brownian.grid_points"], 8192)
        self.assertAlmostEqual(fig["montecarlo.pre_draw_ms"], 1e3)
        # estimate: 6 s minus children 0.5 + 2 + 0.5 + 0.5, over 2 pairs
        self.assertAlmostEqual(fig["montecarlo.self_us_per_pair"], 1.25e6)
        self.assertAlmostEqual(fig["forward_sde.log_wealth_us_per_pair"], 1e6)
        self.assertAlmostEqual(fig["brownian.mix_seed_us_per_pair"], 0.5e6)
        self.assertEqual(fig["forward_sde.log_wealth_calls"], 2)
        self.assertEqual(fig["forward_sde.rows_per_call"], 3)
        self.assertAlmostEqual(fig["forward_sde.mb_per_call"], 8e-6 * 4 * 8192)
        self.assertAlmostEqual(fig["forward_sde.check_truncation_ms"], 500)
        self.assertAlmostEqual(fig["trace.span_share"], 60.0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = BENCH / "out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gate_mix",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            self.assertFalse(last.startswith("{"), last)
        finally:
            shutil.rmtree(bare)

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.LAYER_UNITS)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
