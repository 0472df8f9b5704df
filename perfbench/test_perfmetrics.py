"""Tests of the benchmark's own arithmetic (no solver build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import perfmetrics as pm


class TailPercentileRule(unittest.TestCase):
    def test_p95_needs_200_samples(self):
        self.assertFalse(pm.tail_ok(199, 95))
        self.assertTrue(pm.tail_ok(200, 95))

    def test_median_needs_20_samples(self):
        self.assertFalse(pm.tail_ok(19, 50))
        self.assertTrue(pm.tail_ok(20, 50))

    def test_percentile_interpolates(self):
        xs = list(range(101))  # 0..100
        self.assertEqual(pm.percentile(xs, 95), 95)
        self.assertEqual(pm.percentile([1.0, 3.0], 50), 2.0)
        self.assertEqual(pm.percentile([], 95), 0.0)


class ShiftedGeomean(unittest.TestCase):
    def test_equal_values_give_that_value(self):
        self.assertAlmostEqual(pm.shifted_geomean([2.0] * 5, 10.0), 2.0)

    def test_known_value(self):
        # sqrt((1 + 1) * (7 + 1)) - 1 = 3
        self.assertAlmostEqual(pm.shifted_geomean([1.0, 7.0], 1.0), 3.0)

    def test_shift_damps_small_values(self):
        vals = [0.001, 1.0]
        self.assertLess(pm.shifted_geomean(vals, 0.0001),
                        pm.shifted_geomean(vals, 10.0))

    def test_empty(self):
        self.assertEqual(pm.shifted_geomean([]), 0.0)


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(pm.self_time((0.0, 5.0), []), 5.0)

    def test_disjoint_children(self):
        self.assertAlmostEqual(
            pm.self_time((0.0, 10.0), [(1.0, 2.0), (4.0, 7.0)]), 6.0)

    def test_overlapping_children_counted_once(self):
        self.assertAlmostEqual(
            pm.self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)]),
            5.0)

    def test_children_clipped_to_parent(self):
        self.assertAlmostEqual(
            pm.self_time((2.0, 6.0), [(0.0, 3.0), (5.0, 9.0)]), 2.0)

    def test_nested_spans_in_per_layer(self):
        # ug.run [0,10] > ugcip.step [1,4] > (grandchild [2,3]) and
        # ugcip.load [5,6]: only direct children count, so self = 6.
        spans = [["ug.run", 0.0, 10.0, -1, 0, -1, ""],
                 ["ugcip.step", 1.0, 4.0, 0, 0, 7, "cip"],
                 ["ugcip.query", 2.0, 3.0, 1, 0, -1, "cip"],
                 ["ugcip.load", 5.0, 6.0, 0, 0, -1, "cip"]]
        doc = {"workload": "stp-ug-sim", "records": []}
        m, _ = pm.per_layer(doc, spans)
        self.assertAlmostEqual(m["ug.self_s"], 6.0)
        self.assertEqual(m["lp.node_iters_max"], 7)
        self.assertAlmostEqual(m["ugcip.load_s"], 1.0)


class Efficiency(unittest.TestCase):
    def test_linear_speedup_is_one(self):
        self.assertAlmostEqual(pm.eff_16v4([4.0, 8.0], [1.0, 2.0]), 1.0)

    def test_slower_at_16(self):
        # 16 solvers take longer than 4: efficiency below 1/4.
        self.assertAlmostEqual(pm.eff_16v4([1.22], [1.87]),
                               1.22 * 4 / (1.87 * 16))

    def test_zero_denominator(self):
        self.assertEqual(pm.eff_16v4([1.0], []), 0.0)


class Ratios(unittest.TestCase):
    def test_zero_denominator_is_zero(self):
        self.assertEqual(pm.ratio(0, 0), 0.0)
        self.assertEqual(pm.ratio(5, 0), 0.0)

    def test_plain(self):
        self.assertEqual(pm.ratio(1, 4), 0.25)

    def test_bypassed_layers_report_zero(self):
        doc = {"workload": "stp-seq", "records": []}
        m, _ = pm.per_layer(doc, [])
        for name in pm.PER_LAYER_UNITS:
            self.assertEqual(m[name], 0.0, name)
            self.assertFalse(math.isnan(m[name]))


class Aggregation(unittest.TestCase):
    def rec(self, name, wall, exact, traced=False):
        return {"name": name, "wall_s": wall, "makespan_vs": 0.5,
                "traced": traced, "exact": exact, "layer": {}}

    def test_end_to_end_uses_per_instance_medians(self):
        recs = [self.rec("a", w, {}) for w in (1.0, 9.0, 2.0)]
        recs.append(self.rec("b", 3.0, {}))
        recs.append(self.rec("b", 100.0, {}, traced=True))
        doc = {"records": recs, "setup_s": [0.3, 0.1, 0.2],
               "peak_rss_mb": 12.0}
        m = pm.end_to_end(doc)
        self.assertAlmostEqual(m["solve_s"], 5.0)
        self.assertAlmostEqual(m["makespan_vs"], 1.0)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["solve_gm_s"],
                               pm.shifted_geomean([2.0, 3.0]))

    def test_nondeterminism_names_the_instance(self):
        recs = [self.rec("a", 1.0, {"nodes": 3}),
                self.rec("a", 1.0, {"nodes": 3}, traced=True),
                self.rec("b", 1.0, {"nodes": 3}),
                self.rec("b", 1.0, {"nodes": 4}, traced=True)]
        self.assertEqual(pm.nondeterminism(recs), ["b"])


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.exists():
            self.skipTest("BENCHMARK.json not present")
        spec = json.loads(path.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            pm.END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            pm.PER_LAYER_UNITS)


if __name__ == "__main__":
    unittest.main()
