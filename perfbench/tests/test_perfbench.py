"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(HERE)]

import child  # noqa: E402
import stats  # noqa: E402
from spans import LayerTotals, covered  # noqa: E402
from workloads import ENUMERATE_POOL, WORKLOADS, generate  # noqa: E402


def _spec(ops):
    return [(op.kind, op.argv, op.files, op.exit_code, op.check) for op in ops]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for workload in WORKLOADS:
            for seed in (0, 1, 7):
                self.assertEqual(_spec(generate(workload, seed)), _spec(generate(workload, seed)))

    def test_seeds_differ(self):
        for workload in ("plots", "query-mix"):
            self.assertNotEqual(_spec(generate(workload, 1)), _spec(generate(workload, 2)))

    def test_default_seed_is_the_roadmap_instance(self):
        (op,) = generate("enumerate-large", 0)
        self.assertEqual(json.loads(op.files["target"]), {"ch0": "3", "ch1": ["0", "20"], "ch2": "-2"})
        self.assertEqual(op.argv[op.argv.index("--alpha") + 1], "5")
        self.assertEqual(op.argv[op.argv.index("--u0") + 1], "1/2")
        self.assertEqual(ENUMERATE_POOL[0], (3, 20, -2, 5))

    def test_query_mix_rejections(self):
        codes = [op.exit_code for op in generate("query-mix", 3)]
        self.assertEqual((codes.count(1), codes.count(2)), (8, 4))
        self.assertFalse(set(codes) - {0, 1, 2})

    def test_no_jobs_flag(self):
        for workload in WORKLOADS:
            for op in generate(workload, 5):
                self.assertFalse(any(a.startswith("--jobs") for a in op.argv))


class StatsTest(unittest.TestCase):
    def test_percentile(self):
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(stats.percentile(range(1, 12), 90), 10)
        self.assertAlmostEqual(stats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 90), 9.1)
        self.assertEqual(stats.percentile([5, 1], 0), 1)
        self.assertEqual(stats.percentile([5, 1], 100), 5)
        self.assertEqual(stats.percentile([3.5], 90), 3.5)
        with self.assertRaises(ValueError):
            stats.percentile([], 50)

    def test_quartiles_match_the_statistics_module(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(stats.quartiles(values), (2.75, 5.5, 8.25))
        self.assertEqual(list(stats.quartiles(values)), statistics.quantiles(values, n=4))


class ClockTest(unittest.TestCase):
    def test_wall_time_is_scaled_by_the_neighbouring_calibrations(self):
        readings = iter([2 * child.CAL_REF_S, 4 * child.CAL_REF_S, child.CAL_REF_S])
        real_calibrate, real_share = child.calibrate, child.CAL_SHARE
        child.calibrate = lambda: next(readings)
        child.CAL_SHARE = 0  # one calibration per block
        try:
            clock = child.Clock.__new__(child.Clock)
            clock.samples = []
            clock.last = clock._block(0)
            self.assertAlmostEqual(clock.normalize(3.0), 1.0)  # calibrations 2x and 4x slow
            self.assertAlmostEqual(clock.normalize(5.0), 2.0)  # 4x and 1x
        finally:
            child.calibrate, child.CAL_SHARE = real_calibrate, real_share
        self.assertEqual(len(clock.samples), 3)

    def test_a_block_averages_its_calibrations(self):
        clock = child.Clock()
        self.assertGreater(len(clock.samples), 1)
        self.assertAlmostEqual(clock.last, sum(clock.samples) / len(clock.samples))


class SelfTimeTest(unittest.TestCase):
    NAMES = ["cli.main", "cli.build_parser", "destabilize.enumerate_destabilizers",
             "chern.character", "io.candidate_report_to_obj", "io.format_rational",
             "io.parse_rational"]

    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([(3, 8), (0, 5), (10, 12)], 0, 11), 9)
        self.assertEqual(covered([], 0, 10), 0)

    def test_synthetic_tree(self):
        spans = [
            [0, -1, 0, 100, False, None],   # cli.main
            [1, 0, 10, 30, False, None],    # build_parser
            [2, 0, 40, 80, False, 5],       # enumerate, 5 candidates
            [3, 2, 50, 60, False, None],    # chern.character
            [4, 0, 82, 95, False, None],    # report object
            [5, 4, 85, 90, False, None],    # format_rational: the caller's stage
            [6, 0, 96, 98, True, None],     # parse_rational raised into cli
        ]
        t = LayerTotals().add_op(spans, self.NAMES, 110)
        self.assertEqual(t.self_ns["cli.main"], 100 - 20 - 40 - 13 - 2)
        self.assertEqual(t.self_ns["cli.parse"], 20)
        self.assertEqual(t.self_ns["destabilize"], 30)
        self.assertEqual(t.self_ns["chern"], 10)
        self.assertEqual(t.self_ns["io.report"], 13)
        self.assertEqual(t.self_ns["io.parse"], 2)
        self.assertEqual(t.inclusive_ns["destabilize.enumerate"], 40)
        self.assertEqual(t.calls["destabilize.enumerate"], 1)
        self.assertEqual(t.notes["candidates"], 5)
        self.assertEqual(t.module_ns, {"cli": 45, "destabilize": 30, "chern": 10, "io": 15})
        self.assertEqual(sum(t.self_ns.values()), 100)
        self.assertEqual(t.unattributed_ns, 110 - (20 + 30 + 10 + 13 + 2))
        self.assertEqual(t.raised, {"io": 1})

    def test_scale_multiplies_every_time(self):
        spans = [[0, -1, 0, 100, False, None], [2, 0, 40, 80, False, 5], [3, 1, 50, 60, False, None]]
        t = LayerTotals().add_op(spans, self.NAMES, 110, scale=0.5)
        self.assertEqual(t.self_ns, {"cli.main": 30, "destabilize": 15, "chern": 5})
        self.assertEqual(t.inclusive_ns["destabilize.enumerate"], 20)
        self.assertEqual(t.unattributed_ns, 55 - 20)
        self.assertEqual(t.notes["candidates"], 5)

    def test_nested_calls_count_once_inclusive(self):
        names = ["walls.wall_lambda_q", "nslattice.elliptic_frame"]
        spans = [[0, -1, 0, 10, False, "value"], [1, 0, 2, 6, False, None],
                 [0, -1, 20, 25, False, "pole"]]
        t = LayerTotals().add_op(spans, names, 25)
        self.assertEqual(t.inclusive_ns["walls.lambda_q"], 15)
        self.assertEqual(t.calls["walls.lambda_q"], 2)
        self.assertEqual(t.inclusive_ns["nslattice.elliptic_frame"], 4)
        self.assertEqual((t.notes["value"], t.notes["pole"]), (1, 1))


class WrongOutputTest(unittest.TestCase):
    """A wrong output, injected in the harness between the program and the
    checks, counts as failed."""

    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
        self.addCleanup(shutil.rmtree, self.workdir)

    def test_broken_enumeration_fails_the_identity_check(self):
        kinds = [op.kind for op in generate("query-mix", 1)]
        target = kinds.index("destab-enumerate-small")

        def corrupt(j, attempt, out):
            if j != target:
                return out
            doc = json.loads(out)
            doc["candidates"][0]["complement"]["ch2"] = "12345"
            return json.dumps(doc)

        result = child.run("query-mix", 1, 0.01, False, self.workdir, corrupt=corrupt)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("+ complement != target", " ".join(result["problems"]))

    def test_changed_bytes_fail_the_seed_0_pin(self):
        kinds = [op.kind for op in generate("query-mix", 0)]
        target = kinds.index("transform")

        def corrupt(j, attempt, out):
            return out + " " if j == target else out

        result = child.run("query-mix", 0, 0.01, False, self.workdir, corrupt=corrupt)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 240)
        self.assertFalse(result["correct"])
        self.assertEqual(len(result["problems"]), 1)  # the pin, not the setup process


if __name__ == "__main__":
    unittest.main()
