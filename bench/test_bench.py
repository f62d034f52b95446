"""Self-tests of the benchmark (stdlib unittest).

    python3 -m unittest discover -s bench -p 'test_*.py'

Needs the sources under src/ for the tests that compute real answers.
"""

import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class StreamTests(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.stream(w, 7), workloads.stream(w, 7))

    def test_seed_changes_stream(self):
        for w in workloads.WORKLOADS:
            self.assertNotEqual(workloads.stream(w, 7)[0], workloads.stream(w, 8)[0])

    def test_composition_does_not_depend_on_seed(self):
        def cost_classes(ops):
            hist = {}
            for label, count in workloads.histogram(ops).items():
                key = label.split(" w=")[0]  # the CLI's light qtilde/schur-q ops
                hist[key] = hist.get(key, 0) + count
            return hist

        for w in workloads.WORKLOADS:
            for k in range(3):
                self.assertEqual(cost_classes(workloads.stream(w, 1)[k]),
                                 cost_classes(workloads.stream(w, 2)[k]), w)

    def test_lg_stream_holds_the_top_halves(self):
        first = workloads.stream("lg-products", 3)[0]
        for op in workloads.LG_MANDATED:
            self.assertIn(list(op), first)

    def test_every_drawable_op_has_a_reference_digest(self):
        for w in workloads.WORKLOADS:
            keys = {checks.op_key(op) for op in workloads.all_ops(w)}
            self.assertLessEqual(keys, set(GOLDEN[w]), w)
            for rnd in workloads.stream(w, 11)[:2]:
                self.assertLessEqual({checks.op_key(op) for op in rnd}, keys)
        rows = [op for ops in run.BASELINE_ROWS.values() for op, _ in ops]
        self.assertLessEqual({checks.op_key(op) for op in rows}, set(GOLDEN["baseline"]))

    def test_reuse_share(self):
        lg = workloads.stream("lg-products", 1)[0]
        self.assertGreater(workloads.reuse_share([lg]), 0.5)
        qb = workloads.stream("qtilde-build", 1)[0]
        self.assertEqual(workloads.reuse_share([qb]), 0.0)
        cli = workloads.stream("cli-cold", 1)[0]
        self.assertEqual(workloads.reuse_share([[op] for op in cli]), 0.0)


class GateTests(unittest.TestCase):
    def answer(self, op):
        return worker.canonical(op, worker.call(op))

    def test_true_answers_pass(self):
        for op in (["mul", "5,3,1", "4,2", "--n", "5"], ["pair", "5,2", "4,3,1", "--n", "5"],
                   ["qtilde", "5,4,3"], ["evaluate", "4,3,2,1", "--n", "4"]):
            w = "qtilde-build" if op[0] in ("qtilde", "evaluate") else "lg-products"
            self.assertIsNone(checks.check(GOLDEN[w], op, self.answer(op), True), op)

    def test_corrupted_output_is_a_failed_op(self):
        op = ["mul", "5,3,1", "4,2", "--n", "5"]
        good = self.answer(op)
        bad = good.replace('"coefficient": 1', '"coefficient": 2')
        self.assertNotEqual(good, bad)
        ops, exit_codes = [op, op], [0, 0]
        results = [[1, good, None], [1, bad, None]]
        failures = run.gate("lg-products", ops, results, exit_codes, GOLDEN["lg-products"], True)
        self.assertEqual([reason for _, reason in failures],
                         ["output differs from the reference digest"])

    def test_invariants_catch_wrong_answers_without_a_digest(self):
        pair = ["pair", "5,2", "4,3,1", "--n", "5"]
        self.assertIsNotNone(checks.invariant_failure(pair, '{"value": 0}', True))
        betti = ["betti", "--n", "3", "--json"]
        self.assertIsNone(checks.invariant_failure(betti, '{"betti": [1,1,1,2,1,1,1]}', False))
        self.assertIsNotNone(checks.invariant_failure(betti, '{"betti": [1,1,2,2,1,1,1]}', False))
        qt = ["qtilde", "2,1"]
        self.assertIsNone(checks.invariant_failure(qt, "c2*c1 - 2*c3", False))
        self.assertIsNotNone(checks.invariant_failure(qt, "c2*c1 - 2*c2", False))

    def test_expand_round_trip(self):
        import qschubert

        op = ["expand", "c1^3 - 2*t*Q[2]"]
        text = "Q[1,1,1] + 2*Q[2,1] + 4*Q[3] - 2*t*Q[2]\npositivity: negative coefficients at t*Q[2]\n"
        self.assertIsNone(checks.expand_failure(qschubert, op, text, False))
        wrong = text.replace("4*Q[3]", "3*Q[3]")
        self.assertEqual(checks.expand_failure(qschubert, op, wrong, False),
                         "expansion does not round-trip")
        lying = text.replace("negative coefficients at t*Q[2]", "nonnegative")
        self.assertIsNotNone(checks.expand_failure(qschubert, op, lying, False))

    def test_failed_exit_status_fails(self):
        op = ["betti", "--n", "8"]
        self.assertEqual(checks.check(GOLDEN["cli-cold"], op, "", False, 1), "exit status 1")


class StatisticsTests(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        for n in list(range(11, 300)) + [1000, 4321]:
            xs = list(range(n))
            value, pct, beyond = checks.tail(xs)
            self.assertEqual(sum(1 for x in xs if x > value), beyond)
            self.assertGreaterEqual(beyond, 10)
            self.assertEqual(beyond, 10)  # highest such percentile
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_tail_of_few_samples_is_the_maximum(self):
        self.assertEqual(checks.tail([3, 1, 2]), (3, 100.0, 0))

    def test_metric_names_match_benchmark_json(self):
        setup = {"setup_s": 0.05, "interp_start_ms": 20.0, "import_ms": 30.0}
        fake = {"results": [[i * 1000, "", None] for i in range(1, 40)], "stream_ns": 10 ** 9,
                "round_rss_kb": [30000]}
        metrics, _ = run.end_to_end(setup, fake)
        self.assertEqual(set(metrics), {m["name"] for m in SPEC["end_to_end"]})
        for m in SPEC["end_to_end"]:
            self.assertEqual(metrics[m["name"]][1], m["unit"])
            self.assertGreater(metrics[m["name"]][0], 0)


if __name__ == "__main__":
    unittest.main()
