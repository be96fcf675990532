"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Run from the checkout root. Covers seeded spec generation, the failure
checks (an injected wrong eigenvalue must fail), the compare verdicts and
the span arithmetic behind the per-layer metrics.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import specs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _digests(entries):
    return [(specs.spec_digest(e["spec"]), e.get("bump")) for e in entries]


class SeededSpecs(unittest.TestCase):
    def test_same_seed_gives_identical_specs(self):
        for workload in run.WORKLOADS:
            a = _digests(specs.run_specs(workload, 7))
            b = _digests(specs.run_specs(workload, 7))
            self.assertEqual(a, b, workload)

    def test_other_seed_changes_const_specs(self):
        a = _digests(specs.run_specs("const-deep", 7))
        b = _digests(specs.run_specs("const-deep", 8))
        self.assertFalse(set(a) & set(b))

    def test_const_specs_cover_every_case_and_interface_count(self):
        from sltrans import classify_case

        entries = specs.run_specs("const-deep", 3)
        cases = {classify_case(e["spec"]) for e in entries}
        counts = {len(e["spec"].interfaces) for e in entries}
        self.assertEqual(len(cases), 4)
        self.assertEqual(counts, {1, 2, 3, 4})
        self.assertTrue(any(d < 0 for e in entries for d in e["spec"].jumps))

    def test_frozen_pool_matches_generator(self):
        for workload, size in specs.POOLS.items():
            frozen = workloads.load_frozen(workload)
            self.assertEqual(sorted(frozen), list(range(size)))
            for i in range(size):
                self.assertEqual(specs.spec_digest(specs.pool_spec(workload, i)),
                                 frozen[i]["spec_sha256"])


class Checks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.n = 20
        entry = specs.run_specs("const-deep", 5)[0]
        with tempfile.TemporaryDirectory() as tmp:
            (row,) = run.problem_files([entry], Path(tmp))
            cls.rec = workloads.request("const-deep", row, cls.n, Path(tmp))
        oracles = workloads.load_oracles(ROOT)
        cls.ref = workloads.oracle_eigenvalues(oracles, entry["spec"], cls.n)

    def _rec(self, **changes):
        rec = {"lams": list(self.rec["lams"]), "resid": dict(self.rec["resid"])}
        rec.update(changes)
        return rec

    def test_correct_answer_passes(self):
        fail, dlam = workloads.check("const-deep", self._rec(), self.n, self.ref)
        self.assertIsNone(fail)
        self.assertLess(dlam, workloads.ORACLE_TOL)

    def test_injected_wrong_eigenvalue_fails(self):
        lams = list(self.rec["lams"])
        lams[7] *= 1.0 + 1e-8
        for workload in ("const-deep", "poly-expand"):
            fail, _ = workloads.check(workload, self._rec(lams=lams), self.n, self.ref)
            self.assertEqual(fail, "reference", workload)

    def test_missing_eigenvalue_fails(self):
        fail, _ = workloads.check("const-deep", self._rec(lams=self.rec["lams"][1:]),
                                  self.n, self.ref)
        self.assertEqual(fail, "count")

    def test_residual_gram_and_exit_code_fail(self):
        resid = dict(self.rec["resid"], omega_scaled=1e-6)
        cases = {"residual:omega_scaled": self._rec(resid=resid),
                 "gram": self._rec(gram_off=1e-3),
                 "expand": self._rec(expand_ok=False),
                 "exit_code=2": {"exit_code": 2}}
        for want, rec in cases.items():
            self.assertEqual(workloads.check("poly-expand", rec, self.n, self.ref)[0], want)

    def test_failed_request_counts_against_attempted(self):
        good = {"s": 1.0, "fail": None, "dlam": 1e-15, "resid": {"bc_left": 1e-14}}
        bad = {"s": 3.0, "fail": "SuspectedMissedRoot", "dlam": float("nan")}
        # the machine ran at half the reference speed
        res = {"records": [good, bad], "peak_rss_mb": 100.0, "speed_factor": 0.5}
        metrics, _, calibration = run.end_to_end("const-deep", res, (0.5, 1.0, 0.5))
        self.assertEqual(metrics["pass_rate"][0], 0.5)
        # the failed request's time counts in throughput, not in the median
        self.assertAlmostEqual(metrics["eigenpairs_per_s"][0], 200 / 2.0)
        self.assertAlmostEqual(metrics["request_s.p50"][0], 0.5)
        self.assertAlmostEqual(calibration["wall"]["request_s.p50"], 1.0)
        self.assertEqual(metrics["setup_s"][0], 0.5)
        self.assertAlmostEqual(metrics["dlam_digits"][0], 15.0)
        self.assertAlmostEqual(metrics["residual_digits"][0], 14.0)

    def test_exception_classes_are_named(self):
        from sltrans import RhoNotPositive, SuspectedMissedRoot

        self.assertEqual(workloads.error_name(RhoNotPositive("x")), "ProblemError")
        self.assertEqual(workloads.error_name(SuspectedMissedRoot("x")), "SuspectedMissedRoot")
        self.assertEqual(workloads.error_name(KeyError("x")), "KeyError")


class CompareVerdicts(unittest.TestCase):
    METRIC = {"name": "request_s.p50", "better": "lower", "bound": 0.1}
    PARENT = [1.0 + 0.01 * k for k in range(10)]

    def test_faster_change_is_a_gain(self):
        change = [v * 0.8 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.METRIC, self.PARENT, change, False, False),
                         "gain")

    def test_more_failures_or_moved_speed_factor_override_a_gain(self):
        change = [v * 0.8 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.METRIC, self.PARENT, change, True, False),
                         "worse")
        self.assertEqual(compare.verdict(self.METRIC, self.PARENT, change, False, True),
                         "unresolved")

    def test_slower_change_is_worse(self):
        change = [v * 1.2 for v in self.PARENT]
        self.assertEqual(compare.verdict(self.METRIC, self.PARENT, change, False, False),
                         "worse")

    def test_speed_factor_moves_only_beyond_both_spreads(self):
        factors = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.08, 0.92]
        self.assertFalse(compare.speed_moved(factors, [f * 1.03 for f in factors]))
        self.assertTrue(compare.speed_moved(factors, [f * 1.3 for f in factors]))


def _span(sid, name, parent, start, end, leaves=None, **counts):
    sp = tracing.Span(sid, name, parent, 0, start, end, counts)
    sp.leaves = leaves or {}
    return sp


class SpanArithmetic(unittest.TestCase):
    """A synthetic request with known times; every number is hand-computed."""

    def setUp(self):
        self.spans = [
            _span(0, "request", None, 0.0, 10.0),
            _span(1, "eigensolve.find_eigenvalues", 0, 1.0, 9.0, roots=2),
            _span(2, "characteristic.omega", 1, 2.0, 4.0, lam_points=50),
            _span(3, "propagator.propagate_piece", 2, 2.5, 3.5,
                  {"problem.evaluate": [3, 0.5, 600, 400]}, lam_points=50),
            _span(4, "eigensolve.build_eigenpair", 1, 5.0, 8.0),
            _span(5, "ode.shoot", 4, 5.5, 7.0, {"problem.evaluate": [10, 1.0, 10, 1]}),
            _span(6, "asymptotics.nearest_index", 1, 8.2, 8.6),
            _span(7, "asymptotics._base_angle", 6, 8.3, 8.4),
        ]

    def test_self_times(self):
        selfs = tracing.self_times(self.spans)
        want = {0: 2.0, 1: 8.0 - 2.0 - 3.0 - 0.4, 2: 1.0, 3: 0.5, 4: 1.5,
                5: 0.5, 6: 0.3, 7: 0.1}
        for sid, value in want.items():
            self.assertAlmostEqual(selfs[sid], value, msg=str(sid))

    def test_request_metrics(self):
        m = tracing.request_metrics(self.spans)
        self.assertAlmostEqual(m["trace.request_s"], 10.0)
        self.assertEqual(m["problem.evaluate.calls"], 13)
        self.assertEqual(m["problem.evaluate.points"], 610)
        self.assertAlmostEqual(m["problem.evaluate.s"], 1.5)
        self.assertEqual(m["ode.rhs_evals"], 10)
        self.assertEqual(m["propagator.magnus_steps"], 300)
        self.assertAlmostEqual(m["propagator.batch_mb"], 200 * 50 * 32 / 2 ** 20)
        self.assertEqual(m["eigensolve.refine.omega_calls"], 1)
        self.assertAlmostEqual(m["eigensolve.refine.s"], 2.0)
        self.assertAlmostEqual(m["eigensolve.build_eigenpair.share"], 0.3)
        self.assertAlmostEqual(m["eigensolve.find_eigenvalues.self_s"], 2.6)
        self.assertAlmostEqual(m["propagator_ode.share"], (1.0 + 1.5) / 10.0)
        self.assertAlmostEqual(m["asymptotics.s"], 0.4)
        self.assertEqual(set(m) | {"trace.overhead_s", "problem.load_validate.s"},
                         set(tracing.LAYER_UNITS))


class TracerInstall(unittest.TestCase):
    def test_wrappers_record_and_restore(self):
        import sltrans
        from sltrans import eigensolve, propagator
        from sltrans.problem import PotentialPiece

        originals = (eigensolve.omega, propagator.propagate_piece, PotentialPiece.evaluate)
        spec = specs.run_specs("poly-expand", 1)[0]["spec"]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            root = tracer.open("request")
            sltrans.eigensolve.find_eigenvalues(spec, 3)
            tracer.close(root)
        finally:
            tracer.uninstall()
        self.assertEqual((eigensolve.omega, propagator.propagate_piece,
                          PotentialPiece.evaluate), originals)
        (spans,) = tracing.split_requests(tracer.spans)
        m = tracing.request_metrics(spans)
        self.assertEqual(m["eigensolve.build_eigenpair.calls"], 3)
        self.assertEqual(m["ode.shoot.calls"], 6)
        self.assertGreater(m["ode.rhs_evals"], 0)
        self.assertGreater(m["propagator.magnus_steps"], 0)
        self.assertGreater(m["eigensolve.refine.omega_calls"], 0)


if __name__ == "__main__":
    unittest.main()
