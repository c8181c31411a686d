"""Self-tests of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

They cover failure accounting, self-time arithmetic and the removal of
every tracing wrapper, plus one tiny traced CLI call as a smoke test.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from layers import operation_metrics  # noqa: E402
from run import check_operation, percentile_summary, run_operation  # noqa: E402
from tracer import WRAPPED, Span, Tracer, covered, find_wrappers, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FailureAccounting(unittest.TestCase):
    def test_raising_operation_is_failed_and_timed(self):
        def main(argv):
            time.sleep(0.02)
            raise ValueError("boom")

        rec = run_operation(main, [], 7)
        self.assertFalse(rec.ok)
        self.assertEqual(rec.error, "ValueError")
        self.assertGreaterEqual(rec.wall_s, 0.02)
        self.assertIsNone(rec.exit_code)

    def test_nonzero_exit_is_failed_with_the_cli_error_name(self):
        def main(argv):
            print("error: SingularJacobianError: floor", file=sys.stderr)
            return 4

        rec = run_operation(main, [], 0)
        self.assertEqual((rec.exit_code, rec.error), (4, "SingularJacobianError"))

    def test_missing_report_fails_the_operation(self):
        rec = run_operation(lambda argv: 0, [], 0)
        with tempfile.TemporaryDirectory() as tmp:
            check_operation(rec, WORKLOADS["gaussian-3d"], {}, Path(tmp), None)
        self.assertEqual(rec.error, "NoReport")

    def test_unreadable_report_fails_the_operation(self):
        rec = run_operation(lambda argv: 0, [], 0)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "solve_report.json").write_text("{not json")
            (out / "solve_summary.txt").write_text("x\n")
            check_operation(rec, WORKLOADS["gaussian-3d"], {}, out, None)
        self.assertEqual(rec.error, "BadReport")

    def test_witness_past_tolerance_fails_the_operation(self):
        checks = [{"name": "variational_gap", "lhs": 1.0, "rhs": 0.5, "tolerance": 1e-5},
                  {"name": "el_forward", "lhs": 0.0, "rhs": 0.0, "tolerance": 1e-3},
                  {"name": "el_backward", "lhs": 0.0, "rhs": 0.0, "tolerance": 1e-3}]
        rec = run_operation(lambda argv: 0, [], 0)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "solve_report.json").write_text(json.dumps(
                {"diagnostics": {"checks": checks}, "solve": {"converged": True}}))
            (out / "solve_summary.txt").write_text("x\n")
            check_operation(rec, WORKLOADS["gaussian-3d"], {}, out, None)
        self.assertEqual(rec.error, "WitnessFailed")

    def test_report_bytes_differing_from_the_first_fail(self):
        rec = run_operation(lambda argv: 0, [], 1)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            (out / "study_report.json").write_text(json.dumps(
                {"rows": [{"n": 1, "grad_phi_err": 0.01, "status": "ok"}]}))
            (out / "study_table.csv").write_text("n\n1\n")
            first = {"study_report.json": b"{}", "study_table.csv": b"n\n1\n"}
            config = {"study": {"threshold": 0.05, "n_list": [1]}}
            check_operation(rec, WORKLOADS["study-ou-2d"], config, out, first)
        self.assertEqual(rec.error, "NondeterministicReport")

    def test_percentile_needs_ten_samples_beyond(self):
        self.assertNotIn("p0", percentile_summary([1.0] * 10))
        summary = percentile_summary([float(i) for i in range(20)])
        self.assertEqual(summary["p50"], 9.0)


class SelfTime(unittest.TestCase):
    def test_union_of_children(self):
        self.assertEqual(covered((0, 10), [(1, 4), (3, 6), (8, 12)]), 7)
        self.assertEqual(covered((0, 10), []), 0)

    def test_nested_and_overlapping_spans(self):
        spans = [
            Span(1, 0, "cli.main", 0.0, 10.0),
            Span(2, 0, "cli.run_entry", 1.0, 4.0, parent=1),
            Span(3, 0, "cli.run_entry", 3.0, 6.0, parent=1),   # another thread
            Span(4, 0, "hermite.grad_table", 2.0, 3.0, parent=2),
            Span(5, 0, "kernel.inv", 3.5, 5.5, parent=3),
        ]
        self.assertEqual(self_times(spans), {1: 5.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.0})

    def test_layer_metrics_from_synthetic_spans(self):
        spans = [
            Span(1, 0, "cli.main", 0.0, 10.0),
            Span(2, 0, "solver_forward.solve", 1.0, 9.0, parent=1,
                 info={"iterations": 3, "accepted": 2, "converged": True}),
            Span(3, 0, "solver_forward.evaluate", 2.0, 4.0, parent=2,
                 info={"infeasible": False}),
            Span(4, 0, "solver_forward.evaluate", 5.0, 6.0, parent=2,
                 info={"infeasible": True}),
            Span(5, 0, "kernel.eigvalsh", 2.5, 3.5, parent=3, info={"rows": 8, "bytes": 64}),
        ]
        m = operation_metrics(spans, threads=1)
        self.assertEqual(m["solver_forward.objective_evals"], 2)
        self.assertEqual(m["solver_forward.infeasible_evals"], 1)
        self.assertEqual(m["solver_forward.accepted_ratio"], 1.0)
        self.assertEqual(m["kernel.self_s"], 1.0)
        self.assertEqual(m["solver_forward.self_s"], 7.0)
        self.assertEqual(m["busy_s"], 10.0)


class Wrappers(unittest.TestCase):
    def _snapshot(self):
        import numpy

        import mongelab.cli  # noqa: F401  (loads every module the CLI uses)
        from tracer import _package_modules

        owners = _package_modules() + [numpy.linalg]
        snap = {}
        for owner in owners:
            for key, value in vars(owner).items():
                snap[(owner.__name__, key)] = value
                if isinstance(value, type) and value.__module__ == owner.__name__:
                    for attr, member in vars(value).items():
                        snap[(owner.__name__, key, attr)] = member
        return snap

    def test_uninstall_restores_every_object(self):
        import mongelab.cli

        before = self._snapshot()
        tracer = Tracer()
        with tracer:
            self.assertTrue(hasattr(mongelab.cli.run_entry, WRAPPED))
            self.assertTrue(len(find_wrappers()) > 50)
        self.assertEqual(find_wrappers(), [])
        after = self._snapshot()
        changed = [k for k in before if after.get(k) is not before[k]]
        self.assertEqual(changed, [])

    def test_traced_cli_call_records_layers(self):
        import mongelab.cli

        tmp = Path(tempfile.mkdtemp())
        try:
            cfg = tmp / "cfg.json"
            cfg.write_text(json.dumps({
                "dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 20},
                "target": {"kind": "gaussian", "mean": [0.5], "sigma": 1.5}}))
            tracer = Tracer()
            with tracer:
                root = tracer.begin_operation(0, "cli.main:solve")
                rec = run_operation(mongelab.cli.main,
                                    ["solve", "--config", str(cfg), "--out", str(tmp)], 0)
                tracer.end_operation(root)
            self.assertTrue(rec.ok, rec.details)
            m = operation_metrics(tracer.spans, threads=1)
            self.assertEqual(m["solver_forward.solves"], 1)
            self.assertEqual(m["oracle1d.map_calls"], 1)
            self.assertGreater(m["oracle1d.brentq_calls"], 0)
            self.assertGreater(m["kernel.eigvalsh.calls"], 0)
            self.assertGreater(m["targets.eval_calls"], 0)
            self.assertAlmostEqual(m["busy_s"], m["wall_s"], places=9)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
