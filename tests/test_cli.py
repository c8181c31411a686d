import json

import numpy as np
import pytest

from mongelab.cli import main


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


GAUSSIAN_SOLVE = {
    "dim": 1,
    "degree": 2,
    "quadrature": {"kind": "tensor-hermite", "level": 60},
    "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
    "seed": 0,
}


class TestSolveCommand:
    def test_gaussian_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", GAUSSIAN_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["solve"]["wasserstein2_sq"] == pytest.approx(2.0, abs=1e-6)
        assert report["solve"]["converged"]
        names = {c["name"] for c in report["diagnostics"]["checks"]}
        assert "oracle_map_agreement" in names
        assert (out / "solve_summary.txt").exists()

    def test_flat_target_trivial(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            **GAUSSIAN_SOLVE,
            "target": {"kind": "gaussian", "mean": [0.0], "sigma": 1.0},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solve_report.json").read_text())
        assert report["solve"]["objective"] == pytest.approx(0.0, abs=1e-12)

    def test_too_low_degree_flags_gap(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {**GAUSSIAN_SOLVE, "degree": 1})
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
        # report still written, with the gap check failed
        report = json.loads((out / "solve_report.json").read_text())
        gap = [c for c in report["diagnostics"]["checks"] if c["name"] == "variational_gap"]
        assert gap[0]["passed"] is False

    def test_not_converged_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            **GAUSSIAN_SOLVE,
            "solver": {"max_iters": 1},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 3

    def test_bad_optimizer_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            **GAUSSIAN_SOLVE,
            "solver": {"optimizer": "adam"},
        })
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {**GAUSSIAN_SOLVE, "degreee": 3})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "degreee" in capsys.readouterr().err

    def test_nested_unknown_key(self, tmp_path, capsys):
        bad = {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [0.0], "sig": 1.0}}
        cfg = write_config(tmp_path, "cfg.json", bad)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "target.sig" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", GAUSSIAN_SOLVE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solve_report.json").read_bytes() == (out2 / "solve_report.json").read_bytes()
        assert (out1 / "solve_summary.txt").read_bytes() == (out2 / "solve_summary.txt").read_bytes()

    def test_seed_override_changes_monte_carlo(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 5,
            "degree": 1,
            "quadrature": {"kind": "monte-carlo", "samples": 2000},
            "target": {"kind": "gaussian", "mean": [0.3, 0.3, 0.3, 0.3, 0.3], "sigma": 1.0},
            "tolerances": {"identity": 0.5, "variational_gap": 0.5, "oracle": 1.0},
        })
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        r1 = json.loads((out1 / "solve_report.json").read_text())
        r2 = json.loads((out2 / "solve_report.json").read_text())
        assert r1["solve"]["objective"] != r2["solve"]["objective"]
        assert r1["metadata"]["seed"] == 1


class TestStudyCommand:
    def test_ou_study_decreasing(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 1,
            "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 40},
            "target": {"kind": "gaussian", "mean": [0.3], "sigma": 1.3},
            "study": {"scheme": "ou", "n_list": [1, 2, 4, 8, 16, 32, 64], "threshold": 0.01},
        })
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "study_table.csv").read_text().splitlines()
        assert lines[0] == "n,grad_phi_err,psi_err,psi_err_smoothed,w2sq,status"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.01

    def test_single_row_equals_plain_solve(self, tmp_path):
        # n large enough that the smoothed target is numerically the raw one
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 1,
            "degree": 2,
            "quadrature": {"kind": "tensor-hermite", "level": 40},
            "target": {"kind": "gaussian", "mean": [0.3], "sigma": 1.3},
            "study": {"scheme": "ou", "n_list": [100000], "threshold": 0.001},
        })
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "study_report.json").read_text())
        assert report["rows"][0]["grad_phi_err"] <= 1e-4

    def test_failed_rows_flagged_study_completes(self, tmp_path):
        # harsh truncation rows (n <= 3) stall at high degree; the study
        # still completes and the finest row decides the exit code
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 1,
            "degree": 10,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
            "solver": {"max_iters": 3000},
            "study": {"scheme": "truncation", "n_list": [2, 6, 12], "threshold": 0.02},
        })
        out = tmp_path / "out"
        code = main(["study", "--config", cfg, "--out", str(out)])
        lines = (out / "study_table.csv").read_text().splitlines()
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert any(s.startswith("failed") for s in statuses)
        assert statuses[-1] == "ok"
        assert code == 0

    def test_bad_scheme_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            **GAUSSIAN_SOLVE,
            "study": {"scheme": "fourier", "n_list": [1]},
        })
        assert main(["study", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "scheme" in capsys.readouterr().err


class TestBatteryCommand:
    def test_default_battery_passes(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"battery": "default", "seed": 0})
        out = tmp_path / "out"
        assert main(["battery", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        report = json.loads((out / "battery_report.json").read_text())
        agg = report["aggregate"]
        assert all(v >= -1e-6 for v in agg["min_inequality_slack"].values())
        assert agg["max_oracle_sup_error"] <= 1e-3
        assert not agg["failed_entries"]
        assert len(report["entries"]) == 14

    def test_empty_battery_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {"battery": []})
        assert main(["battery", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_not_applicable_entry_skipped_others_pass(self, tmp_path):
        # one non-semiconvex target: the Sobolev check is skipped and
        # recorded; identity tolerances are relaxed for its hard map
        entries = [
            {
                "name": "gaussian-easy",
                "dim": 1,
                "degree": 2,
                "quadrature": {"kind": "tensor-hermite", "level": 60},
                "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
            },
            {
                "name": "bimodal",
                "dim": 1,
                "degree": 10,
                "quadrature": {"kind": "tensor-hermite", "level": 30},
                "target": {"kind": "mixture", "weights": [0.5, 0.5],
                            "means": [[-0.7], [0.7]], "sigmas": [[0.6], [0.6]]},
                "solver": {"max_iters": 3000},
            },
        ]
        cfg = write_config(tmp_path, "cfg.json", {
            "battery": entries,
            "tolerances": {"identity": 0.2, "variational_gap": 0.01, "oracle": 0.1},
        })
        out = tmp_path / "out"
        main(["battery", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "battery_report.json").read_text())
        skipped = report["aggregate"]["skipped_checks"]
        assert any(s["entry"] == "bimodal" and s["check"] == "forward_sobolev_bound"
                   for s in skipped)
        bimodal = [e for e in report["entries"] if e["name"] == "bimodal"][0]
        explicit_fails = [c for c in bimodal["diagnostics"]["checks"] if c["passed"] is False]
        assert not explicit_fails

    def test_battery_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"battery": "default", "seed": 0})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["battery", "--config", cfg, "--out", str(out1), "--threads", "1"])
        main(["battery", "--config", cfg, "--out", str(out2), "--threads", "3"])
        assert (out1 / "battery_report.json").read_bytes() == (out2 / "battery_report.json").read_bytes()


class TestOracleCommand:
    def test_table_dump(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
            "grid": {"lo": -4.0, "hi": 4.0, "count": 81},
        })
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "oracle_table.csv").read_text().splitlines()
        assert lines[0] == "x,map,potential"
        assert len(lines) == 82
        xs, ts, _ = zip(*(map(float, line.split(",")) for line in lines[1:]))
        np.testing.assert_allclose(ts, 2 * np.array(xs) + 1, atol=1e-8)
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["wasserstein2_sq"] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("grid, field", [
        ({"count": 1}, "grid.count"),
        ({"hi": "nan"}, "grid.lo and grid.hi"),
        ({"lo": "-inf"}, "grid.lo and grid.hi"),
        ({"lo": 2.0, "hi": 2.0}, "grid.lo and grid.hi"),
        ({"lo": 3.0, "hi": -3.0}, "grid.lo and grid.hi"),
    ])
    def test_bad_grid_is_config_error(self, tmp_path, capsys, grid, field):
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
            "grid": grid,
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_requires_1d_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "gaussian", "mean": [1.0, 0.0], "sigma": 2.0},
        })
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path)])
        assert code in (2, 4)
