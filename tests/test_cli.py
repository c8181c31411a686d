import json

import numpy as np
import pytest

from cases import CASES
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


def with_study(**study):
    return {**GAUSSIAN_SOLVE, "study": {"scheme": "ou", "n_list": [1], **study}}


class TestConfigErrors:
    @pytest.mark.parametrize("command, config, field", [
        ("solve", {**GAUSSIAN_SOLVE, "dual_degree": 0}, "dual_degree"),
        ("solve", {**GAUSSIAN_SOLVE, "dual_degree": "3"}, "dual_degree"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "dual_degree": 0}]},
         "battery[0].dual_degree"),
        ("study", with_study(threshold="abc"), "study.threshold"),
        ("study", with_study(n_list=[0, 2]), "study.n_list[0]"),
        ("study", with_study(n_list=["x"]), "study.n_list[0]"),
        ("solve", {**GAUSSIAN_SOLVE, "target": 5}, "target"),
        ("study", {**with_study(), "dual_degree": 0}, "dual_degree"),
        ("study", {**with_study(), "tolerances": {"identity": 1e-30}}, "tolerances"),
        ("study", {**with_study(), "name": "ignored"}, "name"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"max_iters": 2.5}}, "solver.max_iters"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"max_iters": True}}, "solver.max_iters"),
        ("solve", {**GAUSSIAN_SOLVE, "seed": "x"}, "config key seed"),
        ("solve", {**GAUSSIAN_SOLVE, "seed": -1}, "config key seed"),
        ("study", {**with_study(), "seed": "x"}, "config key seed"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "seed": -1}]}, "battery[0].seed"),
        ("battery", {"battery": [GAUSSIAN_SOLVE], "seed": "x"}, "config key seed"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"eig_floor": 2.0}},
         "unknown config key: solver.eig_floor"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"eig_floor": True}},
         "unknown config key: solver.eig_floor"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"eig_floor": -1.0}},
         "unknown config key: solver.eig_floor"),
        ("oracle", {"target": GAUSSIAN_SOLVE["target"], "seed": "x"}, "config key seed"),
        ("oracle", {"target": GAUSSIAN_SOLVE["target"], "seed": -3}, "config key seed"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"grad_tol_soft": True}},
         "unknown config key: solver.grad_tol_soft"),
        ("solve", {**GAUSSIAN_SOLVE, "tolerances": {"identity": True}},
         "config key tolerances.identity"),
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"grad_tol": float("nan")}},
         "config key solver.grad_tol"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "quartic-well", "a": True, "b": 0.0}},
         "config key target.a"),
        ("study", with_study(threshold=True), "study.threshold"),
        ("oracle", {"target": GAUSSIAN_SOLVE["target"], "grid": {"lo": True}}, "grid.lo"),
        ("battery", {"battery": [GAUSSIAN_SOLVE, 5]}, "expected an object at battery[1]"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "name": ["a"]}]}, "battery[0].name"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "name": "entry-1"}, GAUSSIAN_SOLVE]},
         "battery[1].name"),
        # json reads NaN / Infinity; a non-finite target parameter is a config error
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [float("nan")], "sigma": 1.0}},
         "invalid target: gaussian"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [0.5, 0.5],
                                                "means": [float("inf"), 0.0], "sigmas": [1.0, 1.0]}},
         "invalid target: mixture"),
        # an infinite sigma keeps f, grad and hess finite, so it is tested by itself
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [1.0], "sigma": float("inf")}},
         "invalid target: sigma is not finite"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [0.5, 0.5],
                                                "means": [-1.0, 1.0], "sigmas": [float("inf"), 1.0]}},
         "invalid target: mixture sigmas are not finite"),
        # quasi-newton is the only solver
        ("solve", {**GAUSSIAN_SOLVE, "solver": {"optimizer": "gradient-descent"}},
         "invalid solver: unknown optimizer"),
        # the finest reference is the largest n, so the rows need another n to compare
        ("study", with_study(n_list=[2], reference="finest"), "study.n_list"),
        # each quadrature kind takes its own keys only
        ("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "tensor-hermite", "level": 40,
                                                    "samples": 5, "seed": 3}},
         "unknown config key: quadrature.samples"),
        ("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "tensor-hermite", "level": 40,
                                                    "seed": 3}},
         "unknown config key: quadrature.seed"),
        ("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "monte-carlo", "samples": 500,
                                                    "level": 40}},
         "unknown config key: quadrature.level"),
        ("study", {**with_study(), "quadrature": {"kind": "tensor-hermite", "level": 40,
                                                  "samples": 5}},
         "unknown config key: quadrature.samples"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "quadrature": {"kind": "monte-carlo",
                                                                   "samples": 500, "level": 4}}]},
         "unknown config key: battery[0].quadrature.level"),
        # solve checks its name and dual_degree as a battery entry's
        ("solve", {**GAUSSIAN_SOLVE, "name": 5}, "config key name"),
        ("solve", {**GAUSSIAN_SOLVE, "name": None}, "config key name"),
        ("solve", {**GAUSSIAN_SOLVE, "name": ["a"]}, "config key name"),
        ("solve", {**GAUSSIAN_SOLVE, "dual_degree": None}, "config key dual_degree"),
        # a tabulated-1d table is checked before the spline is built
        *(("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "tabulated-1d", "xs": xs, "fs": fs}},
           f"invalid target: {message}") for xs, fs, message in [
            ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], "xs must be strictly increasing"),
            ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], "xs must be strictly increasing"),
            ([0.0], [1.0], "xs must contain at least 2 points"),
            ([0.0, 1.0, 2.0], [0.0, 1.0], "xs has 3 points but fs has 2"),
            ([0.0, 1.0, 2.0], [0.0, float("nan"), 1.0], "xs and fs must contain only finite"),
            ([0.0, 1.0, float("inf")], [0.0, 1.0, 1.0], "xs and fs must contain only finite"),
            ([0.0, 1.0, 2.0], [[0.0], [1.0], [2.0]], "xs and fs must be flat lists"),
        ]),
        # a negative tolerance or threshold fails even an exact result
        *(("solve", {**GAUSSIAN_SOLVE, "tolerances": {key: -1}},
           f"config key tolerances.{key} must be >= 0, got -1")
          for key in ("identity", "inequality", "trace", "variational_gap", "oracle")),
        ("battery", {"battery": [GAUSSIAN_SOLVE], "tolerances": {"oracle": -1e-3}},
         "config key tolerances.oracle must be >= 0"),
        ("study", with_study(threshold=-0.5), "study.threshold must be >= 0, got -0.5"),
        # the entry's seed (or --seed) is the one monte-carlo seed
        ("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "monte-carlo", "samples": 500,
                                                    "seed": 3}},
         "unknown config key: quadrature.seed"),
        # a per-axis parameter holds one value or one per axis (per component)
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [1.0, 0.0], "sigma": 2.0}},
         "invalid target: mean has 2 values, but dim = 1 allows 1"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [1.0], "sigma": [2.0, 1.0]}},
         "invalid target: sigma has 2 values, but dim = 1 allows 1"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [0.5, 0.5],
                                                "means": [-1.0, 0.0, 1.0], "sigmas": [1.0, 1.0]}},
         "invalid target: means has 3 values, but dim = 1 with 2 components allows 2"),
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "dim": 2, "target": {
            "kind": "mixture", "weights": [0.5, 0.5], "means": [-1.0, 1.0],
            "sigmas": [1.0, 1.0, 1.0]}}]},
         "invalid battery[0].target: sigmas has 3 values, but dim = 2 with 2 components allows 2 or 4"),
        # a tensor rule's dim limit names dim; its level limit, quadrature.level
        ("battery", {"battery": [{**GAUSSIAN_SOLVE, "dim": 5}]},
         "battery[0].dim: tensor-hermite quadrature is limited to dim <= 4"),
        # a target parameter holds numbers only
        *(("solve", {**GAUSSIAN_SOLVE, "target": target}, f"invalid target: {name} must contain only numbers")
          for name, target in [
            ("weights", {"kind": "mixture", "weights": "abc", "means": [0.0], "sigmas": [1.0]}),
            ("means", {"kind": "mixture", "weights": [0.5, 0.5], "means": [["a"], [0.5]],
                       "sigmas": [1.0, 1.0]}),
            ("sigmas", {"kind": "mixture", "weights": [0.5, 0.5], "means": [-0.5, 0.5],
                        "sigmas": [[0.8], ["x"]]}),
            ("xs", {"kind": "tabulated-1d", "xs": ["a", 1.0], "fs": [0.0, 1.0]}),
        ]),
        # beyond level 370 some Hermite weights underflow or are NaN
        *(("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "tensor-hermite", "level": level}},
           f"quadrature.level: tensor-hermite level {level} exceeds 370") for level in (371, 100000)),
        # JSON true is not the number 1, nor "2" the number 2
        *(("solve", {**GAUSSIAN_SOLVE, "target": target}, f"invalid target: {name} must contain only numbers")
          for name, target in [
            ("mean", {"kind": "gaussian", "mean": [True], "sigma": 2.0}),
            ("sigma", {"kind": "gaussian", "mean": [1.0], "sigma": True}),
            ("weights", {"kind": "mixture", "weights": [0.5, True], "means": [0.0], "sigmas": [1.0]}),
            ("means", {"kind": "mixture", "weights": [0.5, 0.5], "means": [[True], [0.5]],
                       "sigmas": [1.0, 1.0]}),
            ("sigmas", {"kind": "mixture", "weights": [0.5, 0.5], "means": [-0.5, 0.5],
                        "sigmas": [0.8, False]}),
            ("xs", {"kind": "tabulated-1d", "xs": [-8, -4, False, 4, 8], "fs": [0.0] * 5}),
            ("fs", {"kind": "tabulated-1d", "xs": [-8, -4, 0, 4, 8], "fs": [0.0, 1.0, True, 1.0, 0.0]}),
            ("mean", {"kind": "gaussian", "mean": ["1.0"], "sigma": 2.0}),
            ("sigma", {"kind": "gaussian", "mean": [1.0], "sigma": "2"}),
        ]),
        # a parameter that overflows f at the probe points: the config error
        # names it, and numpy warns of nothing on the way
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [1e300],
                                                "sigma": 1e-300}},
         "invalid target: gaussian: f, grad or hess is not finite"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [1.0],
                                                "means": [[1e300]], "sigmas": [[1.0]]}},
         "invalid target: mixture: f, grad or hess is not finite"),
        # a missing key, an unknown kind, a wrong shape of a study or battery key
        ("solve", {k: v for k, v in GAUSSIAN_SOLVE.items() if k != "target"},
         "missing config key: target"),
        ("solve", {**GAUSSIAN_SOLVE, "quadrature": {"kind": "sparse-grid", "level": 4}},
         "quadrature.kind must be 'tensor-hermite' or 'monte-carlo'"),
        ("solve", {**GAUSSIAN_SOLVE, "dim": 2, "target": {"kind": "tabulated-1d", "xs": [0.0, 1.0],
                                                          "fs": [0.0, 1.0]}},
         "target.kind: tabulated-1d requires dim = 1"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "cauchy"}},
         "target.kind: unknown target kind 'cauchy'"),
        ("study", with_study(n_list=4), "study.n_list must be a nonempty list"),
        ("study", with_study(reference="coarsest"), "study.reference must be 'raw' or 'finest'"),
        ("battery", {"battery": {"entries": [GAUSSIAN_SOLVE]}},
         "battery must be 'default' or a list of entries"),
        # mixture weights off the simplex, a zero sigma
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [0.3, 0.3],
                                                "means": [-1.0, 1.0], "sigmas": [1.0, 1.0]}},
         "invalid target: mixture weights must be positive and sum to 1"),
        ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "mixture", "weights": [0.5, 0.5],
                                                "means": [-1.0, 1.0], "sigmas": [0.0, 1.0]}},
         "invalid target: mixture sigmas must be positive"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_config_is_config_error(self, tmp_path, capsys, command, config, field):
        cfg = write_config(tmp_path, "cfg.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["solve", "study", "battery", "oracle"])
    def test_invalid_json_is_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"dim": 1,', encoding="utf-8")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_tolerances_are_valid(self, tmp_path):
        # 0 is a tolerance: the N(1, 4) solve runs to its report, where every
        # inequality still passes and the identities' rounding residuals fail
        tolerances = dict.fromkeys(["identity", "inequality", "trace", "variational_gap",
                                    "oracle"], 0)
        cfg = write_config(tmp_path, "cfg.json", {**GAUSSIAN_SOLVE, "tolerances": tolerances})
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 4
        checks = json.loads((tmp_path / "out" / "solve_report.json").read_text())[
            "diagnostics"]["checks"]
        inequalities = [c for c in checks if c["kind"] == "inequality"]
        assert inequalities and all(c["tolerance"] == 0.0 and c["passed"] for c in inequalities)


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

    @pytest.mark.parametrize("case", ["config-is-directory", "config-not-utf8", "out-is-file"])
    def test_unreadable_config_or_unwritable_out(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path, "cfg.json", GAUSSIAN_SOLVE)
        out = tmp_path / "out"
        if case == "config-is-directory":
            cfg = str(tmp_path)
        elif case == "config-not-utf8":
            (tmp_path / "cfg.json").write_bytes(b'{"dim": "\xff"}')
        else:
            out.write_text("not a directory", encoding="utf-8")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot ")
        assert (str(out) if case == "out-is-file" else cfg) in err

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", GAUSSIAN_SOLVE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "solve_report.json").read_bytes() == (out2 / "solve_report.json").read_bytes()
        assert (out1 / "solve_summary.txt").read_bytes() == (out2 / "solve_summary.txt").read_bytes()

    @pytest.mark.parametrize("index", [0, 9, 12])
    def test_run_entry_runs_one_conjugacy_solve(self, index, monkeypatch):
        import mongelab.solver_backward as sb
        from mongelab.cli import default_battery, run_entry
        from mongelab.diagnostics import CheckThresholds

        import mongelab.gaussian as ga
        import mongelab.potentials as po

        calls = []
        newton = sb.conjugacy_minimize

        def counting(phi, y):
            calls.append(len(y))
            return newton(phi, y)

        monkeypatch.setattr(sb, "conjugacy_minimize", counting)
        weighings = []
        weigh = ga.shifted_nu_weights

        def counting_weights(space, target):
            weighings.append(target.kind)
            return weigh(space, target)

        for module in (ga, po):
            monkeypatch.setattr(module, "shifted_nu_weights", counting_weights)
        outcome = run_entry(default_battery()[index], 0, CheckThresholds())
        assert outcome["report"].all_passed()
        assert len(calls) == 1
        assert len(weighings) == 1

    def test_skipped_check_has_a_skip_line(self, tmp_path):
        # the skipped-sobolev battery entry run as a solve (it stops
        # unconverged after 39 iterations, so it exits 3): the summary prints
        # the skipped Sobolev bound as a SKIP line
        entry = CASES["skipped-sobolev"][1]["battery"][0]
        out = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, "cfg.json", entry),
                     "--out", str(out)]) == 3
        lines = (out / "solve_summary.txt").read_text().splitlines()
        assert any(line.startswith("SKIP forward_sobolev_bound") for line in lines)

    def test_no_w2_reference_in_2d_quartic(self):
        # neither a gaussian nor 1d: wasserstein_check has no reference, so
        # the entry gets no wasserstein_vs_reference record
        from mongelab.cli import run_entry
        from mongelab.diagnostics import CheckThresholds

        outcome = run_entry({"dim": 2, "degree": 2,
                             "quadrature": {"kind": "tensor-hermite", "level": 8},
                             "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0}},
                            0, CheckThresholds())
        names = {r.name for r in outcome["report"].records}
        assert "error" not in outcome and "el_forward" in names
        assert "wasserstein_vs_reference" not in names

    def test_dual_fit_with_too_few_nu_mass_nodes_is_reported(self, tmp_path):
        entry = {
            "name": "quartic-dual-14",
            "dim": 1,
            "degree": 10,
            "dual_degree": 14,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
            "solver": {"max_iters": 3000},
        }
        cfg = write_config(tmp_path, "cfg.json", {"battery": [entry]})
        out = tmp_path / "out"
        assert main(["battery", "--config", cfg, "--out", str(out)]) == 4
        report = json.loads((out / "battery_report.json").read_text())
        assert report["entries"] == [{
            "name": "quartic-dual-14",
            "error": "DegenerateWeightError: dual fit has 14 nu-mass nodes for 15 unknowns",
        }]

    def test_error_after_the_solve_is_reported(self, tmp_path, capsys):
        # the forward solve converges, then the dual fit has 14 nu-mass nodes for 15 unknowns
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 1,
            "degree": 10,
            "dual_degree": 14,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
            "solver": {"max_iters": 3000},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 4
        error = "DegenerateWeightError: dual fit has 14 nu-mass nodes for 15 unknowns"
        assert capsys.readouterr().err == f"error: {error}\n"
        report = json.loads((out / "solve_report.json").read_text())
        assert report["error"] == error
        assert report["solve"]["converged"] is True
        assert "diagnostics" not in report
        summary = (out / "solve_summary.txt").read_text()
        assert summary.splitlines()[-1] == f"error: {error}"
        assert "converged=True" in summary

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
        # the report names the seed that drew the rule
        for report, seed in ((r1, 1), (r2, 2)):
            assert report["metadata"]["seed"] == seed
            assert f"seed={seed}," in report["metadata"]["quadrature"]


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

    def test_raw_reference_study_weighs_nu_once_per_solve(self, tmp_path, monkeypatch):
        # the seed-0 study-ou-2d workload config: the raw reference solve's
        # nu-weights serve the psi columns, so five solves weigh nu five times
        import mongelab.gaussian as ga
        import mongelab.potentials as po
        import mongelab.smoothing as sm

        weighings = []
        weigh = ga.shifted_nu_weights

        def counting_weights(space, target):
            weighings.append(target.kind)
            return weigh(space, target)

        for module in (ga, po, sm):
            monkeypatch.setattr(module, "shifted_nu_weights", counting_weights)
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 2,
            "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 12},
            "target": {"kind": "quartic-well", "a": 0.03, "b": 0.0},
            "study": {"scheme": "ou", "n_list": [1, 2, 4, 8], "threshold": 0.05},
        })
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(weighings) == 5

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

    def test_unconverged_reference_still_writes_reports(self, tmp_path, capsys):
        # five iterations cannot solve this quartic: the reference solve fails,
        # and the study still writes both files, with the error, and exits 4
        cfg = write_config(tmp_path, "cfg.json", {
            "dim": 1,
            "degree": 3,
            "quadrature": {"kind": "tensor-hermite", "level": 5},
            "target": {"kind": "quartic-well", "a": 0.03, "b": 10},
            "solver": {"max_iters": 5},
            "study": {"scheme": "ou", "n_list": [1, 2]},
        })
        out = tmp_path / "out"
        assert main(["study", "--config", cfg, "--out", str(out)]) == 4
        error = "MongelabError: solver did not converge"
        assert capsys.readouterr().err == f"error: {error}\n"
        assert (out / "study_table.csv").read_text() == (
            "n,grad_phi_err,psi_err,psi_err_smoothed,w2sq,status\n")
        report = json.loads((out / "study_report.json").read_text())
        assert report["rows"] == []
        assert report["error"] == error

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
        assert main(["battery", "--config", cfg, "--out", str(out)]) == 0
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
        # --threads is accepted and ignored, so it cannot change a byte
        main(["battery", "--config", cfg, "--out", str(out1)])
        main(["battery", "--config", cfg, "--out", str(out2), "--threads", "2"])
        for name in ("battery_report.json", "battery_summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_unnamed_entries_named_by_index(self, tmp_path):
        # the first entry's dual fit fails, the second finishes: both keep
        # their index name in the payload, the aggregate and the diagnostics
        quartic = {
            "dim": 1,
            "degree": 10,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
            "solver": {"max_iters": 3000},
        }
        cfg = write_config(tmp_path, "cfg.json",
                           {"battery": [{**quartic, "dual_degree": 14}, quartic]})
        out = tmp_path / "out"
        main(["battery", "--config", cfg, "--out", str(out)])
        report = json.loads((out / "battery_report.json").read_text())
        assert [e["name"] for e in report["entries"]] == ["entry-0", "entry-1"]
        assert report["aggregate"]["failed_entries"] == ["entry-0"]
        assert report["entries"][1]["diagnostics"]["metadata"]["name"] == "entry-1"


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

    @pytest.mark.parametrize("grid, tables", [({}, 1), ({"lo": -3.0, "hi": 3.0, "count": 601}, 2)])
    def test_default_grid_builds_one_density_table(self, tmp_path, monkeypatch, grid, tables):
        # W2 integrates the dumped map when it lies on the default grid
        import mongelab.oracle1d as oracle1d

        calls = []
        tabulate = oracle1d._nu_density_table

        def counting(target):
            calls.append(target.kind)
            return tabulate(target)

        monkeypatch.setattr(oracle1d, "_nu_density_table", counting)
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "quartic-well", "a": 0.05, "b": -0.2}, "grid": grid})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == tables

    def test_default_battery_builds_density_tables_for_quartics_only(self, tmp_path, monkeypatch):
        # a gaussian entry checks its map against the exact m + sigma x; a
        # quartic entry builds one table for the map check and one for W2
        import mongelab.cli as cli
        import mongelab.oracle1d as oracle1d

        running, calls = [], []
        tabulate, run_entry = oracle1d._nu_density_table, cli.run_entry

        def counting(target):
            calls.append(running[-1])
            return tabulate(target)

        def entry(cfg, *args, **kwargs):
            running.append(cfg["name"])
            return run_entry(cfg, *args, **kwargs)

        monkeypatch.setattr(oracle1d, "_nu_density_table", counting)
        monkeypatch.setattr(cli, "run_entry", entry)
        cfg = write_config(tmp_path, "cfg.json", {"battery": "default"})
        assert main(["battery", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(running) == 14
        quartics = [e["name"] for e in cli.default_battery() if e["target"]["kind"] != "gaussian"]
        assert calls == [name for name in quartics for _ in range(2)]

    @pytest.mark.parametrize("grid, field", [
        ({"count": 1}, "grid.count"),
        ({"hi": "nan"}, "config key grid.hi"),
        ({"lo": "-inf"}, "config key grid.lo"),
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

    def test_seed_flag_sets_the_config_seed(self, tmp_path, capsys):
        from mongelab.reports import config_hash

        config = {"target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
                  "grid": {"lo": -1.0, "hi": 1.0, "count": 3}}
        cfg = write_config(tmp_path, "cfg.json", config)
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["config_hash"] == config_hash({**config, "seed": 3})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "bad"),
                     "--seed", "-1"]) == 2
        assert "config key seed" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_requires_1d_target(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "gaussian", "mean": [1.0, 0.0], "sigma": 2.0},
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "invalid target: mean has 2 values, but dim = 1 allows 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target, error", [
        ({"kind": "gaussian", "mean": [0.0], "sigma": 0.001},
         "UnresolvedDensityError: density too narrow for the table step 0.004: the "
         "log-density changes by more than 1.0 between neighbouring points"),
        ({"kind": "quartic-well", "a": 1e-6, "b": -0.6},
         "NonIntegrableDensityError: density does not decay on the left"),
    ])
    def test_computation_error_still_writes_reports(self, tmp_path, capsys, target, error):
        cfg = write_config(tmp_path, "cfg.json", {"target": target})
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"
        assert (out / "oracle_table.csv").read_text() == "x,map,potential\n"
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["error"] == error
        assert "wasserstein2_sq" not in report
        assert report["target_kind"] == target["kind"]

    def test_far_tail_grid_still_writes_reports(self, tmp_path, capsys):
        # a grid point past the table's quantiles is named, not reported as a
        # map that is "not strictly increasing"
        error = ("UnresolvedDensityError: grid point -40.0 lies beyond the quantiles "
                 "the density table resolves")
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "gaussian", "mean": [0.0], "sigma": 1.0},
            "grid": {"lo": -40.0, "hi": 40.0, "count": 2001},
        })
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"
        assert (out / "oracle_table.csv").read_text() == "x,map,potential\n"
        assert json.loads((out / "oracle_report.json").read_text())["error"] == error
