import json

import numpy as np
import pytest

from cases import CASES, CONFIG_ERRORS, GAUSSIAN_SOLVE, QUARTIC_10
from mongelab.cli import main


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestConfigErrors:
    @pytest.mark.parametrize("command, config, field", CONFIG_ERRORS)
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

    def test_w2_record_reads_the_identity_tolerance(self):
        # wasserstein_vs_reference is an identity record like the others
        from mongelab.cli import build_thresholds, run_entry

        outcome = run_entry(GAUSSIAN_SOLVE, 0, build_thresholds({"identity": 1e-12}))
        tolerance = {r.name: r.tolerance for r in outcome["report"].records}
        assert tolerance["wasserstein_vs_reference"] == tolerance["el_forward"] == 1e-12

    def test_dual_fit_with_too_few_nu_mass_nodes_is_reported(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", CASES["battery-error"][1])
        out = tmp_path / "out"
        assert main(["battery", "--config", cfg, "--out", str(out)]) == 4
        report = json.loads((out / "battery_report.json").read_text())
        assert report["entries"][0] == {
            "name": "quartic-dual-14",
            "error": "DegenerateWeightError: dual fit has 14 nu-mass nodes for 15 unknowns",
        }
        assert report["aggregate"]["failed_entries"] == ["quartic-dual-14"]

    def test_error_after_the_solve_is_reported(self, tmp_path, capsys):
        # the forward solve converges, then the dual fit has 14 nu-mass nodes for 15 unknowns
        cfg = write_config(tmp_path, "cfg.json", CASES["dual-error"][1])
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

    def test_study_builds_its_rule_once(self, tmp_path, count_calls):
        # the four smoothed targets integrate over the study's own 2d rule
        from mongelab.gaussian import GaussianSpace

        builds = count_calls(GaussianSpace, "tensor_hermite")
        cfg = write_config(tmp_path, "cfg.json", CASES["study-ou-2d"][1])
        assert main(["study", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert builds == [(2, 12)]

    def test_failed_rows_flagged_study_completes(self, tmp_path):
        # harsh truncation rows (n <= 3) stall at high degree; the study
        # still completes and the finest row decides the exit code
        cfg = write_config(tmp_path, "cfg.json", {**QUARTIC_10, "study": {
            "scheme": "truncation", "n_list": [2, 6, 12], "threshold": 0.02}})
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
            {**QUARTIC_10, "name": "bimodal",
             "target": {"kind": "mixture", "weights": [0.5, 0.5],
                        "means": [[-0.7], [0.7]], "sigmas": [[0.6], [0.6]]}},
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

    def test_default_battery_builds_each_rule_once(self, tmp_path, count_calls):
        # 14 entries on 3 rules: nine at (dim 1, level 60), three at (1, 30),
        # two at (2, 40); entries on one rule solve on the same object
        import mongelab.cli as cli
        from mongelab.gaussian import GaussianSpace

        builds = count_calls(GaussianSpace, "tensor_hermite")
        solves = count_calls(cli, "solve")
        cfg = write_config(tmp_path, "cfg.json", {"battery": "default"})
        assert main(["battery", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert builds == [(1, 60), (1, 30), (2, 40)]
        spaces = [args[0] for args in solves]
        assert [spaces.index(space) for space in spaces] == [0] * 9 + [9] * 3 + [12] * 2
        assert len({id(space) for space in spaces}) == 3

    def test_battery_shares_a_rule_only_under_an_equal_key(self, tmp_path, count_calls):
        # a monte-carlo key holds the entry's seed, a tensor key its level;
        # one slot, so level 20 after level 21 is built again
        import mongelab.cli as cli

        def entry(quadrature, seed=0):
            return {"dim": 1, "degree": 2, "seed": seed, "quadrature": quadrature,
                    "target": {"kind": "gaussian", "mean": [0.5], "sigma": 1.0}}

        mc = {"kind": "monte-carlo", "samples": 200}
        levels = [{"kind": "tensor-hermite", "level": level} for level in (20, 21, 20)]
        solves = count_calls(cli, "solve")
        cfg = write_config(tmp_path, "cfg.json", {"battery": [
            entry(mc, 1), entry(mc, 1), entry(mc, 2), *map(entry, levels)]})
        assert main(["battery", "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 4)
        spaces = [args[0] for args in solves]
        assert [space.seed for space in spaces[:3]] == [1, 1, 2]
        assert [space.level for space in spaces[3:]] == [20, 21, 20]
        assert [spaces.index(space) for space in spaces] == [0, 0, 2, 3, 4, 5]

    def test_unnamed_entries_named_by_index(self, tmp_path):
        # the first entry's dual fit fails, the second finishes: both keep
        # their index name in the payload, the aggregate and the diagnostics
        cfg = write_config(tmp_path, "cfg.json",
                           {"battery": [{**QUARTIC_10, "dual_degree": 14}, QUARTIC_10]})
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

    @pytest.mark.parametrize("grid, tables", [({}, 1), ({"lo": -3.0, "hi": 3.0, "count": 601}, 1)])
    def test_default_grid_builds_one_density_table(self, tmp_path, count_calls, grid, tables):
        # the dumped map and W2 on the default grid invert one quantile table
        import mongelab.oracle1d as oracle1d

        calls = count_calls(oracle1d, "_nu_density_table")
        cfg = write_config(tmp_path, "cfg.json", {
            "target": {"kind": "quartic-well", "a": 0.05, "b": -0.2}, "grid": grid})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == tables

    def test_default_battery_builds_density_tables_for_quartics_only(self, tmp_path, count_calls):
        # a gaussian entry checks its map against the exact m + sigma x; a
        # quartic entry builds one table for both its map check and W2
        import mongelab.cli as cli
        import mongelab.oracle1d as oracle1d

        entries = count_calls(cli, "run_entry")
        tables = count_calls(oracle1d, "_nu_density_table")
        cfg = write_config(tmp_path, "cfg.json", {"battery": "default"})
        assert main(["battery", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(entries) == 14
        quartics = [e["target"] for e in cli.default_battery() if e["target"]["kind"] != "gaussian"]
        assert [(t.kind, t.params) for t, in tables] == [
            ("quartic-well", {"a": q["a"], "b": q["b"]}) for q in quartics]

    def test_mass_outside_the_probe_is_mapped(self, tmp_path, capsys):
        # nu's peak on the probe [-8, 8] is its 1e-310 component, 716 below the
        # true peak near 12; the table is scaled by its own peak, so exp cannot
        # overflow, and the map is nu's 12 + 0.1 x
        cfg = write_config(tmp_path, "cfg.json", {"target": {
            "kind": "mixture", "weights": [1e-310, 1.0], "means": [[0.0], [12.0]],
            "sigmas": [[1.0], [0.1]]}})
        out = tmp_path / "out"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        x, t, _ = np.loadtxt(out / "oracle_table.csv", delimiter=",", skiprows=1, unpack=True)
        assert np.max(np.abs(t - (12.0 + 0.1 * x))) <= 1e-5

    def test_narrow_gaussian_pchip_is_quiet(self, tmp_path, capsys):
        # the CDF secants of N(1, 0.05^2) go subnormal in the tails, where the
        # PCHIP's harmonic-mean slope overflowed to its limit 0 with a warning
        cfg = write_config(tmp_path, "cfg.json", {"target": {
            "kind": "gaussian", "mean": [1.0], "sigma": 0.05}})
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

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
