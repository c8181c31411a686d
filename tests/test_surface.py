"""The package's public surface, and the names the perfbench tracer looks up."""
import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mongelab

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CheckThresholds", "ConfigError", "DegenerateWeightError", "DiagnosticsReport",
    "DualPotential", "GaussianSpace", "HermiteBasis", "MongelabError", "NodeTables",
    "NonFiniteValueError", "NonIntegrableDensityError", "NotApplicableError",
    "PotentialField", "ScalarTarget", "SingularJacobianError", "SolveConfig", "SolveResult",
    "UnresolvedDensityError",
    "backward_el_residual", "backward_objective", "conjugate", "control_forward",
    "convergence_study", "diagnostics", "div_second_moment_identity", "dual_hessian_bound",
    "errors", "expectation", "fit_dual", "forward_el_residual", "forward_sobolev_bound",
    "gaussian", "gaussian_target", "hermite", "inverse_check", "l2_ou_bound",
    "log_normalizer", "logdet2", "mixture_target", "monotone_map", "multi_indices",
    "normalized", "nu_expectation", "nu_weights", "objective", "oracle1d",
    "potential_from_map", "potentials", "pushforward_entropy", "quartic_ratio",
    "quartic_well_target", "relative_entropy", "reports", "run_standard_checks",
    "smooth_target", "smoothing", "solve", "solver_backward", "solver_forward",
    "tabulated_target_1d", "targets", "trace_positivity", "truncate_density",
    "variational_gap", "wasserstein2_sq", "wasserstein_check",
    "weighted_div_second_moment_identity", "young_gap",
]


def test_public_surface_is_pinned():
    assert sorted(mongelab.__all__) == PUBLIC


def test_reference_names_exist_only_in_the_tests():
    tree = ast.parse((ROOT / "tests" / "reference.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "solve_backward_variational" in defined
    # __main__ runs the CLI when imported
    modules = [mongelab] + [importlib.import_module(f"mongelab.{info.name}")
                            for info in pkgutil.iter_modules(mongelab.__path__)
                            if info.name != "__main__"]
    both = sorted(f"{mod.__name__}.{name}" for mod in modules for name in defined
                  if hasattr(mod, name))
    assert both == []


def test_tracer_installs_and_uninstalls(monkeypatch):
    # every name perfbench/tracer.py looks up must still resolve: install()
    # raises on the first one that does not
    import mongelab.cli  # noqa: F401  (the tracer patches the modules the CLI loads)

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    tr = tracer.Tracer()
    try:
        tr.install()
    finally:
        tr.uninstall()
    assert tracer.find_wrappers() == []


COLD_START = """
import json, sys
from pathlib import Path

import mongelab.cli as cli


def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))


out = Path(sys.argv[1])
seen = {"import": scipy_modules()}
codes = {}


def run(command, config, key=None):
    key = key or command
    path = out / f"{key}.json"
    path.write_text(json.dumps(config))
    codes[key] = cli.main([command, "--config", str(path), "--out", str(out / key)])
    seen[key] = scipy_modules()


run("study", {"dim": 2, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 8},
              "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
              "study": {"scheme": "ou", "n_list": [1, 2], "threshold": 0.5}})
run("solve", {"dim": 2, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 10},
              "target": {"kind": "gaussian", "mean": [0.5, 0.0], "sigma": 1.2}})
run("battery", {"battery": [{"dim": 1, "degree": 2,
                             "quadrature": {"kind": "tensor-hermite", "level": 40},
                             "target": {"kind": "gaussian", "mean": [0.5], "sigma": 1.2}}]})
run("oracle", {"target": {"kind": "gaussian", "mean": [0.0], "sigma": 1.0}})
xs = [-8.0 + 0.5 * k for k in range(33)]
run("solve", {"dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
              "target": {"kind": "tabulated-1d", "xs": xs, "fs": [0.1 * x * x for x in xs]}},
    key="tabulated")
import mongelab.oracle1d
import scipy.optimize

# the tracer's lookup is the one place left that imports scipy
seen["brentq"] = mongelab.oracle1d.brentq is scipy.optimize.brentq
print(json.dumps({"codes": codes, "seen": seen}))
"""


def test_cli_starts_and_runs_without_scipy(tmp_path):
    # every kernel is numpy's, so a fresh interpreter imports the CLI and runs
    # a 2d study, a 2d solve, a 1d battery (with its oracle), the oracle and a
    # tabulated-1d solve without loading scipy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    seen = result.pop("seen")
    assert seen.pop("brentq") is True
    assert seen == dict.fromkeys(["import", "study", "solve", "battery", "oracle", "tabulated"], [])
    assert result["codes"] == {"study": 0, "solve": 0, "battery": 0, "oracle": 0, "tabulated": 0}
