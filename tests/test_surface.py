"""The package's public surface, and the names the perfbench tracer looks up."""
import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import mongelab

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "CheckThresholds", "ConfigError", "DegenerateWeightError", "DiagnosticsReport",
    "DualPotential", "GaussianSpace", "HermiteBasis", "MongelabError", "NodeTables",
    "NonFiniteValueError", "NonIntegrableDensityError", "NotApplicableError",
    "PotentialField", "ScalarTarget", "SingularJacobianError", "SolveConfig", "SolveResult",
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
