"""The package's public surface, and the names the perfbench tracer looks up."""
import ast
import importlib
import json
import os
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
    "UnresolvedDensityError",
    "backward_el_residual", "backward_objective", "conjugate", "control_forward",
    "convergence_study", "diagnostics", "div_second_moment_identity", "dual_hessian_bound",
    "errors", "expectation", "fit_dual", "forward_el_residual", "forward_sobolev_bound",
    "gaussian", "gaussian_target", "hermite", "inverse_check", "l2_ou_bound",
    "log_normalizer", "logdet2", "mixture_target", "monotone_map", "multi_indices",
    "nu_expectation", "nu_weights", "objective", "oracle1d",
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

    import mongelab.oracle1d
    import scipy.optimize

    # the tracer's lookup is the one place left that imports scipy
    assert mongelab.oracle1d.brentq is scipy.optimize.brentq


# one small in-process config per subcommand and branch, with its exit code
XS = [-8.0 + 0.5 * k for k in range(33)]
REACH_RUNS = [
    ("battery", {"battery": "default"}, 0),
    # 1 + hess f < 0 near 0 leaves no certified semiconvexity: the Sobolev
    # bound is skipped (and degree 4 fails the identities)
    ("battery", {"battery": [{"dim": 1, "degree": 4,
                              "quadrature": {"kind": "tensor-hermite", "level": 30},
                              "target": {"kind": "quartic-well", "a": 0.05, "b": -0.6},
                              "solver": {"max_iters": 2000}}]}, 4),
    ("study", {"dim": 2, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 8},
               "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
               "study": {"scheme": "ou", "n_list": [1, 2], "threshold": 0.5}}, 0),
    ("study", {"dim": 1, "degree": 6, "quadrature": {"kind": "tensor-hermite", "level": 30},
               "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
               "solver": {"max_iters": 3000},
               "study": {"scheme": "truncation", "n_list": [2, 4], "reference": "finest",
                         "threshold": 1.0}}, 0),
    ("solve", {"dim": 1, "degree": 3, "dual_degree": 2, "seed": 3,
               "quadrature": {"kind": "monte-carlo", "samples": 400},
               "target": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-0.5], [0.5]],
                          "sigmas": [[0.8], [0.8]]}}, 4),
    ("oracle", {"target": {"kind": "quartic-well", "a": 0.05, "b": -0.2}}, 0),
    ("oracle", {"target": {"kind": "gaussian", "mean": [0.0], "sigma": 0.001}}, 4),
    ("solve", {"dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
               "target": {"kind": "tabulated-1d", "xs": XS, "fs": [0.1 * x * x for x in XS]}}, 0),
    ("solve", {"dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
               "target": {"kind": "gaussian", "mean": [0.0], "sigma": 1.0},
               "tolerances": {"identity": -1}}, 2),
]


def _code_key(func) -> tuple:
    return func.__code__.co_filename, func.__code__.co_firstlineno


def test_every_src_function_is_reached(tmp_path, monkeypatch):
    # every function src/mongelab defines is called by some CLI run, or it is
    # one the perfbench tracer looks up by name (ROADMAP item 1 prunes those),
    # or one of the few allowed below
    import mongelab.cli as cli

    pkg = Path(mongelab.__file__).parent  # as the code objects name their files
    defined = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a code object starts at its first decorator
                first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
                defined.add((str(path), first))

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    allowed = set()
    for mod_name, attr, *_ in tracer.FUNCTIONS:
        # a name that resolves only through the module's __getattr__ (PEP 562)
        # pins that __getattr__; the lookup itself would import scipy
        namespace = vars(importlib.import_module(mod_name))
        allowed.add(_code_key(namespace.get(attr) or namespace["__getattr__"]))
    for mod_name, cls_name, attr, *_ in tracer.METHODS:
        raw = vars(getattr(importlib.import_module(mod_name), cls_name))[attr]
        allowed.add(_code_key(getattr(raw, "__func__", raw)))
    allowed |= {
        # scripts/run_gaussian_exactness.py builds its exact potentials with it
        _code_key(mongelab.PotentialField.from_coeff_dict),
        # the helper of expectation, which the tracer pins
        _code_key(mongelab.gaussian._eval_at_nodes),
    }

    reached = set()
    prefix = str(pkg) + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for k, (command, config, _) in enumerate(REACH_RUNS):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(config))
            codes.append(cli.main([command, "--config", str(path), "--out", str(tmp_path / str(k))]))
    finally:
        sys.setprofile(previous)
    unreached = sorted(f"{Path(file).name}:{line}" for file, line in defined - reached - allowed)
    assert unreached == []
    assert codes == [code for _, _, code in REACH_RUNS]
