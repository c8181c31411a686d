"""The package's public surface, and the names the perfbench tracer looks up."""
import ast
import importlib
import os
import pkgutil
import runpy
import sys
from pathlib import Path

import mongelab
from cases import CASES, CLI, ROOT, prepare


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


def _code_key(func) -> tuple:
    return func.__code__.co_filename, func.__code__.co_firstlineno


def test_every_src_function_is_reached(tmp_path, monkeypatch):
    # every function src/mongelab defines is called by some end-to-end case
    # run in-process, or it is one the perfbench tracer looks up by name
    # (ROADMAP item 1 prunes those), or the helper allowed below
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
    # the helper of expectation, which the tracer pins
    allowed.add(_code_key(mongelab.gaussian._eval_at_nodes))

    reached = set()
    prefix = str(pkg) + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = {}
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, (argv, config, _) in CASES.items():
            argv = prepare(tmp_path / name, argv, config)
            monkeypatch.chdir(tmp_path / name)
            codes[name] = 0  # a script that returns exits 0
            try:
                if config is None:
                    runpy.run_path(argv[0], run_name="__main__")
                else:
                    codes[name] = cli.main(argv[len(CLI):])
            except SystemExit as exc:
                codes[name] = exc.code
    finally:
        sys.setprofile(previous)
    unreached = sorted(f"{Path(file).name}:{line}" for file, line in defined - reached - allowed)
    assert unreached == []
    assert codes == {name: code for name, (_, _, code) in CASES.items()}
