"""The package's public surface, and the names the perfbench tracer looks up."""
import ast
import importlib
import inspect
import os
import pkgutil
import runpy
import sys
import types
from pathlib import Path

import mongelab
from cases import CASES, CLI, CONFIG_ERRORS, ROOT, prepare


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


_COMPREHENSIONS = ("<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>")


def function_lines(path: Path) -> dict:
    """{line: (module, qualname, stripped source)} for each line of each
    function body (code object) in the file at path, module being the file's
    stem.  Module and class bodies, and the comprehensions in them, run at
    import, before any case, so they are left out."""
    source = path.read_text(encoding="utf-8")
    text = source.splitlines()
    lines = {}

    def walk(code, prefix, in_function):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                qualname = prefix + const.co_name
                function = bool(const.co_flags & inspect.CO_OPTIMIZED) and (
                    in_function or const.co_name not in _COMPREHENSIONS)
                if function:
                    body = {line for *_, line in const.co_lines() if line}
                    if len(body) > 1:  # the def (or first decorator) line runs with any other
                        body.discard(const.co_firstlineno)
                    for line in sorted(body):
                        # an outer body keeps a line it shares with a nested one
                        lines.setdefault(line, (path.stem, qualname, text[line - 1].strip()))
                walk(const, qualname + (".<locals>." if function else "."), function)

    walk(compile(source, str(path), "exec"), "", False)
    return lines


def trace_lines(prefix: str, run) -> set:
    """(file, line) of each line event, in the frames whose file starts with
    prefix, while run() runs."""
    reached = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(start)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def settle(lines: dict, reached: set, pinned: set, allowed) -> tuple[list, list]:
    """(unreached, stale): each function-body line of lines, {(file, line):
    (module, qualname, text)}, that is not in reached, not in a function of
    pinned, {(module, qualname)}, and has no allowed (module, qualname, text)
    key; and each allowed key that matches no unreached line."""
    unreached, used = [], set()
    for (file, line), (module, qualname, text) in sorted(lines.items()):
        if (file, line) in reached or (module, qualname.split(".<locals>.")[0]) in pinned:
            continue
        if (module, qualname, text) in allowed:
            used.add((module, qualname, text))
        else:
            unreached.append(f"{Path(file).name}:{line} {qualname}: {text}")
    return unreached, sorted(set(allowed) - used)


def pinned_functions() -> set:
    """(module, qualname) of each src function that perfbench/tracer.py looks
    up by name, in FUNCTIONS or METHODS: those are allowed whole until ROADMAP
    items 1, 13 and 19 retire the entries.  A name that resolves outside
    src/mongelab (brentq, PchipInterpolator) pins nothing."""
    import tracer

    found = [vars(importlib.import_module(m)).get(attr) for m, attr, *_ in tracer.FUNCTIONS]
    found += [vars(getattr(importlib.import_module(m), cls))[attr]
              for m, cls, attr, *_ in tracer.METHODS]
    found = [getattr(f, "__func__", f) for f in found]
    return {(f.__module__.rpartition(".")[2], f.__qualname__) for f in found
            if f is not None and f.__module__.startswith("mongelab.")}


# The function-body lines of src/mongelab that no run of CASES or
# CONFIG_ERRORS reaches, each as (module, qualname, stripped source) under the
# tier-1 test that reaches it: input guards of public functions and
# constructors, config-file and --seed handling that a config row cannot
# express, and computation paths that no CLI config provokes.
ALLOWED = {
    # tables of two and three points
    "tests/test_oracle1d.py::TestScipyParity::test_short_tables_bit_equal": [
        ("_cubics", "pchip", "return hermite_cubics(x, y, np.concatenate([m, m]))"),
    ],
    "tests/test_targets.py::test_tabulated_spline_matches_cubic_spline": [
        ("_cubics", "not_a_knot_slopes", "return np.array([m[0], m[0]])"),
        ("_cubics", "not_a_knot_slopes", "curv = (m[1] - m[0]) / (h[0] + h[1])"),
        ("_cubics", "not_a_knot_slopes",
         "return m[0] + curv * np.array([-h[0], h[0], h[0] + 2 * h[1]])"),
    ],
    "tests/test_cli.py::TestConfigErrors::test_invalid_json_is_config_error": [
        ("cli", "_load_config", "except FileNotFoundError as exc:"),
        ("cli", "_load_config", "except json.JSONDecodeError as exc:"),
        ("cli", "_load_config", 'raise ConfigError(f"config is not valid JSON: {exc}") from exc'),
    ],
    "tests/test_cli.py::TestSolveCommand::test_missing_config_file": [
        ("cli", "_load_config", 'raise ConfigError(f"config file not found: {path}") from exc'),
    ],
    "tests/test_cli.py::TestSolveCommand::test_unreadable_config_or_unwritable_out": [
        ("cli", "_load_config", "except (OSError, UnicodeDecodeError) as exc:"),
        ("cli", "_load_config",
         'raise ConfigError(f"cannot read config file {path}: {exc}") from exc'),
        ("cli", "_write_reports", "except OSError as exc:"),
        ("cli", "_write_reports",
         'raise ConfigError(f"cannot write reports under {out_dir}: {exc}") from exc'),
    ],
    "tests/test_cli.py::TestOracleCommand::test_seed_flag_sets_the_config_seed": [
        ("cli", "_load_config", 'cfg["seed"] = seed'),
    ],
    "tests/test_cli.py::TestSolveCommand::test_skipped_check_has_a_skip_line": [
        ("diagnostics", "DiagnosticsReport.summary_lines", 'status = "SKIP"'),
        ("diagnostics", "DiagnosticsReport.summary_lines",
         'lines.append(f"{status:4s} {r.name:28s} {r.note}")'),
        ("diagnostics", "DiagnosticsReport.summary_lines", "continue"),
    ],
    # a PotentialField dual, which only unit tests pass to NodeTables
    "tests/test_acceptance.py::test_criterion_3_backward_el_identity": [
        ("diagnostics", "NodeTables.backward", "hess = self.dual.hess(y)"),
        ("diagnostics", "NodeTables.backward",
         "m, pdiv = _shift_inverse_operator(floor_checked_inverse(hess), self.dual.third(y))"),
        ("diagnostics", "NodeTables.backward", "return self.dual.grad(y), hess, m, pdiv"),
    ],
    "tests/test_guards.py::test_guard_raises": [
        ("gaussian", "GaussianSpace.__post_init__",
         'raise ValueError("nodes must be (N, d), weights (N,)")'),
        ("gaussian", "GaussianSpace.__post_init__",
         'raise ValueError("nodes and weights must have matching length")'),
        ("gaussian", "GaussianSpace.__post_init__",
         'raise ValueError("weights must be nonnegative")'),
        ("gaussian", "GaussianSpace.__post_init__",
         'raise ValueError("weights must sum to 1 within 1e-12")'),
        ("gaussian", "_eval_at_nodes",
         "vals = np.asarray(g(space.nodes), dtype=float).reshape(-1)"),
        ("gaussian", "_eval_at_nodes", "if vals.shape[0] != space.nodes.shape[0]:"),
        ("gaussian", "_eval_at_nodes",
         'raise ValueError("integrand must return one value per node")'),
        ("gaussian", "_eval_at_nodes", "return vals"),
        ("hermite", "as_points",
         'raise ValueError(f"expected points of dimension {dim}, got shape {np.shape(x)}")'),
        ("hermite", "multi_indices", 'raise ValueError("dim and degree must be >= 1")'),
        ("oracle1d", "_nu_density_table", 'raise ValueError("oracle requires a 1d target")'),
        ("potentials", "PotentialField.__init__",
         'raise ValueError(f"expected {basis.size} coefficients, got {coeffs.shape[0]}")'),
        ("potentials", "PotentialField.semigroup", 'raise ValueError("t must be >= 0")'),
        ("solver_backward", "DualPotential.as_field",
         'raise ValueError("dual potential has no basis fit; call fit_dual first")'),
        ("solver_forward", "ForwardWorkspace.__init__",
         'raise ValueError("basis dimension does not match space")'),
        ("solver_forward", "minimize_with_barrier",
         'raise NonFiniteValueError("target not finite at a transported node")'),
        ("targets", "check_consistency",
         'raise ValueError(f"{target.kind}: Hessian not symmetric")'),
    ],
    "tests/test_gaussian_core.py::TestQuadrature::test_non_finite_weights_rejected": [
        ("gaussian", "GaussianSpace.__post_init__", 'raise ValueError("weights must be finite")'),
    ],
    # an OU study on a monte-carlo rule
    "tests/test_gaussian_core.py::TestQuadrature::test_subspace_matches_direct_build": [
        ("gaussian", "GaussianSpace.subspace",
         "return GaussianSpace.monte_carlo(dim, self.weights.shape[0], self.seed + 7919 * dim)"),
    ],
    "tests/test_smoothing.py::TestValueAndGrad::test_solve_rejects_non_finite_f": [
        ("gaussian", "shifted_nu_weights",
         'raise NonFiniteValueError("target log-density not finite at a quadrature node")'),
    ],
    "tests/test_solver_backward.py::TestConjugate::test_mean_shift_values": [
        ("hermite", "as_points",
         "pts = pts.reshape(1, dim) if pts.shape[0] == dim else pts.reshape(-1, 1)"),
    ],
    # oracle1d.__getattr__ resolves two scipy names for the tracer's lookup only
    "tests/test_surface.py::test_reference_names_exist_only_in_the_tests": [
        ("oracle1d", "__getattr__", 'if name == "brentq":'),
        ("oracle1d", "__getattr__", 'if name == "PchipInterpolator":'),
        ("oracle1d", "__getattr__",
         'raise AttributeError(f"module {__name__!r} has no attribute {name!r}")'),
    ],
    "tests/test_surface.py::test_tracer_installs_and_uninstalls": [
        ("oracle1d", "__getattr__", "from scipy.optimize import brentq"),
        ("oracle1d", "__getattr__", "return brentq"),
        ("oracle1d", "__getattr__", "from scipy.interpolate import PchipInterpolator"),
        ("oracle1d", "__getattr__", "return PchipInterpolator"),
    ],
    "tests/test_oracle1d.py::TestMonotoneMap::test_density_table_errors_are_named": [
        ("oracle1d", "_nu_density_table",
         'raise NonIntegrableDensityError("log-density not finite on the base range")'),
        ("oracle1d", "_nu_density_table",
         'raise NonIntegrableDensityError("density does not decay on the left")'),
        ("oracle1d", "_nu_density_table",
         'raise NonIntegrableDensityError("density does not decay on the right")'),
        ("oracle1d", "_nu_density_table",
         'raise NonIntegrableDensityError("log-density not finite on the working range")'),
    ],
    "tests/test_potentials.py::TestSerialization::test_rejects_out_of_basis_index": [
        ("potentials", "PotentialField.from_coeff_dict",
         'raise ValueError(f"multi-index {key} outside basis (dim={dim}, degree={degree})")'),
    ],
    "tests/test_potentials.py::TestJacobiKernel::test_non_finite_node_is_infeasible": [
        ("potentials", "jacobi_eigh", "a = np.where(finite, a, 0.0)"),
        ("potentials", "floor_checked_inverse",
         'raise SingularJacobianError(f"I + hess phi has eigenvalue at or below {EIG_FLOOR}")'),
    ],
    # a dual evaluated off the points it was solved on
    "tests/test_diagnostics.py::TestDualHessianBound::test_composition_two_routes": [
        ("solver_backward", "DualPotential._minimizers",
         "x_star, _ = conjugacy_minimize(self.forward, pts)"),
        ("solver_backward", "DualPotential._minimizers", "return pts, x_star"),
    ],
    "tests/test_solver_forward.py::TestSolveConfig::test_rejects_invalid_value": [
        ("solver_forward", "SolveConfig.__post_init__",
         'raise ValueError(f"{name} must be an integer >= 1, got {value!r}")'),
        ("solver_forward", "SolveConfig.__post_init__",
         'raise ValueError(f"grad_tol must lie in (0, {GRAD_TOL_SOFT}], got {self.grad_tol!r}")'),
    ],
    "tests/test_solver_backward.py::TestInverseCheck::test_infeasible_warm_start_rejected": [
        ("solver_forward", "minimize_with_barrier",
         'raise SingularJacobianError("infeasible starting point")'),
    ],
    # the BFGS restart after a failed curvature condition
    "tests/test_cli.py::TestStudyCommand::test_failed_rows_flagged_study_completes": [
        ("solver_forward", "minimize_with_barrier", "h_inv = h0"),
    ],
    "tests/test_targets.py::test_inconsistent_evaluators_rejected": [
        ("targets", "check_consistency",
         'raise ValueError(f"{target.kind}: gradient does not match finite differences")'),
    ],
    "tests/test_targets.py::test_gaussian_rejects_bad_sigma": [
        ("targets", "gaussian_target", 'raise ValueError("sigma must be positive")'),
    ],
    "tests/test_targets.py::test_quartic_requires_positive_a": [
        ("targets", "quartic_well_target", 'raise ValueError("quartic coefficient a must be > 0")'),
    ],
}


def _test_exists(reader: str) -> bool:
    """Whether reader, "tests/<file>::[<class>::]<test>", names a test there."""
    file, *names = reader.split("::")
    body = ast.parse((ROOT / file).read_text(encoding="utf-8")).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def run_cases(tmp_path: Path, monkeypatch) -> dict:
    """Run each case of CASES and each row of CONFIG_ERRORS in process, each
    in its own directory under tmp_path; {name: exit code}."""
    import mongelab.cli as cli

    codes = {}

    def run(name, argv):
        monkeypatch.chdir(tmp_path / name)
        codes[name] = 0  # a script that returns exits 0
        try:
            if argv[0].endswith(".py"):
                runpy.run_path(argv[0], run_name="__main__")
            else:
                codes[name] = cli.main(argv[len(CLI):])
        except SystemExit as exc:
            codes[name] = exc.code

    for name, (argv, config, _) in CASES.items():
        run(name, prepare(tmp_path / name, argv, config))
    for k, (command, config, _) in enumerate(CONFIG_ERRORS):
        name = f"config-error-{k}"
        run(name, prepare(tmp_path / name, [*CLI, command], config))
    return codes


def test_every_src_function_is_reached(tmp_path, monkeypatch):
    # every line of every src/mongelab function runs in some case or config
    # error row, in process, or ALLOWED names it with the test that reaches
    # it, or it lies in a function the perfbench tracer pins
    pkg = Path(mongelab.__file__).parent  # as the code objects name their files
    lines = {}
    for path in sorted(pkg.glob("*.py")):
        lines.update({(str(path), line): key for line, key in function_lines(path).items()})
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    pinned = pinned_functions()

    codes = {}
    reached = trace_lines(str(pkg) + os.sep,
                          lambda: codes.update(run_cases(tmp_path, monkeypatch)))
    allowed = {key for keys in ALLOWED.values() for key in keys}
    assert settle(lines, reached, pinned, allowed) == ([], [])
    assert [reader for reader in ALLOWED if not _test_exists(reader)] == []
    assert codes == {**{name: code for name, (_, _, code) in CASES.items()},
                     **{f"config-error-{k}": 2 for k in range(len(CONFIG_ERRORS))}}


def _toy_reach(tmp_path):
    """(lines, reached) of a toy module whose sign(x) runs for x = 2 only."""
    path = tmp_path / "toy.py"
    path.write_text("def sign(x):\n    if x < 0:\n        return -1\n    return 1\n",
                    encoding="utf-8")
    lines = {(str(path), line): key for line, key in function_lines(path).items()}
    namespace = {}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return lines, trace_lines(str(path), lambda: namespace["sign"](2))


def test_reach_reports_an_untaken_branch(tmp_path):
    lines, reached = _toy_reach(tmp_path)
    assert settle(lines, reached, set(), set()) == (["toy.py:3 sign: return -1"], [])
    # a pinned function is allowed whole
    assert settle(lines, reached, {("toy", "sign")}, set()) == ([], [])


def test_reach_reports_a_stale_allowance(tmp_path):
    # an allowance for a line the run reaches, or for no line at all, is stale
    lines, reached = _toy_reach(tmp_path)
    allowed = {("toy", "sign", "return -1"), ("toy", "sign", "return 1"),
               ("toy", "sign", "return 0")}
    assert settle(lines, reached, set(), allowed) == (
        [], [("toy", "sign", "return 0"), ("toy", "sign", "return 1")])
