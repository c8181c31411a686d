"""The end-to-end runs: whole CLI and script runs, each with its exit code
(CASES), and the configs the CLI refuses (CONFIG_ERRORS).

test_cross_process.py runs each case in two fresh interpreters,
TestConfigErrors in test_cli.py runs each config-error row, and the reach
test in test_surface.py runs both tables once in-process; a new end-to-end
run goes in one of them.
"""
import json
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
README_SOLVE = json.loads(re.search(r"A solve config:\s*```json\n(.*?)```",
                                    (ROOT / "README.md").read_text(encoding="utf-8"),
                                    re.S).group(1))
CLI = ["-m", "mongelab"]
XS = [-8.0 + 0.5 * k for k in range(33)]
# N(1, 4): the solve config the CONFIG_ERRORS rows vary
GAUSSIAN_SOLVE = {"dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 60},
                  "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0}, "seed": 0}
# a 1d quartic whose degree-10 solve converges; with dual_degree 14 its dual
# fit then has 14 nu-mass nodes for 15 unknowns
QUARTIC_10 = {"dim": 1, "degree": 10, "quadrature": {"kind": "tensor-hermite", "level": 30},
              "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0},
              "solver": {"max_iters": 3000}}

# (argv after the interpreter, config, exit code); a CLI run reads its
# config from config.json and writes its reports under out/ (see prepare)
CASES = {
    "battery": ([*CLI, "battery"], {"battery": "default"}, 0),
    "study-ou-2d": ([*CLI, "study"], WORKLOADS["study_ou_2d_config"](0), 0),
    "gaussian-3d": ([*CLI, "solve"], WORKLOADS["gaussian_3d_config"](0), 0),
    "quartic-3d": ([*CLI, "solve"], WORKLOADS["quartic_3d_config"](0), 4),
    "oracle": ([*CLI, "oracle"], {"target": {"kind": "quartic-well", "a": 0.05, "b": -0.2}}, 0),
    # a check fails
    "monte-carlo": ([*CLI, "solve"], {
        "dim": 1, "degree": 3, "dual_degree": 2, "seed": 3,
        "quadrature": {"kind": "monte-carlo", "samples": 400},
        "target": {"kind": "mixture", "weights": [0.5, 0.5], "means": [[-0.5], [0.5]],
                   "sigmas": [[0.8], [0.8]]}}, 4),
    # the reference solve cannot converge in 5 iterations
    "failed-study": ([*CLI, "study"], {
        "dim": 1, "degree": 3, "quadrature": {"kind": "tensor-hermite", "level": 5},
        "target": {"kind": "quartic-well", "a": 0.03, "b": 10}, "solver": {"max_iters": 5},
        "study": {"scheme": "ou", "n_list": [1, 2]}}, 4),
    # nearly all mass near 12, outside the oracle's probe range [-8, 8]
    "oracle-far-mass": ([*CLI, "oracle"], {"target": {
        "kind": "mixture", "weights": [1e-310, 1.0], "means": [[0.0], [12.0]],
        "sigmas": [[1.0], [0.1]]}}, 0),
    # narrower than the oracle's density table resolves
    "failed-oracle": ([*CLI, "oracle"],
                      {"target": {"kind": "gaussian", "mean": [0.0], "sigma": 0.001}}, 4),
    "tabulated-1d": ([*CLI, "solve"], {
        "dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "tabulated-1d", "xs": XS, "fs": [0.1 * x * x for x in XS]}}, 0),
    "readme-solve": ([*CLI, "solve"], README_SOLVE, 0),
    # 1 + hess f < 0 near 0 leaves no certified semiconvexity: the Sobolev
    # bound is skipped (and degree 4 fails the identities)
    "skipped-sobolev": ([*CLI, "battery"], {"battery": [{
        "dim": 1, "degree": 4, "quadrature": {"kind": "tensor-hermite", "level": 30},
        "target": {"kind": "quartic-well", "a": 0.05, "b": -0.6},
        "solver": {"max_iters": 2000}}]}, 4),
    "truncation-finest": ([*CLI, "study"], {
        "dim": 1, "degree": 6, "quadrature": {"kind": "tensor-hermite", "level": 30},
        "target": {"kind": "quartic-well", "a": 0.05, "b": 0.0}, "solver": {"max_iters": 3000},
        "study": {"scheme": "truncation", "n_list": [2, 4], "reference": "finest",
                  "threshold": 1.0}}, 0),
    "negative-tolerance": ([*CLI, "solve"], {
        "dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "gaussian", "mean": [0.0], "sigma": 1.0},
        "tolerances": {"identity": -1}}, 2),
    "unconverged-solve": ([*CLI, "solve"], {**README_SOLVE, "solver": {"max_iters": 1}}, 3),
    # a computation error after the solve: the report keeps the solve and the error
    "dual-error": ([*CLI, "solve"], {**QUARTIC_10, "dual_degree": 14}, 4),
    # the failed entry is written as {name, error}; the next entry still runs
    "battery-error": ([*CLI, "battery"], {"battery": [
        {**QUARTIC_10, "name": "quartic-dual-14", "dual_degree": 14}, GAUSSIAN_SOLVE]}, 4),
    **{script: ([str(ROOT / "scripts" / f"{script}.py")], None, 0)
       for script in ("run_gaussian_exactness", "run_default_battery", "run_smoothing_studies")},
}


def with_study(**study):
    return {**GAUSSIAN_SOLVE, "study": {"scheme": "ou", "n_list": [1], **study}}


# (command, config, text of the error message): each config is refused with
# exit 2, a message naming its key and no output directory
CONFIG_ERRORS = [
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
    # an entry on the previous entry's rule is still validated key by key
    *(("battery", {"battery": [GAUSSIAN_SOLVE, {**GAUSSIAN_SOLVE, "quadrature": quadrature}]},
       field) for quadrature, field in [
        ({"kind": "tensor-hermite", "level": 60.0}, "config key battery[1].quadrature.level"),
        ({"kind": "tensor-hermite", "level": 60, "nodes": 60},
         "unknown config key: battery[1].quadrature.nodes"),
    ]),
    ("solve", {**GAUSSIAN_SOLVE, "degreee": 3}, "unknown config key: degreee"),
    ("solve", {**GAUSSIAN_SOLVE, "target": {"kind": "gaussian", "mean": [0.0], "sig": 1.0}},
     "unknown config key: target.sig"),
    ("study", with_study(scheme="fourier"), "study.scheme must be 'ou' or 'truncation'"),
    ("battery", {"battery": []}, "battery is empty"),
    # the oracle takes 1d targets only
    ("oracle", {"target": {"kind": "gaussian", "mean": [1.0, 0.0], "sigma": 2.0}},
     "invalid target: mean has 2 values, but dim = 1 allows 1"),
    # at least two grid points, finite ends, lo < hi
    *(("oracle", {"target": GAUSSIAN_SOLVE["target"], "grid": grid}, field)
      for grid, field in [
        ({"count": 1}, "config key grid.count must be an integer >= 2"),
        ({"hi": "nan"}, "config key grid.hi must be a finite number"),
        ({"lo": "-inf"}, "config key grid.lo must be a finite number"),
        ({"lo": 2.0, "hi": 2.0}, "grid.lo and grid.hi must satisfy lo < hi"),
        ({"lo": 3.0, "hi": -3.0}, "grid.lo and grid.hi must satisfy lo < hi"),
    ]),
]


def prepare(cwd: Path, argv: list, config) -> list:
    """Make the directory cwd and return the argv of a case run there: a CLI
    case's config is written to config.json and its reports go under out/."""
    cwd.mkdir()
    if config is None:
        return argv
    (cwd / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return [*argv, "--config", "config.json", "--out", "out"]
