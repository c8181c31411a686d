"""The end-to-end cases: whole CLI and script runs, each with its exit code.

test_cross_process.py runs each in two fresh interpreters and the reach test
in test_surface.py once in-process; a new end-to-end case goes in CASES.
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

# (argv after the interpreter, config, exit code); a CLI run reads its
# config from config.json and writes its reports under out/ (see prepare)
CASES = {
    "battery": ([*CLI, "battery"], {"battery": "default"}, 0),
    "study-ou-2d": ([*CLI, "study"], WORKLOADS["study_ou_2d_config"](0), 0),
    "gaussian-3d": ([*CLI, "solve"], WORKLOADS["gaussian_3d_config"](0), 0),
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
    **{script: ([str(ROOT / "scripts" / f"{script}.py")], None, 0)
       for script in ("run_gaussian_exactness", "run_default_battery", "run_smoothing_studies")},
}


def prepare(cwd: Path, argv: list, config) -> list:
    """Make the directory cwd and return the argv of a case run there: a CLI
    case's config is written to config.json and its reports go under out/."""
    cwd.mkdir()
    if config is None:
        return argv
    (cwd / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return [*argv, "--config", "config.json", "--out", "out"]
