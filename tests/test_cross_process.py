"""Identical config + seed gives identical bytes across fresh interpreters.

Each case runs twice at once, in two new interpreters whose string hashes
differ (PYTHONHASHSEED 0 and 1), each in its own working directory.  Both
must exit with the expected code, import no scipy module, print the same
stdout and write the same files under out/.  The in-process byte tests in
test_cli.py catch state carried from one run to the next; these catch what
depends on the interpreter, such as the order of a set of strings.
"""
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
README_SOLVE = json.loads(re.search(r"A solve config:\s*```json\n(.*?)```",
                                    (ROOT / "README.md").read_text(encoding="utf-8"),
                                    re.S).group(1))
CLI = ["-m", "mongelab"]
XS = [-8.0 + 0.5 * k for k in range(33)]

# (argv after the interpreter, config, exit code); a CLI run reads its
# config from config.json and writes its reports under out/
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
    # narrower than the oracle's density table resolves
    "failed-oracle": ([*CLI, "oracle"],
                      {"target": {"kind": "gaussian", "mean": [0.0], "sigma": 0.001}}, 4),
    "tabulated-1d": ([*CLI, "solve"], {
        "dim": 1, "degree": 2, "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "tabulated-1d", "xs": XS, "fs": [0.1 * x * x for x in XS]}}, 0),
    "readme-solve": ([*CLI, "solve"], README_SOLVE, 0),
    **{script: ([str(ROOT / "scripts" / f"{script}.py")], None, 0)
       for script in ("run_gaussian_exactness", "run_default_battery", "run_smoothing_studies")},
}


def _metadata(node):
    """Every "metadata" object in a report."""
    if isinstance(node, dict):
        if isinstance(node.get("metadata"), dict):
            yield node["metadata"]
        node = list(node.values())
    if isinstance(node, list):
        for value in node:
            yield from _metadata(value)


@pytest.mark.parametrize("argv, config, code", CASES.values(), ids=CASES)
def test_fresh_interpreters_write_identical_bytes(tmp_path, argv, config, code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    if config is not None:
        argv = [*argv, "--config", "config.json", "--out", "out"]
    procs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        cwd.mkdir()
        if config is not None:
            (cwd / "config.json").write_text(json.dumps(config), encoding="utf-8")
        procs.append(subprocess.Popen(
            [sys.executable, "-X", "importtime", *argv], cwd=cwd,
            env={**env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    try:
        outputs = [proc.communicate(timeout=300) for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()

    runs = []
    for proc, (stdout, stderr), hash_seed in zip(procs, outputs, ("0", "1")):
        assert proc.returncode == code, stderr[-2000:]
        # -X importtime writes one "import time: ... | <module>" line per import
        imported = [line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
                    if line.startswith("import time:")]
        assert imported
        assert [m for m in imported if m.split(".")[0] == "scipy"] == []
        out = tmp_path / hash_seed / "out"
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((stdout, files))
    (stdout, files), (stdout_1, files_1) = runs
    assert stdout == stdout_1
    assert sorted(files) == sorted(files_1)
    assert [name for name in files if files[name] != files_1[name]] == []

    reports = {name: json.loads(data) for name, data in files.items()
               if name.endswith("_report.json")}
    assert reports or config is None
    for report in reports.values():
        for meta in _metadata(report):
            if meta["quadrature"].startswith("monte-carlo"):
                assert f"seed={meta['seed']}," in meta["quadrature"]
