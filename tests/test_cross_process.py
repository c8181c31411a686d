"""Identical config + seed gives identical bytes across fresh interpreters.

Each case of cases.py runs twice at once, in two new interpreters whose
string hashes differ (PYTHONHASHSEED 0 and 1), each in its own working
directory.  Both must exit with the expected code, import no scipy module,
print the same stdout and write the same files under out/.  The in-process byte tests in
test_cli.py catch state carried from one run to the next; these catch what
depends on the interpreter, such as the order of a set of strings.  Each
child runs one OpenBLAS thread (OPENBLAS_NUM_THREADS=1): two children at
once with the default thread count each oversubscribe a small machine's
cores, and a 3d solve then takes several times as long.
"""
import json
import os
import subprocess
import sys

import pytest

from cases import CASES, ROOT, prepare


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
    procs = []
    for hash_seed in ("0", "1"):
        cwd = tmp_path / hash_seed
        procs.append(subprocess.Popen(
            [sys.executable, "-X", "importtime", *prepare(cwd, argv, config)], cwd=cwd,
            env={**env, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": "1"},
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
        # a config error leaves no out/ directory
        assert code != 2 or not out.exists()
        files = {str(p.relative_to(out)): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((stdout, files))
    (stdout, files), (stdout_1, files_1) = runs
    assert stdout == stdout_1
    assert sorted(files) == sorted(files_1)
    assert [name for name in files if files[name] != files_1[name]] == []

    reports = {name: json.loads(data) for name, data in files.items()
               if name.endswith("_report.json")}
    # any other exit of the CLI leaves a report; a script may only print
    assert reports or code == 2 or config is None
    for name, report in reports.items():
        for meta in _metadata(report):
            if meta["quadrature"].startswith("monte-carlo"):
                assert f"seed={meta['seed']}," in meta["quadrature"]
        if name == "solve_report.json":
            # exit 4 names what failed: an error or a failing diagnostics record;
            # a solve report without an error keeps the solve block
            checks = report.get("diagnostics", {}).get("checks", [])
            assert code != 4 or "error" in report or any(c["passed"] is False for c in checks)
            assert "error" in report or "solve" in report
