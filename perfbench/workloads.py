"""Workloads: seeded CLI configs, expected exit codes and per-operation checks.

One operation is one `mongelab.cli.main` invocation on the workload's
config.  Seed 0 gives the canonical configs; any other seed perturbs the
target parameters within the ranges stated in SEED_VARIATION, with the
structure (dimensions, degrees, quadrature levels, entry count) fixed, so
every seeded variant loads the same layers.  This module imports nothing
from the package: the program receives only the generated JSON.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

ORACLE_TOL = 1e-3            # the CLI's oracle agreement tolerance
WITNESSES = ("variational_gap", "el_forward", "el_backward")

SEED_VARIATION = {
    "battery": "gaussian means +U(-0.05,0.05), sigmas and quartic a x(1+U(-0.02,0.02)), "
               "quartic b +U(-0.005,0.005); the 14 entries, degrees and levels are fixed",
    "gaussian-3d": "mean +U(-0.05,0.05) and sigma x(1+U(-0.02,0.02)) per axis",
    "study-ou-2d": "quartic a x(1+U(-0.01,0.01))",
    "quartic-3d": "quartic a x(1+U(-0.01,0.01))",
}


def _default_battery_entries() -> list[dict]:
    """The entries `{"battery": "default"}` expands to, spelled out."""
    entries = []
    for m in (0.0, 1.0, -1.0):
        for s in (0.5, 1.0, 2.0):
            entries.append({
                "name": f"gaussian-1d(m={m},sigma={s})",
                "dim": 1, "degree": 2,
                "quadrature": {"kind": "tensor-hermite", "level": 60},
                "target": {"kind": "gaussian", "mean": [m], "sigma": s},
            })
    for a, b in ((0.02, 0.1), (0.05, 0.0), (0.03, -0.1)):
        entries.append({
            "name": f"quartic-1d(a={a},b={b})",
            "dim": 1, "degree": 10,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": a, "b": b},
            "solver": {"max_iters": 3000},
        })
    entries.append({
        "name": "gaussian-2d-mean-shift",
        "dim": 2, "degree": 2,
        "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "gaussian", "mean": [1.0, -0.5], "sigma": 1.0},
    })
    entries.append({
        "name": "gaussian-2d-diagonal",
        "dim": 2, "degree": 2,
        "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "gaussian", "mean": [0.5, 0.0], "sigma": [2.0, 0.5]},
    })
    return entries


def _jitter_gaussian(target: dict, rng: random.Random) -> dict:
    sigma = target["sigma"]
    if isinstance(sigma, list):
        sigma = [s * (1 + rng.uniform(-0.02, 0.02)) for s in sigma]
    else:
        sigma = sigma * (1 + rng.uniform(-0.02, 0.02))
    return {**target, "mean": [m + rng.uniform(-0.05, 0.05) for m in target["mean"]],
            "sigma": sigma}


def battery_config(seed: int) -> dict:
    if seed == 0:
        return {"battery": "default"}
    rng = random.Random(seed)
    entries = []
    for entry in _default_battery_entries():
        target = entry["target"]
        if target["kind"] == "gaussian":
            target = _jitter_gaussian(target, rng)
        else:
            target = {**target, "a": target["a"] * (1 + rng.uniform(-0.02, 0.02)),
                      "b": target["b"] + rng.uniform(-0.005, 0.005)}
        entries.append({**entry, "target": target})
    return {"battery": entries}


def gaussian_3d_config(seed: int) -> dict:
    target = {"kind": "gaussian", "mean": [0.5, -0.3, 0.2], "sigma": [1.5, 0.8, 1.2]}
    if seed != 0:
        target = _jitter_gaussian(target, random.Random(seed))
    return {"dim": 3, "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 24},
            "target": target}


def _quartic_a(seed: int) -> float:
    return 0.03 if seed == 0 else 0.03 * (1 + random.Random(seed).uniform(-0.01, 0.01))


def quartic_3d_config(seed: int) -> dict:
    return {"dim": 3, "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 14},
            "target": {"kind": "quartic-well", "a": _quartic_a(seed), "b": 0.0}}


def study_ou_2d_config(seed: int) -> dict:
    return {"dim": 2, "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 12},
            "target": {"kind": "quartic-well", "a": _quartic_a(seed), "b": 0.0},
            "study": {"scheme": "ou", "n_list": [1, 2, 4, 8], "threshold": 0.05}}


# -- per-operation output checks ------------------------------------------------
def _identity_failures(checks: list, where: str) -> list[str]:
    """Accuracy witnesses past the tolerance recorded next to them."""
    found = {c["name"]: c for c in checks}
    bad = []
    for name in WITNESSES:
        rec = found.get(name)
        if rec is None:
            bad.append(f"{where}{name} missing")
        elif not abs(rec["lhs"] - rec["rhs"]) <= rec["tolerance"]:
            bad.append(f"{where}{name}={rec['lhs'] - rec['rhs']:.3g} > {rec['tolerance']:g}")
    return bad


def check_battery(out: Path, config: dict) -> list[str]:
    report = json.loads((out / "battery_report.json").read_text())
    agg = report["aggregate"]
    bad = [f"failed entry {name}" for name in agg["failed_entries"]]
    if not agg["max_oracle_sup_error"] <= ORACLE_TOL:
        bad.append(f"max_oracle_sup_error={agg['max_oracle_sup_error']:.3g} > {ORACLE_TOL:g}")
    oracle_entries = 0
    for entry in report["entries"]:
        if "error" in entry:
            bad.append(f"{entry['name']}: {entry['error']}")
            continue
        checks = entry["diagnostics"]["checks"]
        bad += _identity_failures(checks, f"{entry['name']}: ")
        oracle_entries += any(c["name"] == "oracle_map_agreement" for c in checks)
    if len(report["entries"]) != 14 or oracle_entries != 12:
        bad.append(f"expected 14 entries with 12 oracle checks, got "
                   f"{len(report['entries'])} and {oracle_entries}")
    return bad


def check_solve(out: Path, config: dict) -> list[str]:
    report = json.loads((out / "solve_report.json").read_text())
    bad = _identity_failures(report["diagnostics"]["checks"], "")
    if not report["solve"]["converged"]:
        bad.append("solver did not converge")
    return bad


def check_study(out: Path, config: dict) -> list[str]:
    report = json.loads((out / "study_report.json").read_text())
    rows = sorted(report["rows"], key=lambda r: r["n"])
    threshold = config["study"]["threshold"]
    bad = [f"row n={r['n']}: {r['status']}" for r in rows if r["status"] != "ok"]
    final = rows[-1]["grad_phi_err"] if rows else float("nan")
    if not (math.isfinite(final) and final <= threshold):
        bad.append(f"final grad_phi_err={final!r} > threshold {threshold!r}")
    if len(rows) != len(config["study"]["n_list"]):
        bad.append(f"expected {len(config['study']['n_list'])} study rows, got {len(rows)}")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # CLI subcommand
    threads: int
    make_config: object     # seed -> config dict
    check: object           # (out dir, config) -> list of failure descriptions
    reports: tuple          # files every operation must write
    shape_layers: tuple     # layers expected to hold most of the self time
    why: str

    def argv(self, config_path: Path, out: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out),
                "--threads", str(self.threads)]


WORKLOADS = {w.name: w for w in (
    Workload("battery", "battery", 1, battery_config, check_battery,
             ("battery_report.json", "battery_summary.txt"), ("oracle1d",),
             "default battery, --threads 1: single-threaded baseline, the 1d oracle holds most "
             "of the time; seeds>0 shift means by U(+-0.05), scale sigmas and a by 1+U(+-2%)"),
    Workload("gaussian-3d", "solve", 1, gaussian_3d_config, check_solve,
             ("solve_report.json", "solve_summary.txt"),
             ("solver_forward", "kernel", "solver_backward"),
             "3d solve on 13824 nodes: batched eigvalsh/inv on (N,3,3), BFGS and conjugacy "
             "Newton at scale, no oracle call; seeds>0 shift means by U(+-0.05), scale sigmas "
             "by 1+U(+-2%)"),
    Workload("study-ou-2d", "study", 1, study_ou_2d_config, check_study,
             ("study_report.json", "study_table.csv"),
             ("solver_backward", "hermite", "targets"),
             "2d OU study: five warm-started solves, conjugacy re-solves and the smoothed "
             "target's log-sum-exp dominate; seeds>0 scale the quartic a by 1+U(+-1%)"),
    Workload("battery-threads2", "battery", 2, battery_config, check_battery,
             ("battery_report.json", "battery_summary.txt"), ("oracle1d",),
             "the battery input with --threads 2: the only load on the cli thread pool; "
             "seeds>0 jitter the targets as in battery"),
    Workload("quartic-3d", "solve", 1, quartic_3d_config, check_solve,
             ("solve_report.json", "solve_summary.txt"),
             ("solver_forward", "solver_backward", "kernel"),
             "ROADMAP 3d quartic (2744 nodes): every operation fails with "
             "SingularJacobianError at this commit, so it is not in BENCHMARK.json"),
)}
