"""Batch experiment driver.

Subcommands:

    mongelab solve   --config cfg.json [--out DIR] [--seed N] [--threads N]
    mongelab study   --config cfg.json [--out DIR] ...
    mongelab battery --config cfg.json [--out DIR] ...
    mongelab oracle  --config cfg.json [--out DIR] ...

Configs are strict JSON: unknown keys are errors and messages name the
offending field.  Exit codes: 0 success, 2 config error, 3 solver did
not converge, 4 a check failed or a computation could not complete
(reports are still written).

Reports embed the config hash, tool version, and quadrature description;
identical config + seed yields byte-identical files.  Diagnostics are
serialized one record per check with the schema

    {"name", "kind": identity|inequality|ratio|skipped,
     "lhs", "rhs", "slack": rhs - lhs, "tolerance", "passed", "note"}

where identities pass iff |slack| <= tolerance and inequalities iff
slack >= -tolerance; ratio and skipped records never gate the exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .diagnostics import CheckThresholds, run_standard_checks
from .errors import ConfigError, MongelabError
from .gaussian import GaussianSpace
from .oracle1d import monotone_map, potential_from_map, wasserstein2_sq
from .reports import TOOL_VERSION, config_hash, write_json, write_text
from .smoothing import convergence_study
from .solver_backward import conjugate, fit_dual
from .solver_forward import SolveConfig, solve, variational_gap, wasserstein_check
from .targets import (
    ScalarTarget,
    gaussian_target,
    mixture_target,
    quartic_well_target,
    tabulated_target_1d,
)

ORACLE_WINDOW = (-3.0, 3.0)


def _require(cfg: dict, key: str, path: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {path}{key}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, path: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object at {path.rstrip('.') or 'top level'}")
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {path}{key}")


def _positive_int(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"config key {name} must be a positive integer")
    return value


def build_space(cfg: dict, dim: int, default_seed: int, path: str = "quadrature.") -> GaussianSpace:
    _check_keys(cfg, {"kind", "level", "samples", "seed"}, path)
    kind = _require(cfg, "kind", path)
    if kind == "tensor-hermite":
        level = _positive_int(_require(cfg, "level", path), path + "level")
        try:
            return GaussianSpace.tensor_hermite(dim, level)
        except ValueError as exc:
            raise ConfigError(f"{path}level: {exc}") from exc
    if kind == "monte-carlo":
        samples = _positive_int(_require(cfg, "samples", path), path + "samples")
        seed = cfg.get("seed", default_seed)
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ConfigError(f"config key {path}seed must be a nonnegative integer")
        return GaussianSpace.monte_carlo(dim, samples, seed)
    raise ConfigError(f"{path}kind must be 'tensor-hermite' or 'monte-carlo', got {kind!r}")


def build_target(cfg: dict, dim: int, path: str = "target.") -> ScalarTarget:
    kind = _require(cfg, "kind", path)
    try:
        if kind == "gaussian":
            _check_keys(cfg, {"kind", "mean", "sigma"}, path)
            return gaussian_target(_require(cfg, "mean", path), _require(cfg, "sigma", path), dim=dim)
        if kind == "quartic-well":
            _check_keys(cfg, {"kind", "a", "b"}, path)
            return quartic_well_target(float(_require(cfg, "a", path)),
                                       float(_require(cfg, "b", path)), dim=dim)
        if kind == "mixture":
            _check_keys(cfg, {"kind", "weights", "means", "sigmas"}, path)
            return mixture_target(_require(cfg, "weights", path), _require(cfg, "means", path),
                                  _require(cfg, "sigmas", path), dim=dim)
        if kind == "tabulated-1d":
            _check_keys(cfg, {"kind", "xs", "fs"}, path)
            if dim != 1:
                raise ConfigError(f"{path}kind: tabulated-1d requires dim = 1")
            return tabulated_target_1d(_require(cfg, "xs", path), _require(cfg, "fs", path))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {path.rstrip('.')}: {exc}") from exc
    raise ConfigError(f"{path}kind: unknown target kind {kind!r}")


def build_solve_config(cfg: dict, degree: int, seed: int, path: str = "solver.") -> SolveConfig:
    _check_keys(cfg, {"optimizer", "max_iters", "grad_tol", "grad_tol_soft", "eig_floor"}, path)
    try:
        return SolveConfig(
            degree=degree,
            optimizer=cfg.get("optimizer", "quasi-newton"),
            max_iters=cfg.get("max_iters", 500),
            grad_tol=float(cfg.get("grad_tol", 1e-8)),
            grad_tol_soft=float(cfg.get("grad_tol_soft", 1e-4)),
            eig_floor=float(cfg.get("eig_floor", 1e-8)),
            seed=seed,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {path.rstrip('.')}: {exc}") from exc


def build_thresholds(cfg: dict, path: str = "tolerances.") -> CheckThresholds:
    _check_keys(cfg, {"identity", "inequality", "trace", "variational_gap", "oracle"}, path)
    base = CheckThresholds()
    try:
        return CheckThresholds(
            identity_closed_form=base.identity_closed_form,
            identity_solved=float(cfg.get("identity", base.identity_solved)),
            inequality=float(cfg.get("inequality", base.inequality)),
            trace=float(cfg.get("trace", base.trace)),
            variational_gap=float(cfg.get("variational_gap", base.variational_gap)),
            oracle=float(cfg.get("oracle", base.oracle)),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {path.rstrip('.')}: {exc}") from exc


_ENTRY_KEYS = {"name", "dim", "degree", "quadrature", "target", "solver", "seed", "dual_degree"}


def run_entry(cfg: dict, default_seed: int, thresholds: CheckThresholds, path: str = ""):
    """Solve + dual + diagnostics for one experiment; returns a result dict."""
    _check_keys(cfg, _ENTRY_KEYS, path)
    dim = _positive_int(_require(cfg, "dim", path), path + "dim")
    degree = _positive_int(_require(cfg, "degree", path), path + "degree")
    seed = cfg.get("seed", default_seed)
    space = build_space(_require(cfg, "quadrature", path), dim, seed, path + "quadrature.")
    target = build_target(_require(cfg, "target", path), dim, path + "target.")
    solver_cfg = build_solve_config(cfg.get("solver", {}), degree, seed, path + "solver.")

    result = solve(space, target, solver_cfg)
    dual = fit_dual(space, target, conjugate(space, result.phi, grid=space.nodes),
                    degree=cfg.get("dual_degree"))
    metadata = {
        "name": cfg.get("name", f"{target.kind}-d{dim}"),
        "dim": dim,
        "degree": degree,
        "target_kind": target.kind,
        "target_params": target.params,
        "quadrature": space.rule.description,
        "seed": seed,
    }
    report = run_standard_checks(space, target, result, dual, thresholds=thresholds,
                                 metadata=metadata)
    w2, w2_ref = wasserstein_check(space, result, target)
    if np.isfinite(w2_ref):
        report.add_identity("wasserstein_vs_reference", w2, w2_ref, 1e-3,
                            note="quadrature vs closed form / 1d rearrangement")
    oracle_sup = None
    if dim == 1:
        oracle_sup = oracle_map_sup_error(result.phi, target)
        report.add_identity("oracle_map_agreement", oracle_sup, 0.0, thresholds.oracle,
                            note=f"sup|T_solver - T_oracle| on {ORACLE_WINDOW}")
    return {
        "metadata": metadata,
        "solve": {
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
            "grad_norm": result.grad_norm,
            "wasserstein2_sq": result.wasserstein2_sq,
            "variational_lhs": result.variational_lhs,
            "variational_gap": variational_gap(space, target, result),
            "phi": result.phi.to_json_dict(),
        },
        "dual": dual.to_json_dict(),
        "report": report,
        "converged": result.converged,
    }


def oracle_map_sup_error(phi, target: ScalarTarget) -> float:
    xs = np.linspace(ORACLE_WINDOW[0], ORACLE_WINDOW[1], 241)
    t_solver = xs + phi.grad(xs.reshape(-1, 1))[:, 0]
    t_oracle = monotone_map(target, xs).t
    return float(np.max(np.abs(t_solver - t_oracle)))


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


_SOLVE_KEYS = _ENTRY_KEYS | {"tolerances"}


def cmd_solve(config_path: str, out_dir: Path, seed_override, threads: int) -> int:
    cfg = _load_config(config_path)
    _check_keys(cfg, _SOLVE_KEYS, "")
    if seed_override is not None:
        cfg["seed"] = seed_override
    thresholds = build_thresholds(cfg.get("tolerances", {}))
    entry_cfg = {k: v for k, v in cfg.items() if k in _ENTRY_KEYS}
    outcome = run_entry(entry_cfg, cfg.get("seed", 0), thresholds)

    report = outcome["report"]
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "metadata": outcome["metadata"],
        "solve": outcome["solve"],
        "dual": outcome["dual"],
        "diagnostics": report.to_json_dict(),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "solve_report.json", payload)
    lines = [
        f"mongelab solve ({TOOL_VERSION})  config={config_hash(cfg)[:12]}",
        f"target={outcome['metadata']['target_kind']} dim={outcome['metadata']['dim']} "
        f"degree={outcome['metadata']['degree']}",
        f"quadrature={outcome['metadata']['quadrature']}",
        f"objective={outcome['solve']['objective']!r} "
        f"gap={outcome['solve']['variational_gap']!r} "
        f"w2sq={outcome['solve']['wasserstein2_sq']!r}",
        f"converged={outcome['solve']['converged']} iterations={outcome['solve']['iterations']}",
        "",
    ]
    lines.extend(report.summary_lines())
    write_text(out_dir / "solve_summary.txt", "\n".join(lines))
    if not outcome["converged"]:
        return 3
    return 0 if report.all_passed() else 4


_STUDY_KEYS = _SOLVE_KEYS | {"study"}


def cmd_study(config_path: str, out_dir: Path, seed_override, threads: int) -> int:
    cfg = _load_config(config_path)
    _check_keys(cfg, _STUDY_KEYS, "")
    if seed_override is not None:
        cfg["seed"] = seed_override
    study_cfg = _require(cfg, "study", "")
    _check_keys(study_cfg, {"scheme", "n_list", "threshold", "reference"}, "study.")
    scheme = _require(study_cfg, "scheme", "study.")
    if scheme not in ("ou", "truncation"):
        raise ConfigError(f"study.scheme must be 'ou' or 'truncation', got {scheme!r}")
    n_list = _require(study_cfg, "n_list", "study.")
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError("study.n_list must be a nonempty list of integers")
    threshold = float(study_cfg.get("threshold", 1e-2))
    reference = study_cfg.get("reference", "raw")
    if reference not in ("raw", "finest"):
        raise ConfigError(f"study.reference must be 'raw' or 'finest', got {reference!r}")

    dim = _positive_int(_require(cfg, "dim", ""), "dim")
    degree = _positive_int(_require(cfg, "degree", ""), "degree")
    seed = cfg.get("seed", 0)
    space = build_space(_require(cfg, "quadrature", ""), dim, seed)
    target = build_target(_require(cfg, "target", ""), dim)
    solver_cfg = build_solve_config(cfg.get("solver", {}), degree, seed)

    table = convergence_study(space, target, scheme, n_list, solver_cfg, reference=reference)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text(out_dir / "study_table.csv", table.to_csv())
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "scheme": scheme,
        "reference": table.reference,
        "threshold": threshold,
        "quadrature": space.rule.description,
        "rows": [
            {
                "n": r.n,
                "grad_phi_err": r.grad_phi_err,
                "psi_err": r.psi_err,
                "psi_err_smoothed": r.psi_err_smoothed,
                "w2sq": r.w2sq,
                "status": r.status,
            }
            for r in table.rows
        ],
    }
    write_json(out_dir / "study_report.json", payload)
    final = table.rows[-1]
    if final.status != "ok" or not np.isfinite(final.grad_phi_err):
        return 4
    return 0 if final.grad_phi_err <= threshold else 4


def default_battery() -> list[dict]:
    entries = []
    for m in (0.0, 1.0, -1.0):
        for s in (0.5, 1.0, 2.0):
            entries.append({
                "name": f"gaussian-1d(m={m},sigma={s})",
                "dim": 1,
                "degree": 2,
                "quadrature": {"kind": "tensor-hermite", "level": 60},
                "target": {"kind": "gaussian", "mean": [m], "sigma": s},
            })
    for a, b in ((0.02, 0.1), (0.05, 0.0), (0.03, -0.1)):
        entries.append({
            "name": f"quartic-1d(a={a},b={b})",
            "dim": 1,
            "degree": 10,
            "quadrature": {"kind": "tensor-hermite", "level": 30},
            "target": {"kind": "quartic-well", "a": a, "b": b},
            "solver": {"max_iters": 3000},
        })
    entries.append({
        "name": "gaussian-2d-mean-shift",
        "dim": 2,
        "degree": 2,
        "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "gaussian", "mean": [1.0, -0.5], "sigma": 1.0},
    })
    entries.append({
        "name": "gaussian-2d-diagonal",
        "dim": 2,
        "degree": 2,
        "quadrature": {"kind": "tensor-hermite", "level": 40},
        "target": {"kind": "gaussian", "mean": [0.5, 0.0], "sigma": [2.0, 0.5]},
    })
    return entries


def cmd_battery(config_path: str, out_dir: Path, seed_override, threads: int) -> int:
    cfg = _load_config(config_path)
    _check_keys(cfg, {"battery", "seed", "tolerances"}, "")
    if seed_override is not None:
        cfg["seed"] = seed_override
    battery = _require(cfg, "battery", "")
    if battery == "default":
        entries = default_battery()
    elif isinstance(battery, list):
        entries = battery
    else:
        raise ConfigError("battery must be 'default' or a list of entries")
    if not entries:
        raise ConfigError("battery is empty")
    thresholds = build_thresholds(cfg.get("tolerances", {}))
    seed = cfg.get("seed", 0)

    def run_one(idx_entry):
        idx, entry = idx_entry
        try:
            return run_entry(entry, seed, thresholds, path=f"battery[{idx}].")
        except ConfigError:
            raise
        except MongelabError as exc:
            return {"error": f"{type(exc).__name__}: {exc}",
                    "metadata": {"name": entry.get("name", f"entry-{idx}")}}

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, enumerate(entries)))
    else:
        outcomes = [run_one(pair) for pair in enumerate(entries)]

    min_slack: dict = {}
    max_identity: dict = {}
    max_oracle = 0.0
    max_ratio = 0.0
    skipped = []
    failed_entries = []
    entry_payloads = []
    for outcome in outcomes:
        name = outcome["metadata"]["name"]
        if "error" in outcome:
            failed_entries.append(name)
            entry_payloads.append({"name": name, "error": outcome["error"]})
            continue
        report = outcome["report"]
        if not outcome["converged"]:
            failed_entries.append(name)
        for rec in report.records:
            base = rec.name.split("(")[0]
            if rec.kind == "inequality":
                cur = min_slack.get(base)
                if cur is None or rec.slack < cur:
                    min_slack[base] = rec.slack
            elif rec.kind == "identity":
                cur = max_identity.get(base)
                if cur is None or abs(rec.slack) > cur:
                    max_identity[base] = abs(rec.slack)
                if base == "oracle_map_agreement":
                    max_oracle = max(max_oracle, rec.lhs)
            elif rec.kind == "ratio" and rec.rhs > 0:
                max_ratio = max(max_ratio, rec.lhs / rec.rhs)
            elif rec.kind == "skipped":
                skipped.append({"entry": name, "check": rec.name, "note": rec.note})
        if not report.all_passed():
            failed_entries.append(name)
        entry_payloads.append({
            "name": name,
            "solve": outcome["solve"],
            "diagnostics": report.to_json_dict(),
        })

    aggregate = {
        "min_inequality_slack": dict(sorted(min_slack.items())),
        "max_identity_residual": dict(sorted(max_identity.items())),
        "max_oracle_sup_error": max_oracle,
        "max_quartic_ratio": max_ratio,
        "skipped_checks": skipped,
        "failed_entries": sorted(set(failed_entries)),
    }
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "aggregate": aggregate,
        "entries": entry_payloads,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "battery_report.json", payload)
    lines = [f"mongelab battery ({TOOL_VERSION})  entries={len(entries)}"]
    for key, val in aggregate["min_inequality_slack"].items():
        lines.append(f"min slack {key:28s} {val!r}")
    for key, val in aggregate["max_identity_residual"].items():
        lines.append(f"max resid {key:28s} {val!r}")
    lines.append(f"max oracle sup error {max_oracle!r}")
    lines.append(f"max quartic ratio {max_ratio!r}")
    for item in skipped:
        lines.append(f"skipped {item['entry']}: {item['check']} ({item['note']})")
    for name in aggregate["failed_entries"]:
        lines.append(f"FAILED {name}")
    write_text(out_dir / "battery_summary.txt", "\n".join(lines))

    ok = not aggregate["failed_entries"]
    ok = ok and all(v >= -thresholds.inequality for v in min_slack.values())
    ok = ok and max_oracle <= thresholds.oracle
    return 0 if ok else 4


def cmd_oracle(config_path: str, out_dir: Path, seed_override, threads: int) -> int:
    cfg = _load_config(config_path)
    _check_keys(cfg, {"target", "grid", "seed"}, "")
    target = build_target(_require(cfg, "target", ""), 1)
    grid_cfg = cfg.get("grid", {})
    _check_keys(grid_cfg, {"lo", "hi", "count"}, "grid.")
    try:
        lo = float(grid_cfg.get("lo", -8.0))
        hi = float(grid_cfg.get("hi", 8.0))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"grid.lo and grid.hi must be numbers: {exc}") from exc
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ConfigError(f"grid.lo and grid.hi must be finite with lo < hi, got {lo!r}, {hi!r}")
    count = _positive_int(grid_cfg.get("count", 2001), "grid.count")
    if count < 2:
        raise ConfigError("config key grid.count must be at least 2")
    grid = np.linspace(lo, hi, count)
    transport = monotone_map(target, grid)
    potential = potential_from_map(transport)
    w2 = wasserstein2_sq(target)  # full default grid, independent of the dump window
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["x,map,potential"]
    for x, t, p in zip(transport.x, transport.t, potential.phi):
        lines.append(f"{float(x)!r},{float(t)!r},{float(p)!r}")
    write_text(out_dir / "oracle_table.csv", "\n".join(lines))
    write_json(out_dir / "oracle_report.json", {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "target_kind": target.kind,
        "target_params": target.params,
        "grid": {"lo": lo, "hi": hi, "count": count},
        "wasserstein2_sq": w2,
    })
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mongelab",
                                     description="Gaussian transport potential laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "study", "battery", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    handler = {
        "solve": cmd_solve,
        "study": cmd_study,
        "battery": cmd_battery,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        return handler(args.config, Path(args.out), args.seed, args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MongelabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
