"""Batch experiment driver.

Subcommands:

    mongelab solve   --config cfg.json [--out DIR] [--seed N] [--threads N]
    mongelab study   --config cfg.json [--out DIR] ...
    mongelab battery --config cfg.json [--out DIR] ...
    mongelab oracle  --config cfg.json [--out DIR] ...

Configs are strict JSON: unknown keys are errors and messages name the
offending field.  Exit codes: 0 success, 2 config error (or an unreadable
config file or unwritable --out), 3 solver did not converge, 4 a check
failed or a computation could not complete (reports are still written).

Reports embed the config hash, tool version, and quadrature description;
identical config + seed yields byte-identical files in any fresh
interpreter on one machine and BLAS kernel.  Diagnostics are
serialized one record per check with the schema

    {"name", "kind": identity|inequality|ratio|skipped,
     "lhs", "rhs", "slack": rhs - lhs, "tolerance", "passed", "note"}

where identities pass iff |slack| <= tolerance and inequalities iff
slack >= -tolerance; ratio and skipped records never gate the exit code.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .diagnostics import CheckThresholds, run_standard_checks
from .errors import ConfigError, MongelabError
from .gaussian import MAX_TENSOR_DIM, GaussianSpace
from .oracle1d import (
    GRID,
    QuantileTable,
    monotone_map,
    potential_from_map,
    quantile_table,
    wasserstein2_sq,
)
from .reports import TOOL_VERSION, config_hash, write_json, write_text
from .smoothing import StudyTable, convergence_study
from .solver_backward import fit_dual
from .solver_forward import SolveConfig, solve, variational_gap, wasserstein_check
from .targets import (
    ScalarTarget,
    gaussian_target,
    mixture_target,
    quartic_well_target,
    tabulated_target_1d,
)

ORACLE_WINDOW = (-3.0, 3.0)


def _require_object(cfg, path: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected an object at {path.rstrip('.') or 'top level'}")


def _require(cfg: dict, key: str, path: str):
    _require_object(cfg, path)
    if key not in cfg:
        raise ConfigError(f"missing config key: {path}{key}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set, path: str) -> None:
    _require_object(cfg, path)
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown config key: {path}{key}")


def _int_at_least(value, key: str, least: int) -> int:
    """value for a JSON integer >= least (booleans are not integers)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"config key {key} must be an integer >= {least}, got {value!r}")
    return value


def _finite_float(value, key: str, least: float | None = None) -> float:
    """float(value) for a finite JSON number (booleans and strings are not
    numbers), also >= least when given: a tolerance or threshold bounds a
    residual, and below 0 even an exact result would fail it."""
    # the comparison is exact for ints and false for NaN
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"config key {key} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"config key {key} must be >= {least}, got {value!r}")
    return float(value)


def build_space(cfg: dict, dim: int, seed: int, path: str = "",
                rules: dict | None = None) -> GaussianSpace:
    """The quadrature rule cfg of the entry at path; a monte-carlo rule draws
    its samples with seed.

    rules holds the last rule built under its key, ("tensor-hermite", dim,
    level) or ("monte-carlo", dim, samples, seed), made from the validated
    values.  An equal key returns that rule again, which is safe because a
    GaussianSpace is immutable; any other key replaces it, so rules never
    keeps more than one.
    """
    qpath = path + "quadrature."
    kind = _require(cfg, "kind", qpath)
    if kind == "tensor-hermite":
        _check_keys(cfg, {"kind", "level"}, qpath)
        level = _int_at_least(_require(cfg, "level", qpath), qpath + "level", 1)
        key = (kind, dim, level)
    elif kind == "monte-carlo":
        _check_keys(cfg, {"kind", "samples"}, qpath)
        samples = _int_at_least(_require(cfg, "samples", qpath), qpath + "samples", 1)
        key = (kind, dim, samples, seed)
    else:
        raise ConfigError(f"{qpath}kind must be 'tensor-hermite' or 'monte-carlo', got {kind!r}")
    rules = {} if rules is None else rules
    if key not in rules:
        rules.clear()
        try:
            rules[key] = (GaussianSpace.tensor_hermite(dim, level) if kind == "tensor-hermite"
                          else GaussianSpace.monte_carlo(dim, samples, seed))
        except ValueError as exc:
            # only tensor_hermite refuses validated values, and it checks dim before level
            name = "dim" if dim > MAX_TENSOR_DIM else "quadrature.level"
            raise ConfigError(f"{path}{name}: {exc}") from exc
    return rules[key]


def build_target(cfg: dict, dim: int, path: str = "target.") -> ScalarTarget:
    kind = _require(cfg, "kind", path)
    try:
        # check_consistency refuses a non-finite f, grad or hess by name
        with np.errstate(all="ignore"):
            if kind == "gaussian":
                _check_keys(cfg, {"kind", "mean", "sigma"}, path)
                return gaussian_target(_require(cfg, "mean", path), _require(cfg, "sigma", path),
                                       dim=dim)
            if kind == "quartic-well":
                _check_keys(cfg, {"kind", "a", "b"}, path)
                return quartic_well_target(_finite_float(_require(cfg, "a", path), path + "a"),
                                           _finite_float(_require(cfg, "b", path), path + "b"),
                                           dim=dim)
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


def build_solve_config(cfg: dict, degree: int, path: str = "solver.") -> SolveConfig:
    _check_keys(cfg, {"optimizer", "max_iters", "grad_tol"}, path)
    max_iters = _int_at_least(cfg.get("max_iters", SolveConfig.max_iters), path + "max_iters", 1)
    grad_tol = _finite_float(cfg.get("grad_tol", SolveConfig.grad_tol), path + "grad_tol")
    try:
        optimizer = cfg.get("optimizer", "quasi-newton")  # kept for the documented config format
        if optimizer != "quasi-newton":
            raise ValueError(f"unknown optimizer {optimizer!r}")
        return SolveConfig(degree=degree, max_iters=max_iters, grad_tol=grad_tol)
    except ValueError as exc:
        raise ConfigError(f"invalid {path.rstrip('.')}: {exc}") from exc


def build_thresholds(cfg: dict, path: str = "tolerances.") -> CheckThresholds:
    """CheckThresholds with each tolerances key that cfg sets; a key is a field name."""
    names = [f.name for f in dataclasses.fields(CheckThresholds)]
    _check_keys(cfg, set(names), path)
    return CheckThresholds(**{name: _finite_float(cfg[name], path + name, least=0)
                              for name in names if name in cfg})


_ENTRY_KEYS = {"name", "dim", "degree", "quadrature", "target", "solver", "seed", "dual_degree"}


def error_text(exc: MongelabError) -> str:
    return f"{type(exc).__name__}: {exc}"


def build_problem(cfg: dict, default_seed: int, path: str = "", rules: dict | None = None):
    """(dim, degree, seed, space, target, solver config) of one solve config;
    rules as in build_space."""
    dim = _int_at_least(_require(cfg, "dim", path), path + "dim", 1)
    degree = _int_at_least(_require(cfg, "degree", path), path + "degree", 1)
    seed = _int_at_least(cfg.get("seed", default_seed), path + "seed", 0)
    space = build_space(_require(cfg, "quadrature", path), dim, seed, path, rules)
    target = build_target(_require(cfg, "target", path), dim, path + "target.")
    solver_cfg = build_solve_config(cfg.get("solver", {}), degree, path + "solver.")
    return dim, degree, seed, space, target, solver_cfg


def run_entry(cfg: dict, default_seed: int, thresholds: CheckThresholds, path: str = "",
              rules: dict | None = None):
    """Solve + dual + diagnostics for one experiment; returns a result dict.

    Errors in the config raise.  A MongelabError of the computation is
    returned as the dict's "error" (error_text), next to the "solve" block
    when the forward solve finished.  "code" is the entry's exit code: 4 on
    an error, 3 if the solve did not converge, 4 if a check failed, else 0.
    rules is build_space's: a battery passes one dict to every entry, so
    consecutive entries on equal rules share one.
    """
    _check_keys(cfg, _ENTRY_KEYS, path)
    dim, degree, seed, space, target, solver_cfg = build_problem(cfg, default_seed, path, rules)
    dual_degree = cfg.get("dual_degree")
    if "dual_degree" in cfg:  # null is not a degree
        _int_at_least(dual_degree, path + "dual_degree", 1)
    name = cfg.get("name", f"{target.kind}-d{dim}")
    if not isinstance(name, str):
        raise ConfigError(f"config key {path}name must be a string, got {name!r}")

    metadata = {
        "name": name,
        "dim": dim,
        "degree": degree,
        "target_kind": target.kind,
        "target_params": target.params,
        "quadrature": space.description,
        "seed": seed,
    }
    outcome = {"metadata": metadata, "code": 4}
    try:
        result = solve(space, target, solver_cfg)
        outcome["solve"] = {
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
            "grad_norm": result.grad_norm,
            "wasserstein2_sq": result.wasserstein2_sq,
            "variational_lhs": result.variational_lhs,
            "variational_gap": variational_gap(result),
            "phi": result.phi.to_json_dict(),
        }
        dual = fit_dual(space, result.nu_weights, result.phi, degree=dual_degree)
        report = run_standard_checks(space, target, result, dual, thresholds=thresholds,
                                     metadata=metadata)
        # one quantile table serves the W2 reference and the map check
        table = quantile_table(target) if dim == 1 and target.kind != "gaussian" else None
        w2, w2_ref = wasserstein_check(result, target, table)
        if np.isfinite(w2_ref):
            report.add_identity("wasserstein_vs_reference", w2, w2_ref, thresholds.identity,
                                note="quadrature vs closed form / 1d rearrangement")
        if dim == 1:
            reference = "T_exact" if target.kind == "gaussian" else "T_oracle"
            report.add_identity("oracle_map_agreement",
                                oracle_map_sup_error(result.phi, target, table),
                                0.0, thresholds.oracle,
                                note=f"sup|T_solver - {reference}| on {ORACLE_WINDOW}")
    except MongelabError as exc:
        outcome["error"] = error_text(exc)
        return outcome
    outcome["dual"] = dual.to_json_dict()
    outcome["report"] = report
    if not result.converged:
        outcome["code"] = 3
    elif report.all_passed():
        outcome["code"] = 0
    return outcome


def oracle_map_sup_error(phi, target: ScalarTarget, table: QuantileTable | None = None) -> float:
    """sup over ORACLE_WINDOW of |T_solver - T_ref| for a 1d target: T_ref is
    the exact map m + sigma x of a gaussian target, else the 1d oracle's map
    on table, the target's quantile_table (built here when None)."""
    xs = np.linspace(ORACLE_WINDOW[0], ORACLE_WINDOW[1], 241)
    t_solver = xs + phi.grad(xs.reshape(-1, 1))[:, 0]
    if target.kind == "gaussian":
        t_ref = target.params["mean"][0] + target.params["sigma"][0] * xs
    else:
        t_ref = monotone_map(target, xs, table).t
    return float(np.max(np.abs(t_solver - t_ref)))


def _load_config(path: str, seed: int | None) -> dict:
    """The config object in the file at path, its "seed" set to seed unless None."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    _require_object(cfg, "")
    if seed is not None:
        cfg["seed"] = seed
    return cfg


def _write_reports(out_dir: Path, files: dict, error: str | None) -> int:
    """Write {name: dict as JSON, str as text} under out_dir; 4 after printing
    the error when there is one, else 0."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (write_json if isinstance(content, dict) else write_text)(out_dir / name, content)
    except OSError as exc:
        raise ConfigError(f"cannot write reports under {out_dir}: {exc}") from exc
    if error is None:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return 4


_SOLVE_KEYS = _ENTRY_KEYS | {"tolerances"}


def cmd_solve(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, _SOLVE_KEYS, "")
    thresholds = build_thresholds(cfg.get("tolerances", {}))
    entry_cfg = {k: v for k, v in cfg.items() if k in _ENTRY_KEYS}
    outcome = run_entry(entry_cfg, cfg.get("seed", 0), thresholds)

    meta = outcome["metadata"]
    payload = {"tool_version": TOOL_VERSION, "config_hash": config_hash(cfg), "metadata": meta}
    lines = [
        f"mongelab solve ({TOOL_VERSION})  config={config_hash(cfg)[:12]}",
        f"target={meta['target_kind']} dim={meta['dim']} degree={meta['degree']}",
        f"quadrature={meta['quadrature']}",
    ]
    if "solve" in outcome:
        solved = payload["solve"] = outcome["solve"]
        lines += [
            f"objective={solved['objective']!r} gap={solved['variational_gap']!r} "
            f"w2sq={solved['wasserstein2_sq']!r}",
            f"converged={solved['converged']} iterations={solved['iterations']}",
        ]
    error = outcome.get("error")
    if error is None:
        report = outcome["report"]
        payload["dual"] = outcome["dual"]
        payload["diagnostics"] = report.to_json_dict()
        lines += ["", *report.summary_lines()]
    else:
        payload["error"] = error
        lines.append(f"error: {error}")
    files = {"solve_report.json": payload, "solve_summary.txt": "\n".join(lines)}
    return _write_reports(out_dir, files, error) or outcome["code"]


_STUDY_KEYS = {"dim", "degree", "quadrature", "target", "solver", "seed", "study"}


def cmd_study(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, _STUDY_KEYS, "")
    study_cfg = _require(cfg, "study", "")
    _check_keys(study_cfg, {"scheme", "n_list", "threshold", "reference"}, "study.")
    scheme = _require(study_cfg, "scheme", "study.")
    if scheme not in ("ou", "truncation"):
        raise ConfigError(f"study.scheme must be 'ou' or 'truncation', got {scheme!r}")
    n_list = _require(study_cfg, "n_list", "study.")
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError("study.n_list must be a nonempty list of integers")
    for i, n in enumerate(n_list):
        _int_at_least(n, f"study.n_list[{i}]", 1)
    threshold = _finite_float(study_cfg.get("threshold", 1e-2), "study.threshold", least=0)
    reference = study_cfg.get("reference", "raw")
    if reference not in ("raw", "finest"):
        raise ConfigError(f"study.reference must be 'raw' or 'finest', got {reference!r}")
    if reference == "finest" and len(set(n_list)) < 2:
        raise ConfigError("study.n_list needs two distinct values for reference 'finest'")

    _, _, _, space, target, solver_cfg = build_problem(cfg, 0)
    error = None
    try:
        table = convergence_study(space, target, scheme, n_list, solver_cfg, reference=reference)
    except MongelabError as exc:  # the reference solve failed: no row can be measured
        error = error_text(exc)
        table = StudyTable(scheme=scheme, reference=reference)
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "scheme": scheme,
        "reference": table.reference,
        "threshold": threshold,
        "quadrature": space.description,
        "rows": [dataclasses.asdict(r) for r in table.rows],
    }
    if error is not None:
        payload["error"] = error
    files = {"study_table.csv": table.to_csv(), "study_report.json": payload}
    if _write_reports(out_dir, files, error):
        return 4
    final = table.rows[-1]  # a NaN error fails the comparison
    return 0 if final.status == "ok" and final.grad_phi_err <= threshold else 4


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


def cmd_battery(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, {"battery", "seed", "tolerances"}, "")
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
    seed = _int_at_least(cfg.get("seed", 0), "seed", 0)

    rules: dict = {}  # the last entry's rule, shared with the next entry on an equal one
    min_slack: dict = {}
    max_identity: dict = {}
    max_oracle = 0.0
    max_ratio = 0.0
    skipped = []
    failed_entries = []
    entry_payloads = []
    for idx, entry in enumerate(entries):
        path = f"battery[{idx}]."
        _require_object(entry, path)
        name = entry.get("name", f"entry-{idx}")
        # the aggregate and the summary tell entries apart by name alone
        if not isinstance(name, str) or any(p["name"] == name for p in entry_payloads):
            raise ConfigError(f"config key {path}name must be a string no other entry has, "
                              f"got {name!r}")
        outcome = run_entry({**entry, "name": name}, seed, thresholds, path=path, rules=rules)
        if outcome["code"]:
            failed_entries.append(name)
        if "error" in outcome:
            entry_payloads.append({"name": name, "error": outcome["error"]})
            continue
        report = outcome["report"]
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
        "failed_entries": sorted(failed_entries),
    }
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "aggregate": aggregate,
        "entries": entry_payloads,
    }
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
    files = {"battery_report.json": payload, "battery_summary.txt": "\n".join(lines)}
    return _write_reports(out_dir, files, None) or (4 if failed_entries else 0)


def cmd_oracle(cfg: dict, out_dir: Path) -> int:
    _check_keys(cfg, {"target", "grid", "seed"}, "")
    _int_at_least(cfg.get("seed", 0), "seed", 0)  # accepted for symmetry; the oracle draws nothing
    target = build_target(_require(cfg, "target", ""), 1)
    grid_cfg = cfg.get("grid", {})
    _check_keys(grid_cfg, {"lo", "hi", "count"}, "grid.")
    lo = _finite_float(grid_cfg.get("lo", GRID[0]), "grid.lo")
    hi = _finite_float(grid_cfg.get("hi", GRID[-1]), "grid.hi")
    if not lo < hi:
        raise ConfigError(f"grid.lo and grid.hi must satisfy lo < hi, got {lo!r}, {hi!r}")
    count = _int_at_least(grid_cfg.get("count", GRID.size), "grid.count", 2)
    payload = {
        "tool_version": TOOL_VERSION,
        "config_hash": config_hash(cfg),
        "target_kind": target.kind,
        "target_params": target.params,
        "grid": {"lo": lo, "hi": hi, "count": count},
    }
    lines = ["x,map,potential"]
    try:
        table = quantile_table(target)
        transport = monotone_map(target, np.linspace(lo, hi, count), table)
        potential = potential_from_map(transport)
        # on the full default grid, independent of the dump window
        payload["wasserstein2_sq"] = wasserstein2_sq(monotone_map(target, table=table))
    except MongelabError as exc:  # the table keeps its header, the report says why
        payload["error"] = error_text(exc)
    else:
        lines += [f"{float(x)!r},{float(t)!r},{float(p)!r}"
                  for x, t, p in zip(transport.x, transport.t, potential.phi)]
    files = {"oracle_table.csv": "\n".join(lines), "oracle_report.json": payload}
    return _write_reports(out_dir, files, payload.get("error"))


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
        # --threads is accepted for compatibility and ignored: entries run in order
        return handler(_load_config(args.config, args.seed), Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
