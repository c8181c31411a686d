"""Per-layer metrics of one traced operation, computed from its spans.

Counts are exact.  A layer time is the summed duration of the layer's
spans that are not nested in a span of the same kind (calls *into* the
layer); `<layer>.self_s` is the summed self time of all spans of the
layer (`diagnostics.self_s` is the checks' own time).  Times are
reported twice: in seconds (`*_s`, kept in the result file) and as a
percentage of the operation's busy time (`*_pct`, the per-layer metrics
on the result line, so that a layer that a workload never calls reads
0 % rather than a constant 0 s).  Busy time is the sum of all
self times: the wall time when one thread works, up to wall x threads
when battery entries run on a thread pool.
"""
from __future__ import annotations

from collections import Counter

from tracer import LAYERS, Span, self_times

# seconds-valued metrics; each is also reported as <name minus _s>_pct
TIME_METRICS = (
    "oracle1d.map_s", "oracle1d.w2_s",
    "solver_forward.solve_s", "solver_forward.eval_s",
    "kernel.eigvalsh.s", "kernel.inv.s", "kernel.solve.s", "kernel.lstsq.s",
    "targets.eval_s", "hermite.table_s",
    "solver_backward.conjugate_s", "solver_backward.fit_dual_s", "solver_backward.newton_s",
    "potentials.inv_jacobian_s",
    "diagnostics.checks_s",
    "smoothing.study_s", "smoothing.regularize_s",
    "gaussian.space_build_s",
    "cli.entry_s", "cli.entry_queue_s",
    "reports.write_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)

COUNT_METRICS = (
    "oracle1d.map_calls", "oracle1d.grid_points", "oracle1d.brentq_calls",
    "oracle1d.pchip_builds",
    "solver_forward.solves", "solver_forward.iterations", "solver_forward.objective_evals",
    "solver_forward.infeasible_evals", "solver_forward.unconverged",
    "kernel.eigvalsh.calls", "kernel.eigvalsh.rows", "kernel.eigvalsh.bytes",
    "kernel.inv.calls", "kernel.inv.rows", "kernel.solve.calls", "kernel.solve.rows",
    "kernel.lstsq.calls",
    "targets.eval_calls", "targets.eval_rows",
    "hermite.table_calls", "hermite.table_rows",
    "solver_backward.newton_calls", "solver_backward.newton_points",
    "solver_backward.newton_unconverged",
    "potentials.inv_jacobian_calls",
    "diagnostics.records", "diagnostics.failed_records", "diagnostics.errors",
    "gaussian.nu_weight_calls",
    "reports.bytes_written",
)

RATIO_METRICS = (
    "solver_forward.accepted_ratio",
    "solver_backward.points_per_node",
    "smoothing.rows_ok_ratio",
    "cli.parallel_efficiency",
)

# counts that a deterministic program repeats exactly from one operation to the next
DETERMINISTIC = (
    "solver_forward.iterations", "solver_forward.objective_evals",
    "solver_backward.newton_points", "oracle1d.brentq_calls",
)


def pct_name(name: str) -> str:
    """oracle1d.map_s -> oracle1d.map_pct, kernel.inv.s -> kernel.inv.pct."""
    return name[:-1] + "pct"


def _outermost(spans: list[Span], by_id: dict, match) -> list[Span]:
    """Matching spans whose nearest matching ancestor does not exist."""
    out = []
    for s in spans:
        if not match(s):
            continue
        parent = by_id.get(s.parent)
        while parent is not None and not match(parent):
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def operation_metrics(spans: list[Span], threads: int) -> dict:
    """All per-layer metrics of one operation; spans must share one op id."""
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    if len(roots) != 1:
        raise ValueError(f"expected one root span per operation, found {len(roots)}")
    wall = roots[0].duration
    selfs = self_times(spans)
    names = Counter(s.name for s in spans)

    def named(*wanted):
        return [s for s in spans if s.name in wanted]

    def busy(*wanted):
        return sum(s.duration for s in _outermost(spans, by_id, lambda s: s.name in wanted))

    def info_sum(items, key):
        return sum((s.info or {}).get(key, 0) for s in items)

    m: dict[str, float] = {}
    # oracle1d
    maps = named("oracle1d.monotone_map")
    m["oracle1d.map_calls"] = len(maps)
    m["oracle1d.grid_points"] = info_sum(maps, "grid")
    m["oracle1d.map_s"] = sum(s.duration for s in maps)
    m["oracle1d.brentq_calls"] = names["oracle1d.brentq"]
    m["oracle1d.pchip_builds"] = names["oracle1d.pchip_build"]
    m["oracle1d.w2_s"] = busy("oracle1d.wasserstein2_sq")
    # solver_forward
    solves = named("solver_forward.solve")
    evals = named("solver_forward.evaluate")
    m["solver_forward.solves"] = len(solves)
    m["solver_forward.solve_s"] = busy("solver_forward.solve")
    m["solver_forward.iterations"] = info_sum(solves, "iterations")
    m["solver_forward.objective_evals"] = len(evals)
    m["solver_forward.eval_s"] = sum(s.duration for s in evals)
    m["solver_forward.infeasible_evals"] = info_sum(evals, "infeasible")
    m["solver_forward.unconverged"] = sum(1 for s in solves if s.info and not s.info["converged"])
    m["solver_forward.accepted_ratio"] = (info_sum(solves, "accepted") / len(evals)
                                          if evals else 0.0)
    # kernel
    for kernel in ("eigvalsh", "inv", "solve", "lstsq"):
        calls = named(f"kernel.{kernel}")
        m[f"kernel.{kernel}.calls"] = len(calls)
        m[f"kernel.{kernel}.s"] = sum(s.duration for s in calls)
        if kernel != "lstsq":
            m[f"kernel.{kernel}.rows"] = info_sum(calls, "rows")
        if kernel == "eigvalsh":
            m["kernel.eigvalsh.bytes"] = info_sum(calls, "bytes")
    # targets: calls into the layer, not a smoothed target's calls to its base
    top_targets = _outermost(spans, by_id, lambda s: s.layer == "targets")
    m["targets.eval_calls"] = len(top_targets)
    m["targets.eval_rows"] = info_sum(top_targets, "rows")
    m["targets.eval_s"] = sum(s.duration for s in top_targets)
    # hermite
    tables = [s for s in spans if s.layer == "hermite"]
    m["hermite.table_calls"] = len(tables)
    m["hermite.table_rows"] = info_sum(tables, "rows")
    m["hermite.table_s"] = sum(s.duration for s in tables)
    # solver_backward
    newton = named("solver_backward.conjugacy_minimize")
    spaces = [s for s in named("gaussian.space_build")
              if s.parent in by_id and by_id[s.parent].layer == "cli"]
    nodes = info_sum(spaces, "nodes")
    m["solver_backward.conjugate_s"] = busy("solver_backward.conjugate")
    m["solver_backward.fit_dual_s"] = busy("solver_backward.fit_dual")
    m["solver_backward.newton_calls"] = len(newton)
    m["solver_backward.newton_points"] = info_sum(newton, "rows")
    m["solver_backward.newton_unconverged"] = info_sum(newton, "unconverged")
    m["solver_backward.newton_s"] = sum(s.duration for s in newton)
    m["solver_backward.points_per_node"] = (m["solver_backward.newton_points"] / nodes
                                            if nodes else 0.0)
    # potentials
    inv_jac = named("potentials.inverse_shift_jacobian")
    m["potentials.inv_jacobian_calls"] = len(inv_jac)
    m["potentials.inv_jacobian_s"] = sum(s.duration for s in inv_jac)
    # diagnostics
    checks = named("diagnostics.run_standard_checks")
    m["diagnostics.checks_s"] = busy("diagnostics.run_standard_checks")
    m["diagnostics.records"] = info_sum(checks, "records")
    m["diagnostics.failed_records"] = info_sum(checks, "failed")
    diag_errors = Counter(s.error for s in spans if s.layer == "diagnostics" and s.error)
    m["diagnostics.errors"] = sum(diag_errors.values())
    # smoothing
    studies = named("smoothing.convergence_study")
    rows = info_sum(studies, "rows")
    m["smoothing.study_s"] = busy("smoothing.convergence_study")
    m["smoothing.regularize_s"] = busy("smoothing.smooth_target", "smoothing.truncate_density")
    m["smoothing.rows_ok_ratio"] = info_sum(studies, "ok_rows") / rows if rows else 0.0
    # gaussian
    m["gaussian.space_build_s"] = busy("gaussian.space_build")
    m["gaussian.nu_weight_calls"] = names["gaussian.nu_weights"]
    # cli: battery entries are all ready when the first one starts
    entries = named("cli.run_entry")
    first = min((s.start for s in entries), default=0.0)
    m["cli.entry_s"] = sum(s.duration for s in entries)
    m["cli.entry_queue_s"] = sum(s.start - first for s in entries)
    m["cli.parallel_efficiency"] = m["cli.entry_s"] / (wall * threads) if wall > 0 else 0.0
    # reports
    writes = [s for s in spans if s.layer == "reports" and s.name != "reports.config_hash"]
    m["reports.bytes_written"] = info_sum(writes, "bytes")
    m["reports.write_s"] = sum(s.duration for s in writes)
    # self time by layer
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    m["wall_s"] = wall
    m["busy_s"] = sum(selfs.values())
    m["errors_by_name"] = dict(sorted((Counter(s.error for s in spans if s.error)).items()))
    return m


def as_percentages(m: dict) -> dict:
    """Time metrics as a share of the operation's busy time, in percent."""
    busy = m["busy_s"]
    return {pct_name(name): 100.0 * m[name] / busy for name in TIME_METRICS}
