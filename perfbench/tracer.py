"""In-memory span tracer that wraps mongelab's public functions from outside.

`Tracer.install()` replaces each traced function, method and batched
`numpy.linalg` kernel with a wrapper that records one span per call:
(id, operation, name, start, end, parent, error, info).  Spans live in a
list in memory; `Tracer.uninstall()` puts every original object back and
verifies that no wrapper is left anywhere in the package, so untraced
runs measure the unwrapped program.  The package source is not touched.

A span's name is "<layer>.<function>", and the layer is one of LAYERS.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
import threading
import time

LAYERS = ("cli", "reports", "gaussian", "hermite", "targets", "potentials",
          "solver_forward", "solver_backward", "diagnostics", "smoothing",
          "oracle1d", "kernel")

WRAPPED = "__perfbench_wrapped__"


def _rows(points) -> int:
    shape = getattr(points, "shape", ())
    return int(shape[0]) if len(shape) >= 1 else 1


def _batch_rows(a) -> int:
    shape = getattr(a, "shape", ())
    rows = 1
    for n in shape[:-2]:
        rows *= int(n)
    return rows


def _nbytes(*arrays) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in arrays))


# info extractors: (args, kwargs, result) -> dict stored on the span
def _info_rows_arg1(args, kwargs, out):
    return {"rows": _rows(args[1])}


def _info_rows_arg0(args, kwargs, out):
    return {"rows": _rows(args[0])}


def _info_space(args, kwargs, out):
    return {"nodes": int(out.nodes.shape[0])}


def _info_solve(args, kwargs, out):
    return {"iterations": int(out.iterations),
            "accepted": len(out.objective_history) - 1,
            "converged": bool(out.converged)}


def _info_evaluate(args, kwargs, out):
    val = out[0]
    return {"infeasible": not (val < float("inf"))}


def _info_newton(args, kwargs, out):
    ok = out[1]
    return {"rows": int(ok.shape[0]), "unconverged": int((~ok).sum())}


def _info_report(args, kwargs, out):
    return {"records": len(out.records),
            "failed": sum(1 for r in out.records if r.kind in ("identity", "inequality")
                          and not r.passed)}


def _info_study(args, kwargs, out):
    return {"rows": len(out.rows), "ok_rows": sum(1 for r in out.rows if r.status == "ok")}


def _info_grid(args, kwargs, out):
    return {"grid": int(out.x.shape[0])}


def _info_write(args, kwargs, out):
    return {"bytes": os.path.getsize(args[0])}


def _info_batched(args, kwargs, out):
    a = args[0]
    return {"rows": _batch_rows(a), "bytes": _nbytes(a, out)}


def _info_linsolve(args, kwargs, out):
    a, b = args[0], args[1]
    return {"rows": _batch_rows(a), "bytes": _nbytes(a, b, out)}


def _info_lstsq(args, kwargs, out):
    a, b = args[0], args[1]
    return {"rows": _rows(a), "bytes": _nbytes(a, b, out[0])}


# (module, attribute, span name, info extractor); module-level functions are
# replaced in every mongelab module namespace that holds the same object
FUNCTIONS = [
    ("mongelab.cli", "cmd_solve", "cli.cmd_solve", None),
    ("mongelab.cli", "cmd_study", "cli.cmd_study", None),
    ("mongelab.cli", "cmd_battery", "cli.cmd_battery", None),
    ("mongelab.cli", "run_entry", "cli.run_entry", None),
    ("mongelab.cli", "oracle_map_sup_error", "cli.oracle_map_sup_error", None),
    ("mongelab.reports", "write_json", "reports.write_json", _info_write),
    ("mongelab.reports", "write_text", "reports.write_text", _info_write),
    ("mongelab.reports", "config_hash", "reports.config_hash", None),
    ("mongelab.gaussian", "nu_weights", "gaussian.nu_weights", None),
    ("mongelab.gaussian", "nu_masked_weights", "gaussian.nu_masked_weights", None),
    ("mongelab.gaussian", "nu_expectation", "gaussian.nu_expectation", None),
    ("mongelab.gaussian", "log_normalizer", "gaussian.log_normalizer", None),
    ("mongelab.gaussian", "expectation", "gaussian.expectation", None),
    ("mongelab.potentials", "inverse_shift_jacobian", "potentials.inverse_shift_jacobian",
     _info_rows_arg1),
    ("mongelab.potentials", "logdet2", "potentials.logdet2", None),
    ("mongelab.potentials", "relative_entropy", "potentials.relative_entropy", None),
    ("mongelab.potentials", "pushforward_entropy", "potentials.pushforward_entropy", None),
    ("mongelab.solver_forward", "solve", "solver_forward.solve", _info_solve),
    ("mongelab.solver_forward", "variational_gap", "solver_forward.variational_gap", None),
    ("mongelab.solver_forward", "wasserstein_check", "solver_forward.wasserstein_check", None),
    ("mongelab.solver_forward", "objective", "solver_forward.objective", None),
    ("mongelab.solver_backward", "conjugate", "solver_backward.conjugate", None),
    ("mongelab.solver_backward", "fit_dual", "solver_backward.fit_dual", None),
    ("mongelab.solver_backward", "conjugacy_minimize", "solver_backward.conjugacy_minimize",
     _info_newton),
    ("mongelab.solver_backward", "backward_el_residual", "solver_backward.backward_el_residual",
     None),
    ("mongelab.solver_backward", "backward_objective", "solver_backward.backward_objective", None),
    ("mongelab.solver_backward", "young_gap", "solver_backward.young_gap", None),
    ("mongelab.solver_backward", "inverse_check", "solver_backward.inverse_check", None),
    ("mongelab.diagnostics", "run_standard_checks", "diagnostics.run_standard_checks",
     _info_report),
    ("mongelab.diagnostics", "forward_el_residual", "diagnostics.forward_el_residual", None),
    ("mongelab.diagnostics", "backward_residual_of", "diagnostics.backward_residual_of", None),
    ("mongelab.diagnostics", "trace_positivity", "diagnostics.trace_positivity", None),
    ("mongelab.diagnostics", "control_forward", "diagnostics.control_forward", None),
    ("mongelab.diagnostics", "dual_hessian_bound", "diagnostics.dual_hessian_bound", None),
    ("mongelab.diagnostics", "hessian_composition_gap", "diagnostics.hessian_composition_gap",
     None),
    ("mongelab.diagnostics", "certify_semiconvexity", "diagnostics.certify_semiconvexity", None),
    ("mongelab.diagnostics", "forward_sobolev_bound", "diagnostics.forward_sobolev_bound", None),
    ("mongelab.diagnostics", "div_second_moment_identity",
     "diagnostics.div_second_moment_identity", None),
    ("mongelab.diagnostics", "weighted_div_second_moment_identity",
     "diagnostics.weighted_div_second_moment_identity", None),
    ("mongelab.diagnostics", "quartic_ratio", "diagnostics.quartic_ratio", None),
    ("mongelab.diagnostics", "l2_ou_bound", "diagnostics.l2_ou_bound", None),
    ("mongelab.smoothing", "convergence_study", "smoothing.convergence_study", _info_study),
    ("mongelab.smoothing", "smooth_target", "smoothing.smooth_target", None),
    ("mongelab.smoothing", "truncate_density", "smoothing.truncate_density", None),
    ("mongelab.oracle1d", "monotone_map", "oracle1d.monotone_map", _info_grid),
    ("mongelab.oracle1d", "wasserstein2_sq", "oracle1d.wasserstein2_sq", None),
    ("mongelab.oracle1d", "potential_from_map", "oracle1d.potential_from_map", None),
    # third-party names bound inside oracle1d: counted where the oracle calls them
    ("mongelab.oracle1d", "brentq", "oracle1d.brentq", None),
    ("mongelab.oracle1d", "PchipInterpolator", "oracle1d.pchip_build", None),
]

# (module, class, method, span name, info extractor)
METHODS = [
    ("mongelab.gaussian", "GaussianSpace", "tensor_hermite", "gaussian.space_build", _info_space),
    ("mongelab.gaussian", "GaussianSpace", "monte_carlo", "gaussian.space_build", _info_space),
    ("mongelab.hermite", "HermiteBasis", "value_table", "hermite.value_table", _info_rows_arg1),
    ("mongelab.hermite", "HermiteBasis", "grad_table", "hermite.grad_table", _info_rows_arg1),
    ("mongelab.hermite", "HermiteBasis", "hess_table", "hermite.hess_table", _info_rows_arg1),
    ("mongelab.hermite", "HermiteBasis", "third_table", "hermite.third_table", _info_rows_arg1),
    ("mongelab.potentials", "PotentialField", "eval", "potentials.phi_eval", None),
    ("mongelab.potentials", "PotentialField", "grad", "potentials.phi_grad", None),
    ("mongelab.potentials", "PotentialField", "hess", "potentials.phi_hess", None),
    ("mongelab.potentials", "PotentialField", "third", "potentials.phi_third", None),
    ("mongelab.solver_forward", "ForwardWorkspace", "_evaluate", "solver_forward.evaluate",
     _info_evaluate),
    ("mongelab.solver_backward", "DualPotential", "eval", "solver_backward.psi_eval", None),
    ("mongelab.solver_backward", "DualPotential", "grad", "solver_backward.psi_grad", None),
    ("mongelab.solver_backward", "DualPotential", "hess", "solver_backward.psi_hess", None),
    ("mongelab.solver_backward", "DualPotential", "third", "solver_backward.psi_third", None),
    ("mongelab.oracle1d", "MonotoneMap1D", "__call__", "oracle1d.map_eval", None),
]

# batched numpy.linalg kernels, looked up as np.linalg.<name> at call time
KERNELS = [
    ("eigvalsh", "kernel.eigvalsh", _info_batched),
    ("inv", "kernel.inv", _info_batched),
    ("solve", "kernel.solve", _info_linsolve),
    ("lstsq", "kernel.lstsq", _info_lstsq),
]

# target evaluators are per-instance closures; they are wrapped as each
# ScalarTarget is constructed
TARGET_FIELDS = ("eval", "grad", "hess")


@dataclasses.dataclass
class Span:
    id: int
    op: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None
    info: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into the package while installed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = 0
        self._root_stack: list | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if not stack and self._root_stack:
            # first span on a worker thread: its parent is the innermost span
            # open on the thread that started the operation
            stack_parent = self._root_stack[-1]
        else:
            stack_parent = stack[-1] if stack else None
        parent = stack_parent.id if stack_parent is not None else None
        span = Span(next(self._ids), self._op, name, self.clock(), parent=parent)
        stack.append(span)
        return span

    def close(self, span: Span, error: str | None = None, info: dict | None = None,
              end: float | None = None) -> None:
        span.end = self.clock() if end is None else end
        self._stack().pop()
        span.error = error
        span.info = info
        self.spans.append(span)

    def begin_operation(self, op: int, name: str) -> Span:
        """Root span of one operation, opened on the calling thread."""
        self._op = op
        root = self.open(name)
        self._root_stack = self._stack()
        return root

    def end_operation(self, root: Span, error: str | None = None) -> None:
        self.close(root, error=error)
        self._root_stack = None

    def wrap(self, fn, name: str, info_fn=None):
        tracer = self

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(span, error=type(exc).__name__)
                raise
            end = tracer.clock()
            info = info_fn(args, kwargs, out) if info_fn is not None else None
            tracer.close(span, info=info, end=end)
            return out

        setattr(traced, WRAPPED, fn)
        return traced

    # -- installing and removing wrappers -------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        import numpy

        modules = _package_modules()
        for mod_name, attr, name, info_fn in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(original, name, info_fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for mod_name, cls_name, attr, name, info_fn in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, name, info_fn))
            else:
                new = self.wrap(raw, name, info_fn)
            self._patch(cls, attr, new)
        for attr, name, info_fn in KERNELS:
            self._patch(numpy.linalg, attr, self.wrap(getattr(numpy.linalg, attr), name, info_fn))
        target_cls = sys.modules["mongelab.targets"].ScalarTarget
        self._patch(target_cls, "__init__", self._target_init(target_cls.__dict__["__init__"]))

    def _target_init(self, original_init):
        tracer = self

        @functools.wraps(original_init)
        def __init__(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            for field in TARGET_FIELDS:
                fn = getattr(obj, field)
                if not hasattr(fn, WRAPPED):
                    object.__setattr__(obj, field,
                                       tracer.wrap(fn, f"targets.{field}", _info_rows_arg0))

        setattr(__init__, WRAPPED, original_init)
        return __init__

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        leftovers = find_wrappers()
        if leftovers:
            raise RuntimeError(f"tracing wrappers left installed: {leftovers}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mongelab" or name.startswith("mongelab."))]


def find_wrappers() -> list[str]:
    """Names of every tracing wrapper reachable from the package or numpy.linalg."""
    import numpy

    found = []
    owners = [(mod.__name__, mod) for mod in _package_modules()]
    owners.append(("numpy.linalg", numpy.linalg))
    for owner_name, owner in owners:
        for key, value in vars(owner).items():
            if hasattr(value, WRAPPED):
                found.append(f"{owner_name}.{key}")
            elif isinstance(value, type) and value.__module__ == owner_name:
                for attr, member in vars(value).items():
                    func = member.__func__ if isinstance(member, staticmethod) else member
                    if hasattr(func, WRAPPED):
                        found.append(f"{owner_name}.{key}.{attr}")
    return found


# -- analysis --------------------------------------------------------------
def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` covered by the union of `children`."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered((s.start, s.end), children.get(s.id, []))
            for s in spans}
