"""Numerical verification of the transport identities and inequalities.

Each check returns raw (lhs, rhs) values; assembly into a report records
the signed slack rhs - lhs, with pass defined as |slack| <= tol for
identities and slack >= -tol for inequalities.  Checks never gate the
solver: they are post-hoc assertions about its output.

Implemented checks (nu is the target measure, phi/psi the potentials):

    forward EL    delta[(I+hess phi)^{-1} - I] = grad phi + grad f o T
    backward EL   delta_nu[(I+hess psi)^{-1} - I] = grad psi - grad f
    trace         trace(K A K A) >= 0, A = third(phi)(K e), K = (I+hess phi)^{-1}
    control       E[|K - I|_HS^2] <= 2 E[|grad phi|^2] + 2 E_nu[|grad f|^2]
    dual Hessian  E_nu[|hess psi|_HS^2] <= same right-hand side
    Sobolev       eps E[|hess phi|_HS^2] <= 2 E[|grad phi|^2] + 8 E_nu[|grad f|^2]
                  for the largest certified eps with (1-eps) I + hess f >= 0
    second moment E_nu[(delta_nu xi)^2] = E_nu[|xi|^2 + <hess f xi, xi>
                                                + trace(grad xi grad xi)]
    quartic ratio E[|grad phi|^4] / E_nu[|grad f|^4] (reported, not gated)
    L2 OU bound   (1-eps) E_nu[(L_nu psi)^2] <= sqrt(2 E_nu[|grad f|^2]
                  + 2 E_nu[|grad psi|^2]) (1 + E_nu[|grad f|^4])
                  + E_nu[|grad f|^4] / eps
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NotApplicableError
from .gaussian import GaussianSpace, nu_masked_weights, nu_weights
from .potentials import PotentialField, floor_checked_inverse, jacobi_eigh
from .solver_backward import DualPotential, backward_el_residual
from .targets import ScalarTarget

TRACE_NODES = 100  # node sample of trace_positivity


@dataclass
class CheckRecord:
    name: str
    kind: str  # "identity" | "inequality" | "ratio" | "skipped"
    lhs: Optional[float]
    rhs: Optional[float]
    tolerance: Optional[float]
    passed: Optional[bool]
    note: str = ""

    @property
    def slack(self) -> Optional[float]:
        if self.lhs is None or self.rhs is None:
            return None
        return self.rhs - self.lhs

    def to_json_dict(self) -> dict:
        return {**asdict(self), "slack": self.slack}


@dataclass
class DiagnosticsReport:
    metadata: dict
    records: list = field(default_factory=list)

    def add_identity(self, name: str, lhs: float, rhs: float, tol: float, note: str = "") -> CheckRecord:
        rec = CheckRecord(name, "identity", float(lhs), float(rhs), tol,
                          bool(abs(rhs - lhs) <= tol), note)
        self.records.append(rec)
        return rec

    def add_inequality(self, name: str, lhs: float, rhs: float, tol: float, note: str = "") -> CheckRecord:
        rec = CheckRecord(name, "inequality", float(lhs), float(rhs), tol,
                          bool(rhs - lhs >= -tol), note)
        self.records.append(rec)
        return rec

    def add_ratio(self, name: str, lhs: float, rhs: float, note: str = "") -> CheckRecord:
        rec = CheckRecord(name, "ratio", float(lhs), float(rhs), None, None, note)
        self.records.append(rec)
        return rec

    def add_skipped(self, name: str, note: str) -> CheckRecord:
        rec = CheckRecord(name, "skipped", None, None, None, None, note)
        self.records.append(rec)
        return rec

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None)

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "checks": [r.to_json_dict() for r in sorted(self.records, key=lambda r: r.name)],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for r in sorted(self.records, key=lambda r: r.name):
            if r.kind == "skipped":
                status = "SKIP"
                lines.append(f"{status:4s} {r.name:28s} {r.note}")
                continue
            status = ("PASS" if r.passed else "FAIL") if r.passed is not None else "INFO"
            lines.append(
                f"{status:4s} {r.name:28s} lhs={r.lhs: .6e} rhs={r.rhs: .6e} "
                f"slack={r.slack: .3e} {r.note}"
            )
        return lines


@dataclass(frozen=True, eq=False)
class NodeTables:
    """The node tables the checks share, each computed when first read, so a
    check called alone evaluates, and raises, only what it reads.  dual (a
    DualPotential or a PotentialField) is tabulated on the nu-mass nodes.
    w_nu, when given (a solve's nu_weights), is used as the nu-weights."""

    space: GaussianSpace
    target: ScalarTarget
    phi: Optional[PotentialField] = None
    dual: object = None
    w_nu: Optional[np.ndarray] = None

    @cached_property
    def grad_phi(self) -> np.ndarray:
        return self.phi.grad(self.space.nodes)

    @cached_property
    def hess_phi(self) -> np.ndarray:
        return self.phi.hess(self.space.nodes)

    @cached_property
    def third_phi(self) -> np.ndarray:
        return self.phi.third(self.space.nodes)

    @cached_property
    def inv_jacobian(self) -> np.ndarray:
        """K = (I + hess phi)^{-1} on the nodes."""
        return floor_checked_inverse(self.hess_phi)

    @cached_property
    def grad_f(self) -> np.ndarray:
        return self.target.grad(self.space.nodes)

    @cached_property
    def hess_f(self) -> np.ndarray:
        return self.target.hess(self.space.nodes)

    @cached_property
    def nu_weights(self) -> np.ndarray:
        return nu_weights(self.space, self.target) if self.w_nu is None else self.w_nu

    @cached_property
    def nu_mask(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(renormalized nu-weights, points, grad f) of the nu-mass nodes."""
        w, mask = nu_masked_weights(self.nu_weights)
        return w[mask], self.space.nodes[mask], self.grad_f[mask]

    @cached_property
    def e_grad_phi(self) -> float:
        return float(np.sum(self.space.weights * np.sum(self.grad_phi**2, axis=1)))

    @cached_property
    def e_grad_f(self) -> float:
        return float(np.sum(self.nu_weights * np.sum(self.grad_f**2, axis=1)))

    @cached_property
    def backward(self) -> tuple:
        """(grad psi, hess psi, M, sum_i d_i M_ij) on the nu-mass points, with
        M = (I + hess psi)^{-1} - I.  A conjugacy dual reads all four off S(y) and
        K = (I + hess phi(S(y)))^{-1}: hess psi = K - I, M = hess phi(S(y)) and
        sum_i d_i M_ij = sum_{i,e} K_ie phi'''_eij(S(y))."""
        y = self.nu_mask[1]
        if isinstance(self.dual, DualPotential):
            phi = self.dual.forward
            _, x_star = self.dual._minimizers(y)
            hess = phi.hess(x_star)
            k = floor_checked_inverse(hess)
            pdiv = np.einsum("nie,neij->nj", k, phi.third(x_star))
            return x_star - y, k - np.eye(self.space.dim), hess, pdiv
        hess = self.dual.hess(y)
        m, pdiv = _shift_inverse_operator(floor_checked_inverse(hess), self.dual.third(y))
        return self.dual.grad(y), hess, m, pdiv


def _shift_inverse_operator(k: np.ndarray, third: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K - I, sum_i d_i K_ij) for K = (I + hess u)^{-1}: d_i K = -K (d_i hess u) K,
    so sum_i d_i K_ij = -sum_c w_c K_cj with w_c = sum_{i,b} K_ib (d_i hess u)_bc."""
    w = np.einsum("nib,nibc->nc", k, third)
    return k - np.eye(k.shape[1]), -np.einsum("nc,ncd->nd", w, k)


def forward_el_residual(tables: NodeTables) -> float:
    """E_mu[|grad phi + grad f o T - delta((I+hess phi)^{-1} - I)|^2]."""
    x = tables.space.nodes
    g = tables.grad_phi
    m, pdiv = _shift_inverse_operator(tables.inv_jacobian, tables.third_phi)
    r = g + tables.target.grad(x + g) - (np.einsum("nij,ni->nj", m, x) - pdiv)
    return float(np.sum(tables.space.weights * np.sum(r**2, axis=1)))


def trace_positivity(tables: NodeTables) -> float:
    """min over nodes and coordinate directions e of trace(K A K A), A = third(phi)(K e).

    A is symmetric and K positive, so trace(KAKA) = |K^{1/2} A K^{1/2}|_HS^2
    is nonnegative up to roundoff.  Beyond TRACE_NODES nodes, TRACE_NODES
    evenly spaced node indices are checked.
    """
    n_nodes = tables.space.nodes.shape[0]
    if n_nodes > TRACE_NODES:
        sel = np.unique(np.linspace(0, n_nodes - 1, TRACE_NODES).astype(int))
    else:
        sel = np.arange(n_nodes)
    k = tables.inv_jacobian[sel]
    third = tables.third_phi[sel]  # (N, d, d, d), symmetric
    worst = np.inf
    for e in np.eye(tables.space.dim):
        ke = k @ e                                   # (N, d)
        a = np.einsum("nijl,nl->nij", third, ke)      # (N, d, d)
        ka = k @ a
        vals = np.einsum("nij,nji->n", ka, ka)
        worst = min(worst, float(vals.min()))
    return worst


def control_forward(tables: NodeTables) -> tuple[float, float]:
    """(E[|K - I|_HS^2], 2 E[|grad phi|^2] + 2 E_nu[|grad f|^2])."""
    m = tables.inv_jacobian - np.eye(tables.space.dim)
    lhs = float(np.sum(tables.space.weights * np.sum(m**2, axis=(1, 2))))
    return lhs, 2.0 * tables.e_grad_phi + 2.0 * tables.e_grad_f


def dual_hessian_bound(tables: NodeTables) -> tuple[float, float]:
    """(E_nu[|hess psi|_HS^2], 2 E_nu[|grad f|^2] + 2 E[|grad phi|^2]).

    The nu-expectation of the dual Hessian runs over the mass-floored
    node set (see nu_masked_weights).
    """
    w, _, _ = tables.nu_mask
    _, h, _, _ = tables.backward
    lhs = float(np.sum(w * np.sum(h**2, axis=(1, 2))))
    return lhs, 2.0 * tables.e_grad_f + 2.0 * tables.e_grad_phi


def hessian_composition_gap(tables: NodeTables) -> tuple[float, float]:
    """Two routes to the same number via (I+hess phi)^{-1} = (I+hess psi) o T.

    Returns the left-hand sides of control_forward and dual_hessian_bound,
    (E_mu[|(I+hess phi)^{-1} - I|^2], E_nu[|hess psi|^2]); both equal
    E_nu[|hess psi|^2] exactly, so their gap measures conjugacy/transport
    consistency.
    """
    return control_forward(tables)[0], dual_hessian_bound(tables)[0]


def certify_semiconvexity(hess_f: np.ndarray) -> float:
    """Largest eps in (0, 1] with (1-eps) I + hess f >= 0 at all nodes (hess_f).

    Raises NotApplicableError when no positive eps certifies.
    """
    lam_min = float(jacobi_eigh(np.transpose(hess_f, (1, 2, 0)))[0].min())
    eps = min(1.0, 1.0 + lam_min)
    if eps <= 1e-12:
        raise NotApplicableError(
            f"target is not (1-eps)-semiconvex on the nodes (min eig {lam_min:.4f})"
        )
    return eps


def forward_sobolev_bound(tables: NodeTables) -> tuple[float, float, float]:
    """(eps E[|hess phi|^2], 2 E[|grad phi|^2] + 8 E_nu[|grad f|^2], eps)
    for eps the largest node-certified semiconvexity margin.
    """
    eps = certify_semiconvexity(tables.hess_f)
    h = tables.hess_phi
    lhs = eps * float(np.sum(tables.space.weights * np.sum(h**2, axis=(1, 2))))
    return lhs, 2.0 * tables.e_grad_phi + 8.0 * tables.e_grad_f, eps


def div_second_moment_identity(tables: NodeTables, v: np.ndarray,
                               jac: np.ndarray) -> tuple[float, float]:
    """E_nu[(delta_nu xi)^2] vs E_nu[|xi|^2 + <hess f xi, xi> + tr(grad xi grad xi)]
    for xi with node values v (N, d) and Jacobians jac (N, d, d)."""
    w = tables.nu_weights
    x = tables.space.nodes
    dnu = (np.einsum("ni,ni->n", x, v) - np.einsum("nii->n", jac)
           + np.einsum("ni,ni->n", tables.grad_f, v))
    lhs = float(np.sum(w * dnu**2))
    rhs_vals = (
        np.sum(v**2, axis=1)
        + np.einsum("nij,ni,nj->n", tables.hess_f, v, v)
        + np.einsum("nij,nji->n", jac, jac)
    )
    rhs = float(np.sum(w * rhs_vals))
    return lhs, rhs


def weighted_div_second_moment_identity(tables: NodeTables, h, alpha) -> tuple[float, float]:
    """Constant-field variant with a scalar weight alpha (a potential-like object):

        E_nu[alpha (delta_nu h)^2]
            = E_nu[(alpha I + hess alpha + alpha hess f, h (x) h)].
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    w = tables.nu_weights
    x = tables.space.nodes
    dnu = (x + tables.grad_f) @ h  # delta_nu h = <x, h> + <grad f, h>
    avals = np.asarray(alpha.eval(x), dtype=float).reshape(-1)
    lhs = float(np.sum(w * avals * dnu**2))
    ha = alpha.hess(x)
    hf = tables.hess_f
    quad = (
        avals * float(h @ h)
        + np.einsum("nij,i,j->n", ha, h, h)
        + avals * np.einsum("nij,i,j->n", hf, h, h)
    )
    rhs = float(np.sum(w * quad))
    return lhs, rhs


def quartic_ratio(tables: NodeTables) -> tuple[float, float, float, bool]:
    """(E[|grad phi|^4], E_nu[|grad f|^4], ratio, degenerate_flag).

    The universal constant relating the two sides is unknown, so the
    ratio is logged, never asserted; 0/0 is reported as ratio 0 with the
    degenerate flag set.
    """
    lhs = float(np.sum(tables.space.weights * np.sum(tables.grad_phi**2, axis=1) ** 2))
    rhs = float(np.sum(tables.nu_weights * np.sum(tables.grad_f**2, axis=1) ** 2))
    if rhs < 1e-300:
        return lhs, rhs, 0.0, True
    return lhs, rhs, lhs / rhs, False


def l2_ou_bound(tables: NodeTables, eps: float) -> tuple[float, float]:
    """((1-eps) E_nu[(L_nu psi)^2], displayed right-hand side).

    L_nu psi = L psi + <grad f, grad psi> with L psi = <y, grad psi> - lap psi
    evaluated pointwise.  E[|grad phi|^2] on the right-hand side is
    evaluated as E_nu[|grad psi|^2], its nu-side equal.  All expectations
    run over the mass-floored node set.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    w, y, gf = tables.nu_mask
    g, h, _, _ = tables.backward
    l_psi = np.einsum("ni,ni->n", y, g) - np.einsum("nii->n", h)
    l_nu = l_psi + np.einsum("ni,ni->n", gf, g)
    lhs = (1.0 - eps) * float(np.sum(w * l_nu**2))
    e_grad_f2 = float(np.sum(w * np.sum(gf**2, axis=1)))
    e_grad_f4 = float(np.sum(w * np.sum(gf**2, axis=1) ** 2))
    e_grad_psi2 = float(np.sum(w * np.sum(g**2, axis=1)))
    rhs = np.sqrt(2.0 * e_grad_f2 + 2.0 * e_grad_psi2) * (1.0 + e_grad_f4) + e_grad_f4 / eps
    return lhs, float(rhs)


L2_EPS = (0.1, 0.5, 0.9)  # the eps values of the l2_ou_bound records


@dataclass(frozen=True)
class CheckThresholds:
    identity: float = 1e-3
    inequality: float = 1e-6
    trace: float = 1e-12
    # basis truncation leaves a genuine restricted-class gap ~1e-6 for
    # polynomial-hard targets; exactly representable classes sit at ~1e-12
    variational_gap: float = 1e-5
    oracle: float = 1e-3


def run_standard_checks(space: GaussianSpace, target: ScalarTarget, result, dual,
                        thresholds: CheckThresholds | None = None,
                        metadata: dict | None = None) -> DiagnosticsReport:
    """Assemble the full per-experiment report for a solved (phi, psi) pair.

    Every check reads one NodeTables, weighted by the solve's nu-weights
    (result belongs to (space, target)); its nu-side tables evaluate the dual
    on the nu-mass nodes, where a fit_dual result holds its minimizers.
    """
    tol = thresholds or CheckThresholds()
    report = DiagnosticsReport(metadata=dict(metadata or {}))
    tables = NodeTables(space, target, result.phi, dual, result.nu_weights)

    report.add_identity(
        "variational_gap",
        result.objective,
        result.variational_lhs,
        tol.variational_gap,
        note="J* vs -log E[e^-f]",
    )
    report.add_identity(
        "el_forward",
        forward_el_residual(tables),
        0.0,
        tol.identity,
        note="mean-square forward stationarity residual",
    )
    report.add_identity(
        "el_backward",
        backward_residual_of(tables),
        0.0,
        tol.identity,
        note="mean-square backward stationarity residual",
    )
    lhs, rhs = div_second_moment_identity(tables, tables.grad_phi, tables.hess_phi)
    report.add_identity("div_second_moment", lhs, rhs, tol.identity, note="xi = grad phi")
    report.add_identity("hessian_composition", *hessian_composition_gap(tables), tol.identity)

    report.add_inequality("trace_positivity", 0.0, trace_positivity(tables),
                          tol.trace, note="min trace(KAKA)")
    report.add_inequality("control_forward", *control_forward(tables), tol.inequality)
    report.add_inequality("dual_hessian_bound", *dual_hessian_bound(tables), tol.inequality)
    try:
        lhs, rhs, eps = forward_sobolev_bound(tables)
        report.add_inequality("forward_sobolev_bound", lhs, rhs, tol.inequality,
                              note=f"eps={eps:.6g}")
    except NotApplicableError as exc:
        report.add_skipped("forward_sobolev_bound", str(exc))
    for eps in L2_EPS:
        lhs, rhs = l2_ou_bound(tables, eps)
        report.add_inequality(f"l2_ou_bound(eps={eps})", lhs, rhs, tol.inequality)

    lhs, rhs, ratio, degenerate = quartic_ratio(tables)
    report.add_ratio("quartic_ratio", lhs, rhs,
                     note=f"ratio={ratio:.6g}" + (" (degenerate)" if degenerate else ""))
    return report


def backward_residual_of(tables: NodeTables) -> float:
    return backward_el_residual(tables)
