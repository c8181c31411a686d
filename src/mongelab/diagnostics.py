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

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import NotApplicableError
from .gaussian import (
    GaussianSpace,
    VectorField,
    inverse_jacobian_operator,
    nu_masked_weights,
    nu_weights,
    weighted_divergence,
)
from .potentials import PotentialField, inverse_shift_jacobian
from .solver_backward import backward_el_residual
from .targets import ScalarTarget


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
        return {
            "name": self.name,
            "kind": self.kind,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


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


def forward_el_residual(space: GaussianSpace, target: ScalarTarget, phi: PotentialField) -> float:
    """E_mu[|grad phi + grad f o T - delta((I+hess phi)^{-1} - I)|^2]."""
    from .gaussian import operator_divergence

    x = space.nodes
    g = phi.grad(x)
    m = inverse_jacobian_operator(phi)
    r = g + target.grad(x + g) - operator_divergence(space, m)(x)
    return float(np.sum(space.weights * np.sum(r**2, axis=1)))


def trace_positivity(space: GaussianSpace, phi: PotentialField, max_nodes: int = 100) -> float:
    """min over nodes and coordinate directions e of trace(K A K A), A = third(phi)(K e).

    A is symmetric and K positive, so trace(KAKA) = |K^{1/2} A K^{1/2}|_HS^2
    is nonnegative up to roundoff.
    """
    n_nodes = space.nodes.shape[0]
    if n_nodes > max_nodes:
        sel = np.unique(np.linspace(0, n_nodes - 1, max_nodes).astype(int))
    else:
        sel = np.arange(n_nodes)
    pts = space.nodes[sel]
    k = inverse_shift_jacobian(phi, pts)
    third = phi.third(pts)  # (N, d, d, d), symmetric
    worst = np.inf
    for e in np.eye(phi.dim):
        ke = k @ e                                   # (N, d)
        a = np.einsum("nijl,nl->nij", third, ke)      # (N, d, d)
        ka = k @ a
        vals = np.einsum("nij,nji->n", ka, ka)
        worst = min(worst, float(vals.min()))
    return worst


def _grad_energies(space: GaussianSpace, target: ScalarTarget,
                   phi: PotentialField) -> tuple[float, float]:
    """(E[|grad phi|^2], E_nu[|grad f|^2]), the right-hand sides' ingredients."""
    g = phi.grad(space.nodes)
    e_grad_phi = float(np.sum(space.weights * np.sum(g**2, axis=1)))
    w = nu_weights(space, target)
    gf = target.grad(space.nodes)
    return e_grad_phi, float(np.sum(w * np.sum(gf**2, axis=1)))


def control_forward(space: GaussianSpace, target: ScalarTarget,
                    phi: PotentialField) -> tuple[float, float]:
    """(E[|K - I|_HS^2], 2 E[|grad phi|^2] + 2 E_nu[|grad f|^2])."""
    k = inverse_shift_jacobian(phi, space.nodes)
    m = k - np.eye(phi.dim)
    lhs = float(np.sum(space.weights * np.sum(m**2, axis=(1, 2))))
    e_grad_phi, e_grad_f = _grad_energies(space, target, phi)
    return lhs, 2.0 * e_grad_phi + 2.0 * e_grad_f


def dual_hessian_bound(space: GaussianSpace, target: ScalarTarget, phi: PotentialField,
                       dual) -> tuple[float, float]:
    """(E_nu[|hess psi|_HS^2], 2 E_nu[|grad f|^2] + 2 E[|grad phi|^2]).

    The nu-expectation of the dual Hessian runs over the mass-floored
    node set (see nu_masked_weights); dual may be a DualPotential or a
    PotentialField.
    """
    w, mask = nu_masked_weights(space, target)
    h = dual.hess(space.nodes[mask])
    lhs = float(np.sum(w[mask] * np.sum(h**2, axis=(1, 2))))
    e_grad_phi, e_grad_f = _grad_energies(space, target, phi)
    return lhs, 2.0 * e_grad_f + 2.0 * e_grad_phi


def hessian_composition_gap(space: GaussianSpace, target: ScalarTarget,
                            phi: PotentialField, dual) -> tuple[float, float]:
    """Two routes to the same number via (I+hess phi)^{-1} = (I+hess psi) o T.

    Returns the left-hand sides of control_forward and dual_hessian_bound,
    (E_mu[|(I+hess phi)^{-1} - I|^2], E_nu[|hess psi|^2]); both equal
    E_nu[|hess psi|^2] exactly, so their gap measures conjugacy/transport
    consistency.
    """
    via_phi, _ = control_forward(space, target, phi)
    via_psi, _ = dual_hessian_bound(space, target, phi, dual)
    return via_phi, via_psi


def certify_semiconvexity(space: GaussianSpace, target: ScalarTarget) -> float:
    """Largest eps in (0, 1] with (1-eps) I + hess f >= 0 at all nodes.

    Raises NotApplicableError when no positive eps certifies.
    """
    eigs = np.linalg.eigvalsh(target.hess(space.nodes))
    lam_min = float(eigs.min())
    eps = min(1.0, 1.0 + lam_min)
    if eps <= 1e-12:
        raise NotApplicableError(
            f"target is not (1-eps)-semiconvex on the nodes (min eig {lam_min:.4f})"
        )
    return eps


def forward_sobolev_bound(space: GaussianSpace, target: ScalarTarget,
                          phi: PotentialField) -> tuple[float, float, float]:
    """(eps E[|hess phi|^2], 2 E[|grad phi|^2] + 8 E_nu[|grad f|^2], eps)
    for eps the largest node-certified semiconvexity margin.
    """
    eps = certify_semiconvexity(space, target)
    h = phi.hess(space.nodes)
    lhs = eps * float(np.sum(space.weights * np.sum(h**2, axis=(1, 2))))
    e_grad_phi, e_grad_f = _grad_energies(space, target, phi)
    return lhs, 2.0 * e_grad_phi + 8.0 * e_grad_f, eps


def div_second_moment_identity(space: GaussianSpace, target: ScalarTarget,
                               xi: VectorField) -> tuple[float, float]:
    """E_nu[(delta_nu xi)^2] vs E_nu[|xi|^2 + <hess f xi, xi> + tr(grad xi grad xi)]."""
    w = nu_weights(space, target)
    x = space.nodes
    dnu = weighted_divergence(space, target, xi)(x)
    lhs = float(np.sum(w * dnu**2))
    v = xi.value(x)
    jac = xi.jacobian(x)
    hf = target.hess(x)
    rhs_vals = (
        np.sum(v**2, axis=1)
        + np.einsum("nij,ni,nj->n", hf, v, v)
        + np.einsum("nij,nji->n", jac, jac)
    )
    rhs = float(np.sum(w * rhs_vals))
    return lhs, rhs


def weighted_div_second_moment_identity(space: GaussianSpace, target: ScalarTarget,
                                        h, alpha) -> tuple[float, float]:
    """Constant-field variant with a scalar weight alpha (a potential-like object):

        E_nu[alpha (delta_nu h)^2]
            = E_nu[(alpha I + hess alpha + alpha hess f, h (x) h)].
    """
    h = np.asarray(h, dtype=float).reshape(-1)
    from .gaussian import constant_field

    w = nu_weights(space, target)
    x = space.nodes
    dnu = weighted_divergence(space, target, constant_field(h))(x)
    avals = np.asarray(alpha.eval(x), dtype=float).reshape(-1)
    lhs = float(np.sum(w * avals * dnu**2))
    ha = alpha.hess(x)
    hf = target.hess(x)
    quad = (
        avals * float(h @ h)
        + np.einsum("nij,i,j->n", ha, h, h)
        + avals * np.einsum("nij,i,j->n", hf, h, h)
    )
    rhs = float(np.sum(w * quad))
    return lhs, rhs


def quartic_ratio(space: GaussianSpace, target: ScalarTarget,
                  phi: PotentialField) -> tuple[float, float, float, bool]:
    """(E[|grad phi|^4], E_nu[|grad f|^4], ratio, degenerate_flag).

    The universal constant relating the two sides is unknown, so the
    ratio is logged, never asserted; 0/0 is reported as ratio 0 with the
    degenerate flag set.
    """
    g = phi.grad(space.nodes)
    lhs = float(np.sum(space.weights * np.sum(g**2, axis=1) ** 2))
    w = nu_weights(space, target)
    gf = target.grad(space.nodes)
    rhs = float(np.sum(w * np.sum(gf**2, axis=1) ** 2))
    if rhs < 1e-300:
        return lhs, rhs, 0.0, True
    return lhs, rhs, lhs / rhs, False


def l2_ou_bound(space: GaussianSpace, target: ScalarTarget, dual,
                eps: float) -> tuple[float, float]:
    """((1-eps) E_nu[(L_nu psi)^2], displayed right-hand side).

    L_nu psi = L psi + <grad f, grad psi> with L psi = <y, grad psi> - lap psi
    evaluated pointwise.  E[|grad phi|^2] on the right-hand side is
    evaluated as E_nu[|grad psi|^2], its nu-side equal.  All expectations
    run over the mass-floored node set.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    w, mask = nu_masked_weights(space, target)
    w = w[mask]
    y = space.nodes[mask]
    g = dual.grad(y)
    h = dual.hess(y)
    l_psi = np.einsum("ni,ni->n", y, g) - np.einsum("nii->n", h)
    gf = target.grad(y)
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
    identity_solved: float = 1e-3
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

    The nu-side checks evaluate the dual on the mass-floored nu-nodes, so a
    fit_dual result serves them all from the minimizers it holds.
    """
    from .gaussian import gradient_field

    tol = thresholds or CheckThresholds()
    report = DiagnosticsReport(metadata=dict(metadata or {}))
    phi = result.phi

    report.add_identity(
        "variational_gap",
        result.objective,
        result.variational_lhs,
        tol.variational_gap,
        note="J* vs -log E[e^-f]",
    )
    report.add_identity(
        "el_forward",
        forward_el_residual(space, target, phi),
        0.0,
        tol.identity_solved,
        note="mean-square forward stationarity residual",
    )
    report.add_identity(
        "el_backward",
        backward_residual_of(space, target, dual),
        0.0,
        tol.identity_solved,
        note="mean-square backward stationarity residual",
    )
    lhs, rhs = div_second_moment_identity(space, target, gradient_field(phi))
    report.add_identity("div_second_moment", lhs, rhs, tol.identity_solved,
                        note="xi = grad phi")
    forward_lhs, forward_rhs = control_forward(space, target, phi)
    dual_lhs, dual_rhs = dual_hessian_bound(space, target, phi, dual)
    report.add_identity("hessian_composition", forward_lhs, dual_lhs, tol.identity_solved)

    report.add_inequality("trace_positivity", 0.0, trace_positivity(space, phi),
                          tol.trace, note="min trace(KAKA)")
    report.add_inequality("control_forward", forward_lhs, forward_rhs, tol.inequality)
    report.add_inequality("dual_hessian_bound", dual_lhs, dual_rhs, tol.inequality)
    try:
        lhs, rhs, eps = forward_sobolev_bound(space, target, phi)
        report.add_inequality("forward_sobolev_bound", lhs, rhs, tol.inequality,
                              note=f"eps={eps:.6g}")
    except NotApplicableError as exc:
        report.add_skipped("forward_sobolev_bound", str(exc))
    for eps in L2_EPS:
        lhs, rhs = l2_ou_bound(space, target, dual, eps)
        report.add_inequality(f"l2_ou_bound(eps={eps})", lhs, rhs, tol.inequality)

    lhs, rhs, ratio, degenerate = quartic_ratio(space, target, phi)
    report.add_ratio("quartic_ratio", lhs, rhs,
                     note=f"ratio={ratio:.6g}" + (" (degenerate)" if degenerate else ""))
    return report


def backward_residual_of(space: GaussianSpace, target: ScalarTarget, dual) -> float:
    return backward_el_residual(space, target, dual)
