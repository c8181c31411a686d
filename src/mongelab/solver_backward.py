"""Dual (backward) transport potential psi, with S = I + grad psi = T^{-1}.

Primary path: conjugacy from the solved forward potential,

    psi(y) = -min_x [phi(x) + |x - y|^2 / 2],
    S(y)   = argmin_x [...],   grad psi(y) = S(y) - y,

evaluated by damped Newton on the residual grad phi(x) + x - y per point.
A phi of degree >= 3 need not be convex off the quadrature nodes, so the
inner objective may have saddles or no minimizer at all: a point whose
backtracking stalls is retired, and a point counts as converged only where
its minimizer is certified (residual within tolerance and I + hess phi(x*)
positive definite above EIG_FLOOR; see conjugacy_minimize).  Higher
derivatives of psi follow exactly from the implicit function theorem,

    I + hess psi(y)       = (I + hess phi(S(y)))^{-1},
    (I + hess psi)^{-1} - I = hess phi(S(y)),

so residual diagnostics never invert a fitted Hessian (a polynomial fit
of psi cannot keep I + hess psi positive across the nu-support for
non-quadratic targets).  A Hermite least-squares fit under nu is still
attached for serialization and for comparisons needing a coefficient
representation (e.g. applying the OU semigroup to psi).

backward_objective evaluates

    J_b(psi) = -E_nu[f] - E_nu[log det2(I + hess psi) - L psi - |grad psi|^2 / 2]

whose infimum is -log nu(e^f) = log E[e^{-f}], attained at the same psi.

The stationarity identity satisfied by the dual potential (the weak form
E_nu[-trace(((I+hess psi)^{-1} - I) grad xi) + delta xi + <grad psi, xi>] = 0
turned into a strong form via delta_nu) reads

    delta_nu((I + hess psi)^{-1} - I) = grad psi - grad f,

which closed-form Gaussian pairs satisfy exactly; backward_el_residual
measures its nu-mean-square violation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateWeightError
from .gaussian import GaussianSpace, nu_masked_weights, nu_weights
from .hermite import HermiteBasis, as_points
from .potentials import EIG_FLOOR, PotentialField, inverse_shift_jacobian, jacobi_eigh, logdet2
from .targets import ScalarTarget

_NEWTON_TOL = 1e-12
_NEWTON_ITERS = 100
# Smallest Newton step fraction tried is 2^-_MAX_HALVINGS.  Points on their
# way to a minimizer took at most one halving in every battery, gaussian-3d
# and study solve; stalled points crawl at lam ~ 1e-16 with |r| ~ 1, where
# more search only burns phi.grad rows (Nocedal & Wright 3.4, 11.2).  All
# halvings of a rejected step share one phi.grad call, so a stalled point
# costs _MAX_HALVINGS rows per iteration, not _MAX_HALVINGS calls.
_MAX_HALVINGS = 20


def conjugacy_minimize(phi: PotentialField, y: np.ndarray):
    """argmin_x [phi(x) + |x - y|^2 / 2] for each row of y, damped Newton.

    Newton drives the residual r(x) = grad phi(x) + x - y to zero; each
    step is halved until |r(x + lam p)| <= (1 - lam/2) |r(x)|.  A point
    whose step still fails that test at lam = 2^-_MAX_HALVINGS is retired:
    it keeps its last accepted iterate and takes no further steps.

    An iteration makes at most two residual calls: the unit steps of the
    active points and, if any is rejected, every lam = 2^-1 .. 2^-_MAX_HALVINGS
    of the rejected points at once, each point taking its first lam that
    passes.  A point keeps the residual of its accepted trial, which is
    bit-equal to re-evaluating it because phi.grad is computed point by
    point.

    Returns (x_star, converged mask).  A point counts as converged only as
    a certified minimizer: its residual is within tolerance and the
    smallest eigenvalue of I + hess phi(x_star) exceeds EIG_FLOOR.  Retired
    points, points out of iterations and roots of r that are saddles of
    the inner objective all come back unconverged.
    """
    y = as_points(y, phi.dim)
    x = y.copy()
    eye = np.eye(phi.dim)

    def residual(pts, targets):
        return phi.grad(pts) + pts - targets

    lam = np.ldexp(1.0, -np.arange(1, _MAX_HALVINGS + 1))[:, None]  # 2^-1 .. 2^-20
    r = residual(x, y)
    rnorm = np.linalg.norm(r, axis=1)
    tol = _NEWTON_TOL * (1.0 + np.linalg.norm(y, axis=1))
    live = np.ones(y.shape[0], dtype=bool)
    for _ in range(_NEWTON_ITERS):
        active = np.flatnonzero(live & (rnorm > tol))
        if active.size == 0:
            break
        jac = eye[None] + phi.hess(x[active])
        step = np.linalg.solve(jac, -r[active][..., None])[..., 0]
        trial = x[active] + step
        rtrial = residual(trial, y[active])  # lam = 1
        # a NaN residual compares False, so it is never rejected
        bad = np.linalg.norm(rtrial, axis=1) > 0.5 * rnorm[active]
        if bad.any():
            # the halving ladder of every rejected point in one call, rows
            # ordered (halving, point); each point takes its first pass
            idx = active[bad]
            rungs = x[idx] + lam[..., None] * step[bad]
            rrungs = residual(rungs.reshape(-1, phi.dim),
                              np.tile(y[idx], (_MAX_HALVINGS, 1))).reshape(rungs.shape)
            fails = np.linalg.norm(rrungs, axis=2) > (1.0 - 0.5 * lam) * rnorm[idx]
            first = np.argmin(fails, axis=0), np.arange(idx.size)
            trial[bad], rtrial[bad] = rungs[first], rrungs[first]
            bad[bad] = fails.all(axis=0)
        accepted = active[~bad]
        x[accepted], r[accepted] = trial[~bad], rtrial[~bad]
        rnorm[accepted] = np.linalg.norm(rtrial[~bad], axis=1)
        live[active[bad]] = False
    min_eig = jacobi_eigh(np.transpose(phi.hess(x), (1, 2, 0)) + eye[:, :, None])[0].min(axis=0)
    return x, (rnorm <= tol) & (min_eig > EIG_FLOOR)


def _conjugacy_psi(phi: PotentialField, x_star: np.ndarray, y: np.ndarray) -> np.ndarray:
    """psi(y) = -(phi(x*) + |x* - y|^2 / 2) at the inner minimizers x* = S(y)."""
    return -(phi.eval(x_star) + 0.5 * np.sum((x_star - y) ** 2, axis=1))


@dataclass(frozen=True)
class DualPotential:
    """Conjugacy dual of phi with exact pointwise evaluators and an optional fit.

    eval/grad/hess/third are exact in the solved phi (implicit function
    theorem at the inner minimizer S(y)).  At exactly the tabulated points
    they read the stored minimizers map_values; anywhere else they run the
    conjugacy Newton solve for the requested points.
    """

    forward: PotentialField
    points: np.ndarray          # (M, d) evaluation points y
    psi_values: np.ndarray      # psi(y), including the conjugacy constant
    map_values: np.ndarray      # S(y) = argmin x
    converged: np.ndarray       # certified minimizer per point (conjugacy_minimize)
    psi_fit: Optional[PotentialField] = None
    fit_offset: float = 0.0
    fit_residual: Optional[float] = None

    @property
    def dim(self) -> int:
        return self.forward.dim

    def as_field(self) -> PotentialField:
        if self.psi_fit is None:
            raise ValueError("dual potential has no basis fit; call fit_dual first")
        return self.psi_fit

    def _minimizers(self, y):
        pts = as_points(y, self.dim)
        if np.array_equal(pts, self.points):
            return pts, self.map_values
        x_star, _ = conjugacy_minimize(self.forward, pts)
        return pts, x_star

    def eval(self, y) -> np.ndarray:
        pts, x_star = self._minimizers(y)
        return _conjugacy_psi(self.forward, x_star, pts)

    def grad(self, y) -> np.ndarray:
        """grad psi(y) = S(y) - y."""
        pts, x_star = self._minimizers(y)
        return x_star - pts

    def hess(self, y) -> np.ndarray:
        """hess psi(y) = (I + hess phi(S(y)))^{-1} - I."""
        _, x_star = self._minimizers(y)
        k = inverse_shift_jacobian(self.forward, x_star)
        return k - np.eye(self.dim)

    def third(self, y) -> np.ndarray:
        """third psi = -K third(phi)(S) K contracted with grad S = K."""
        _, x_star = self._minimizers(y)
        k = inverse_shift_jacobian(self.forward, x_star)
        t3 = self.forward.third(x_star)
        return -np.einsum("nce,neij,nia,njb->ncab", k, t3, k, k)

    def to_json_dict(self) -> dict:
        data = {"provenance": "conjugacy"}
        if self.psi_fit is not None:
            data.update(self.psi_fit.to_json_dict())
            data["fit_offset"] = float(self.fit_offset)
            data["fit_residual"] = float(self.fit_residual)
        return data


def conjugate(phi: PotentialField, grid: np.ndarray) -> DualPotential:
    """psi(y) = -min_x [phi(x) + |x - y|^2 / 2] on the grid points."""
    pts = as_points(grid, phi.dim)
    x_star, ok = conjugacy_minimize(phi, pts)
    return DualPotential(
        forward=phi,
        points=pts,
        psi_values=_conjugacy_psi(phi, x_star, pts),
        map_values=x_star,
        converged=ok,
    )


def fit_dual(space: GaussianSpace, w_nu: np.ndarray, phi: PotentialField,
             degree: int | None = None) -> DualPotential:
    """Conjugacy dual of phi on the nu-mass nodes (nu_masked_weights of the
    nu-weights w_nu, e.g. a solve's SolveResult.nu_weights; the backward
    conditions are nu-a.s.), with psi fitted there under nu.

    This is the one conjugacy solve: the nu-side checks read its
    minimizers.  Raises DegenerateWeightError when the nodes are fewer
    than the fit's unknowns.

    The constant term (excluded from the basis) is kept as fit_offset; all
    residual diagnostics only use derivatives of the fit.
    """
    w, mask = nu_masked_weights(w_nu)
    basis = HermiteBasis(space.dim, phi.degree if degree is None else degree)
    nodes = space.nodes[mask]
    if nodes.shape[0] <= basis.size:
        raise DegenerateWeightError(
            f"dual fit has {nodes.shape[0]} nu-mass nodes for {basis.size + 1} unknowns")
    dual = conjugate(phi, grid=nodes)
    vals = dual.psi_values
    w = w[mask]
    design = np.concatenate([np.ones((nodes.shape[0], 1)), basis.value_table(nodes).T], axis=1)
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(design * sw[:, None], vals * sw, rcond=None)
    fit = PotentialField(basis, sol[1:])
    resid = design @ sol - vals
    rms = float(np.sqrt(np.sum(w * resid**2)))
    return replace(dual, psi_fit=fit, fit_offset=float(sol[0]), fit_residual=rms)


def inverse_check(space: GaussianSpace, phi: PotentialField, dual) -> float:
    """E_mu[|S(T(x)) - x|^2]; dual may be a DualPotential or a PotentialField."""
    x = space.nodes
    t = x + phi.grad(x)
    s = t + dual.grad(t)
    return float(np.sum(space.weights * np.sum((s - x) ** 2, axis=1)))


def backward_objective(space: GaussianSpace, target: ScalarTarget, dual) -> float:
    """J_b(psi) = -E_nu[f] - E_nu[log Lambda_psi]; >= log E[e^{-f}].

    L psi is evaluated pointwise as <y, grad psi> - laplace psi, and the
    nu-expectation runs over the mass-floored node set (the backward
    conditions are nu-a.s.).
    """
    w, mask = nu_masked_weights(nu_weights(space, target))
    y = space.nodes[mask]
    h = dual.hess(y)
    ld2 = logdet2(h)
    g = dual.grad(y)
    lpsi = np.einsum("ni,ni->n", y, g) - np.einsum("nii->n", h)
    log_lambda = ld2 - lpsi - 0.5 * np.sum(g**2, axis=1)
    fvals = np.asarray(target.eval(y), dtype=float).reshape(-1)
    return float(np.sum(w[mask] * (-fvals - log_lambda)))


def backward_el_residual(tables) -> float:
    """E_nu[|delta_nu((I + hess psi)^{-1} - I) - grad psi + grad f|^2] on the
    nu-mass nodes, for psi the dual of tables (a diagnostics.NodeTables)."""
    w, y, gf = tables.nu_mask
    grad_psi, _, m, pdiv = tables.backward
    delta_m = np.einsum("nij,ni->nj", m, y) - pdiv
    delta_nu_m = delta_m + np.einsum("nij,ni->nj", m, gf)
    r = delta_nu_m - grad_psi + gf
    return float(np.sum(w * np.sum(r**2, axis=1)))


def young_gap(phi: PotentialField, dual: DualPotential, seed: int = 0) -> float:
    """min of F(x, y) = phi(x) + psi(y) + |x - y|^2 / 2 over 10000
    standard normal probe pairs (x, y) drawn from seed.

    psi is evaluated by dual.eval at the probe points; for a conjugacy
    dual of phi that runs the inner minimization itself, so this checks
    that the Newton solves really reached the minimum (F >= 0 holds by
    construction at exact minimizers).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((10000, phi.dim))
    y = rng.standard_normal((10000, phi.dim))
    f_vals = phi.eval(x) + dual.eval(y) + 0.5 * np.sum((x - y) ** 2, axis=1)
    return float(f_vals.min())
