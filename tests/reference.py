"""Independent references that the tests compare the package against.

None of this runs on a CLI path; each reference reaches a quantity the
package computes another way (two-operator OU smoothing and conditioning
against smoothing's one Mehler rule, closed-form divergences, the paper's
Lambda, the closed-form Gaussian potentials, a direct J_b minimization
against the conjugacy dual, the 1d oracle's map on scipy's kernels against
its numpy ones, and its Newton root solve against bisection).  Notation
(grad xi, delta, delta_nu) is that of the mongelab.gaussian docstring.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mongelab import (
    GaussianSpace,
    HermiteBasis,
    MongelabError,
    NonFiniteValueError,
    PotentialField,
    ScalarTarget,
    SolveConfig,
    SolveResult,
    log_normalizer,
    logdet2,
    nu_weights,
)
from mongelab.gaussian import nu_masked_weights
from mongelab.hermite import as_points
from mongelab.oracle1d import GRID, _invert_cubics, _nu_density_table
from mongelab.potentials import EIG_FLOOR
from mongelab.solver_backward import DualPotential
from mongelab.solver_forward import ForwardWorkspace, minimize_with_barrier


class NonSquareOperatorError(MongelabError):
    """An operator field did not evaluate to d x d matrices."""


# -- potentials, dual grids and study tables --------------------------------
def zero_field(dim: int, degree: int) -> PotentialField:
    """phi = 0 in the (dim, degree) Hermite basis."""
    basis = HermiteBasis(dim, degree)
    return PotentialField(basis, np.zeros(basis.size))


def gaussian_phi(dim: int, sigma: float, m: float) -> PotentialField:
    """The exact potential onto N(m, sigma^2 I): grad phi = (sigma - 1) x + m."""
    coeffs = {}
    for k in range(dim):
        coeffs[tuple(1 if j == k else 0 for j in range(dim))] = m
        coeffs[tuple(2 if j == k else 0 for j in range(dim))] = (sigma - 1) / 2
    return PotentialField.from_coeff_dict(dim, 2, coeffs)


def quadratic_phi(sigma: float, m: float) -> PotentialField:
    """gaussian_phi in 1d: T = sigma x + m."""
    return gaussian_phi(1, sigma, m)


def quadratic_psi(sigma: float, m: float) -> PotentialField:
    """The closed-form dual of quadratic_phi: grad psi(y) = (1/sigma - 1) y - m/sigma."""
    return PotentialField.from_coeff_dict(1, 2, {(1,): -m / sigma, (2,): (1.0 / sigma - 1.0) / 2})


def coeff_dict(phi: PotentialField) -> dict:
    """{multi-index: coefficient} of the nonzero coefficients of phi."""
    return {alpha: float(c) for alpha, c in zip(phi.basis.indices, phi.coeffs) if c != 0.0}


def default_dual_grid(dim: int) -> np.ndarray:
    """A tabulation grid for conjugate: 2001 points on [-8, 8] in 1d, a 61 x 61
    lattice on [-5, 5]^2 in 2d."""
    if dim == 1:
        return np.linspace(-8.0, 8.0, 2001).reshape(-1, 1)
    if dim == 2:
        side = np.linspace(-5.0, 5.0, 61)
        xx, yy = np.meshgrid(side, side, indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=-1)
    raise ValueError("tabulated dual grids are provided for d <= 2 only")


def grad_errors(table) -> list:
    """grad_phi_err of a StudyTable's rows whose solve succeeded, by n."""
    return [r.grad_phi_err for r in table.rows if r.status == "ok"]


class PerDegreeBasis(HermiteBasis):
    """HermiteBasis with its coordinate tables built one degree at a time:
    the Hermite recurrence out of place, and each derivative order as one
    product per degree by its falling factorial."""

    def _coord_tables(self, points: np.ndarray, max_order: int) -> list[np.ndarray]:
        values = np.empty((self.degree + 1,) + points.shape)
        values[0], values[1] = 1.0, points
        for n in range(1, self.degree):
            values[n + 1] = points * values[n] - n * values[n - 1]
        base = np.transpose(values, (0, 2, 1))
        tabs = [base]
        for o in range(1, max_order + 1):
            t = np.zeros_like(base)
            for n in range(o, self.degree + 1):
                t[n] = math.prod(range(n, n - o, -1), start=1.0) * base[n - o]
            tabs.append(t)
        return tabs


# -- OU semigroup and conditioning ------------------------------------------
def ou_semigroup(space: GaussianSpace, g: Callable, t: float) -> Callable:
    """P_t g(x) = sum_j W_j g(e^{-t} x + sqrt(1 - e^{-2t}) y_j).

    The inner rule integrating over y is the space's own rule.  P_0 g = g
    exactly (shortcut, no quadrature).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return g
    a = float(np.exp(-t))
    b = float(np.sqrt(1.0 - a * a))
    y = space.nodes
    wy = space.weights

    def smoothed(x):
        pts = as_points(x, space.dim)
        mixed = a * pts[:, None, :] + b * y[None, :, :]
        vals = np.asarray(g(mixed.reshape(-1, space.dim)), dtype=float)
        vals = vals.reshape(pts.shape[0], y.shape[0])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError("semigroup integrand not finite")
        return vals @ wy

    return smoothed


def condition_first_n(space: GaussianSpace, g: Callable, n: int) -> Callable:
    """E[g | first n coordinates]: quadrature over the trailing block.

    n = d returns g unchanged; n = 0 integrates everything out.
    """
    d = space.dim
    if not 0 <= n <= d:
        raise ValueError(f"n must be in [0, {d}]")
    if n == d:
        return g
    tail = space.subspace(d - n)
    z = tail.nodes
    wz = tail.weights

    def conditioned(x):
        pts = as_points(x, d)
        rep = np.repeat(pts[:, None, :], z.shape[0], axis=1)
        rep[:, :, n:] = z[None, :, :]
        vals = np.asarray(g(rep.reshape(-1, d)), dtype=float)
        vals = vals.reshape(pts.shape[0], z.shape[0])
        if not np.all(np.isfinite(vals)):
            raise NonFiniteValueError("conditioning integrand not finite")
        return vals @ wz

    return conditioned


def one_pass_smoothed(space: GaussianSpace, target: ScalarTarget, n: int):
    """(f_n, grad f_n, hess f_n) of smooth_target's OU-smoothed target with
    all points in one log-sum-exp over the (M J, d) rule arguments.

    The same arithmetic as smooth_target, without its blocks of points.
    """
    d = space.dim
    keep = min(n, d)
    a = float(np.exp(-1.0 / n))
    b = float(np.sqrt(1.0 - a * a))
    y_rule = space.subspace(d)
    n_rule = y_rule.nodes.shape[0]
    log_omega = np.log(y_rule.weights)
    lead = np.arange(d) < keep
    ca = np.where(lead, a, 0.0)
    cb = np.where(lead, b, 1.0)
    y_row = (cb * y_rule.nodes).reshape(1, -1)

    def log_mix(x):
        pts = as_points(x, d)
        m = pts.shape[0]
        args = np.repeat(ca * pts, n_rule, axis=0).reshape(m, n_rule * d)
        args += y_row
        args = args.reshape(m, n_rule, d)
        u = -np.asarray(target.eval(args.reshape(-1, d))).reshape(m, n_rule) + log_omega[None, :]
        shift = u.max(axis=1, keepdims=True)
        r = np.exp(u - shift)
        total = r.sum(axis=1, keepdims=True)
        return args, r / total, (shift[:, 0] + np.log(total[:, 0]))

    def f(x):
        return -log_mix(x)[2]

    def grad(x):
        args, r, _ = log_mix(x)
        gf = np.asarray(target.grad(args.reshape(-1, d))).reshape(args.shape)
        return ca * np.einsum("nj,njd->nd", r, gf)

    def hess(x):
        args, r, _ = log_mix(x)
        flat = args.reshape(-1, d)
        gf = np.asarray(target.grad(flat)).reshape(args.shape)
        hf = np.asarray(target.hess(flat)).reshape(args.shape[:2] + (d, d))
        mean_g = np.einsum("nj,njd->nd", r, gf)
        return np.outer(ca, ca) * (
            np.einsum("nj,njde->nde", r, hf)
            - np.einsum("nj,njd,nje->nde", r, gf, gf)
            + np.einsum("nd,ne->nde", mean_g, mean_g)
        )

    return f, grad, hess


# -- max-shifted log-sum-exp, written out per quantity ----------------------
def shifted_nu_terms(space: GaussianSpace, target: ScalarTarget):
    """(nu-weights, log E[e^{-f}], H(nu | mu)) from shift = max(log w - f)
    and w = e^{log w - f - shift}, normalized as w / sum w, with
    log E[e^{-f}] = shift + log sum w."""
    fvals = np.asarray(target.eval(space.nodes), dtype=float).reshape(-1)
    logw = np.log(space.weights) - fvals
    shift = logw.max()
    w = np.exp(logw - shift)
    log_c = float(shift + np.log(np.sum(w)))
    w = w / w.sum()
    return w, log_c, float(np.sum(w * -fvals)) - log_c


def np_sum_mixture(weights, means, sigmas):
    """Mixture (f, grad, hess) with np.sum over coordinates and the
    responsibilities by their own max-shift, as mixture_target computes them."""
    pi, means, sigmas = (np.asarray(v, dtype=float) for v in (weights, means, sigmas))
    inv2 = 1.0 / sigmas**2
    log_norm = np.sum(np.log(sigmas), axis=1)

    def responsibilities(x):
        comp = 0.5 * np.sum((x[:, None, :] - means[None]) ** 2 * inv2[None] - x[:, None, :] ** 2,
                            axis=2) + log_norm[None, :]
        logs = np.log(pi)[None, :] - comp
        shift = logs.max(axis=1, keepdims=True)
        r = np.exp(logs - shift)
        total = r.sum(axis=1, keepdims=True)
        return r / total, shift[:, 0] + np.log(total[:, 0])

    def component_grads(x):
        return (x[:, None, :] - means[None]) * inv2[None] - x[:, None, :]

    def f(x):
        return -responsibilities(x)[1]

    def grad(x):
        return np.einsum("nk,nkd->nd", responsibilities(x)[0], component_grads(x))

    def hess(x):
        r, _ = responsibilities(x)
        gk = component_grads(x)
        g = np.einsum("nk,nkd->nd", r, gk)
        d = x.shape[1]
        h = np.zeros((x.shape[0], d, d))
        h[:, np.arange(d), np.arange(d)] = np.einsum("nk,kd->nd", r, inv2 - 1.0)
        h -= np.einsum("nk,nkd,nke->nde", r, gk, gk)
        h += np.einsum("nd,ne->nde", g, g)
        return h

    return f, grad, hess


# -- vector and operator fields, divergences --------------------------------
@dataclass(frozen=True)
class VectorField:
    """xi: R^d -> R^d with Jacobian J[n, i, j] = d_i xi_j(x_n)."""

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def gradient_field(phi) -> VectorField:
    """xi = grad phi; the Jacobian is the (symmetric) Hessian."""
    return VectorField(phi.dim, phi.grad, phi.hess)


def constant_field(h) -> VectorField:
    h = np.asarray(h, dtype=float).reshape(-1)
    d = h.shape[0]
    return VectorField(
        d,
        lambda x: np.broadcast_to(h, (as_points(x, d).shape[0], d)).copy(),
        lambda x: np.zeros((as_points(x, d).shape[0], d, d)),
    )


def linear_field(a: np.ndarray) -> VectorField:
    """xi(x) = A x, so (grad xi)_ij = A_ji."""
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    return VectorField(
        d,
        lambda x: as_points(x, d) @ a.T,
        lambda x: np.broadcast_to(a.T, (as_points(x, d).shape[0], d, d)).copy(),
    )


@dataclass(frozen=True)
class OperatorField:
    """M: R^d -> R^{d x d} with the contracted derivative sum_i d_i M_ij."""

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    partial_divergence: Callable[[np.ndarray], np.ndarray]


def constant_operator(a: np.ndarray) -> OperatorField:
    a = np.asarray(a, dtype=float)
    d = a.shape[0]
    return OperatorField(
        d,
        lambda x: np.broadcast_to(a, (as_points(x, d).shape[0], d, d)).copy(),
        lambda x: np.zeros((as_points(x, d).shape[0], d)),
    )


def hessian_operator(phi) -> OperatorField:
    """M = hess phi; sum_i d_i M_ij = sum_i phi'''_iij."""

    def pdiv(x):
        third = phi.third(x)
        return np.einsum("niij->nj", third)

    return OperatorField(phi.dim, phi.hess, pdiv)


def divergence(space: GaussianSpace, xi: VectorField) -> Callable:
    """delta xi = <x, xi(x)> - trace(grad xi)."""

    def div(x):
        pts = as_points(x, space.dim)
        vals = xi.value(pts)
        jac = xi.jacobian(pts)
        return np.einsum("ni,ni->n", pts, vals) - np.einsum("nii->n", jac)

    return div


def operator_divergence(space: GaussianSpace, m: OperatorField) -> Callable:
    """(delta M)_j = sum_i (M_ij x_i - d_i M_ij); adjoint of grad on fields."""

    def div(x):
        pts = as_points(x, space.dim)
        vals = m.value(pts)
        if vals.ndim != 3 or vals.shape[1] != space.dim or vals.shape[2] != space.dim:
            raise NonSquareOperatorError(f"operator field must be (N, {space.dim}, {space.dim})")
        return np.einsum("nij,ni->nj", vals, pts) - m.partial_divergence(pts)

    return div


def weighted_divergence(space: GaussianSpace, target, xi: VectorField) -> Callable:
    """delta_nu xi = delta xi + <grad f, xi>."""
    base = divergence(space, xi)

    def div(x):
        pts = as_points(x, space.dim)
        return base(pts) + np.einsum("ni,ni->n", target.grad(pts), xi.value(pts))

    return div


# -- the Gaussian Jacobian of T = I + grad phi ------------------------------
def gaussian_jacobian(space: GaussianSpace, phi: PotentialField) -> Callable:
    """Lambda(x) = det2(I + hess phi) exp(-L phi - |grad phi|^2 / 2) > 0.

    L phi comes from the analytic Hermite representation, not quadrature.
    """
    # L He_alpha = |alpha| He_alpha
    lphi = PotentialField(phi.basis, phi.coeffs * phi.basis.ou_eigenvalues)

    def jac(x):
        pts = as_points(x, phi.dim)
        ld2 = logdet2(phi.hess(pts))
        g = phi.grad(pts)
        return np.exp(ld2 - lphi.eval(pts) - 0.5 * np.sum(g**2, axis=1))

    return jac


# -- the dual potential -----------------------------------------------------
def graph_identity_gap(phi: PotentialField, dual: DualPotential, x: np.ndarray) -> float:
    """max |phi(x) + psi(T(x)) + |grad phi(x)|^2 / 2| over sample points x."""
    pts = as_points(x, phi.dim)
    g = phi.grad(pts)
    f_vals = phi.eval(pts) + dual.eval(pts + g) + 0.5 * np.sum(g**2, axis=1)
    return float(np.max(np.abs(f_vals)))


def halving_conjugacy_minimize(phi: PotentialField, y: np.ndarray):
    """conjugacy_minimize with one residual call per step halving.

    Each Newton iteration halves the step of every still-rejected point and
    re-evaluates the whole active set, up to 2^-20; a point still rejected
    there is retired.  Returns (x_star, converged) as conjugacy_minimize.
    """
    y = as_points(y, phi.dim)
    x = y.copy()
    eye = np.eye(phi.dim)

    def residual(pts, targets):
        return phi.grad(pts) + pts - targets

    r = residual(x, y)
    rnorm = np.linalg.norm(r, axis=1)
    tol = 1e-12 * (1.0 + np.linalg.norm(y, axis=1))
    live = np.ones(y.shape[0], dtype=bool)
    for _ in range(100):
        active = np.flatnonzero(live & (rnorm > tol))
        if active.size == 0:
            break
        jac = eye[None] + phi.hess(x[active])
        step = np.linalg.solve(jac, -r[active][..., None])[..., 0]
        lam = np.ones(step.shape[0])
        xa = x[active]
        ya = y[active]
        ra = rnorm[active]
        for halvings in range(21):
            trial = xa + lam[:, None] * step
            trn = np.linalg.norm(residual(trial, ya), axis=1)
            bad = trn > (1.0 - 0.5 * lam) * ra
            if not bad.any() or halvings == 20:
                break
            lam[bad] *= 0.5
        x[active[~bad]] = trial[~bad]
        live[active[bad]] = False
        r = residual(x, y)
        rnorm = np.linalg.norm(r, axis=1)
    min_eig = np.linalg.eigvalsh(eye[None] + phi.hess(x))[:, 0]
    return x, (rnorm <= tol) & (min_eig > EIG_FLOOR)


class BackwardWorkspace(ForwardWorkspace):
    """J_b(psi) = -E_nu[f] - E_nu[log det2(I + hess psi) - L psi - |grad psi|^2 / 2]
    and its coefficient gradient over psi on the mass-floored nu-nodes.

    The infimum of J_b is -log nu(e^f) = log E[e^{-f}], attained at the
    conjugacy dual psi.  The forward workspace's tables and barrier are
    built over the nu-mass nodes, weighted by nu.
    """

    def __init__(self, space: GaussianSpace, target: ScalarTarget, basis: HermiteBasis):
        w, mask = nu_masked_weights(nu_weights(space, target))
        nu_space = GaussianSpace(space.dim, space.nodes[mask], w[mask], "nu-mass nodes")
        super().__init__(nu_space, target, basis)
        self.bval = basis.value_table(self.nodes)
        fvals = np.asarray(target.eval(self.nodes), dtype=float).reshape(-1)
        self.const = float(np.sum(self.w * (-fvals)))
        self.ou_eigs = basis.ou_eigenvalues

    def objective_and_gradient(self, coeffs: np.ndarray):
        g, jac, ld2, margin = self.barrier(coeffs)
        if margin <= 0:
            return np.inf, None, margin
        lpsi = (coeffs * self.ou_eigs) @ self.bval
        log_lambda = ld2 - lpsi - 0.5 * np.sum(g**2, axis=1)
        obj = self.const - float(np.sum(self.w * log_lambda))
        grad = self.barrier_gradient(jac)
        grad += self.ou_eigs * (self.bval @ self.w)
        grad += np.einsum("nk,akn->a", g * self.w[:, None], self.bgrad)
        return obj, grad, margin


def solve_backward_variational(space: GaussianSpace, target: ScalarTarget,
                               config: SolveConfig) -> tuple[PotentialField, SolveResult]:
    """Minimize J_b directly over psi coefficients (BackwardWorkspace)."""
    ws = BackwardWorkspace(space, target, HermiteBasis(space.dim, config.degree))
    # -log nu(e^f) = log E[e^{-f}]
    result = minimize_with_barrier(ws, np.zeros(ws.basis.size), config,
                                   log_normalizer(space, target))
    return result.phi, result


def bisect_cubics(coef: np.ndarray, width: np.ndarray, q: np.ndarray) -> np.ndarray:
    """_invert_cubics by plain bisection: offsets s in [0, width] with p(s) = q.

    coef holds PPoly coefficients (4, n) in powers of s, highest first, of an
    increasing cubic per query.  52 halvings shrink a segment of width <= 0.004
    (the oracle's table step) below 1e-18, under the spacing of doubles.
    """
    lo = np.zeros_like(q)
    hi = width
    for _ in range(52):
        mid = 0.5 * (lo + hi)
        below = ((coef[0] * mid + coef[1]) * mid + coef[2]) * mid + coef[3] < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def scipy_monotone_map(target: ScalarTarget, grid: np.ndarray = GRID) -> np.ndarray:
    """T on the grid by the oracle's algorithm on scipy's kernels.

    scipy's cumulative_simpson, PchipInterpolator and ndtr build the CDF and
    survival tables, their cubics and the quantiles; the quantiles are
    clipped to the table, and the oracle's own root solve inverts them.
    """
    from scipy.integrate import cumulative_simpson
    from scipy.interpolate import PchipInterpolator
    from scipy.special import ndtr

    ys, dens = _nu_density_table(target)
    cdf = cumulative_simpson(dens, x=ys, initial=0.0)
    total = cdf[-1]
    cdf = cdf / total
    sf = cumulative_simpson(dens[::-1], x=-ys[::-1], initial=0.0)[::-1] / total
    coef = PchipInterpolator(ys, np.column_stack([cdf, -sf])).c
    left = grid <= 0
    q = np.where(left, np.clip(ndtr(grid), cdf[1], cdf[-2]),
                 -np.clip(ndtr(-grid), sf[-2], sf[1]))
    k = np.where(left, np.searchsorted(cdf, q), np.searchsorted(-sf, q))
    k = np.clip(k, 1, len(ys) - 1)
    return ys[k - 1] + _invert_cubics(coef[:, k - 1, (~left).astype(np.intp)],
                                      ys[k] - ys[k - 1], q)
