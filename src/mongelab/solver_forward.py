"""Forward transport solver: minimize

    J_f(phi) = E[f o (I + grad phi)] + E[|grad phi|^2 / 2 - log det2(I + hess phi)]

over Hermite coefficients of phi.  The -log det2 term is a natural log
barrier at the monotonicity constraint I + hess phi > 0, enforced at
every quadrature node: the line search never accepts a step whose
smallest eigenvalue falls to EIG_FLOOR or below.

At the minimizer, J* = -log E[e^{-f}] and grad phi is the Brenier shift
transporting mu onto nu, with E[|grad phi|^2] the squared Wasserstein
distance.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NonFiniteValueError, SingularJacobianError
from .gaussian import GaussianSpace
from .hermite import HermiteBasis
from .oracle1d import QuantileTable, monotone_map, wasserstein2_sq
from .potentials import EIG_FLOOR, PotentialField, eigh_inverse, jacobi_eigh, relative_entropy_terms
from .targets import ScalarTarget


@dataclass(frozen=True)
class SolveConfig:
    """Basis degree and stopping rule of the one quasi-Newton barrier solve;
    the eigenvalue floor (EIG_FLOOR) and the soft gradient tolerance
    (GRAD_TOL_SOFT) are constants.
    """

    degree: int
    max_iters: int = 500
    grad_tol: float = 1e-8

    def __post_init__(self):
        for name in ("degree", "max_iters"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.grad_tol <= GRAD_TOL_SOFT:  # false for NaN
            raise ValueError(f"grad_tol must lie in (0, {GRAD_TOL_SOFT}], got {self.grad_tol!r}")


@dataclass
class SolveResult:
    phi: PotentialField
    objective: float
    iterations: int
    converged: bool
    grad_norm: float
    wasserstein2_sq: float
    variational_lhs: float  # -log E[e^{-f}]
    objective_history: list = field(default_factory=list)
    nu_weights: np.ndarray | None = None  # normalized nu-weights on the nodes, set by solve


class ForwardWorkspace:
    """J_f and its coefficient gradient on the mu-quadrature nodes, from
    per-node basis tables and the barrier -E_w[log det2(I + hess)].

    objective_and_gradient(coeffs) -> (value, gradient, margin) is what
    minimize_with_barrier drives.  A coefficient vector that breaches the
    eigenvalue floor, or moves a node to where f is not finite, evaluates
    to +inf, which the backtracking line search rejects.
    """

    def __init__(self, space: GaussianSpace, target: ScalarTarget, basis: HermiteBasis):
        if basis.dim != space.dim:
            raise ValueError("basis dimension does not match space")
        self.basis = basis
        self.target = target
        self.nodes = space.nodes
        self.w = space.weights
        self.bgrad = basis.grad_table(self.nodes)    # (A, d, N)
        self.bhess = basis.hess_table(self.nodes)    # (A, d, d, N)
        self.eye = np.eye(basis.dim)[:, :, None]          # (d, d, 1)
        self.coeff_scale = coefficient_scale(self.bhess)

    def fields(self, coeffs: np.ndarray):
        """(grad phi (N, d), hess phi (d, d, N)) on the nodes, one matmul each
        over the flattened (C-contiguous) tables."""
        a = len(coeffs)
        g = (coeffs @ self.bgrad.reshape(a, -1)).reshape(self.bgrad.shape[1:]).T
        h = (coeffs @ self.bhess.reshape(a, -1)).reshape(self.bhess.shape[1:])
        return g, h

    def barrier(self, coeffs: np.ndarray):
        """(grad field, eigen-decomposition (lam, V) of I + hess, per-node
        log det2, margin); the decomposition and log det2 are None when the
        smallest eigenvalue is at or below the floor (margin <= 0).  A diagonal
        entry of I + hess at or below the floor (or NaN) rejects the trial
        before the eigensolve, with margin -inf: lam_min is at most every
        diagonal entry, and jacobi_eigh only lowers the smaller of a pair."""
        g, h = self.fields(coeffs)
        if not (np.diagonal(h) + 1.0).min() > EIG_FLOOR:
            return g, None, None, -np.inf
        lam, v = jacobi_eigh(h + self.eye)
        margin = float(lam.min()) - EIG_FLOOR
        if margin <= 0:
            return g, None, None, margin
        return g, (lam, v), np.sum(np.log(lam) - (lam - 1.0), axis=0), margin

    def barrier_gradient(self, eig) -> np.ndarray:
        """Coefficient gradient of -E_w[log det2(I + hess)]: -sum_n w (K - I) : bhess,
        with K = (I + hess)^{-1} from the barrier's eigen-decomposition."""
        m = (eigh_inverse(*eig) - self.eye) * self.w
        return -np.einsum("ijn,aijn->a", m, self.bhess)

    def objective_and_gradient(self, coeffs: np.ndarray):
        return self._evaluate(coeffs)

    def _evaluate(self, coeffs: np.ndarray):
        g, eig, ld2, margin = self.barrier(coeffs)
        if margin <= 0:
            return np.inf, None, margin
        fvals, grad_f = self.target.value_and_grad(self.nodes + g)
        fvals = np.asarray(fvals, dtype=float).reshape(-1)
        if not np.all(np.isfinite(fvals)):
            return np.inf, None, margin
        obj = float(np.sum(self.w * (fvals + 0.5 * np.sum(g**2, axis=1) - ld2)))
        grad_f = np.asarray(grad_f, dtype=float)
        lin = (grad_f + g) * self.w[:, None]                      # (N, d)
        grad = np.einsum("nk,akn->a", lin, self.bgrad)
        grad += self.barrier_gradient(eig)
        return obj, grad, margin


MARGIN_SHRINK = 0.2  # fraction-to-the-boundary: a step keeps >= 20% of the margin
GRAD_TOL_SOFT = 1e-4  # gradient norm accepted when descent is floating-point limited


def coefficient_scale(bhess: np.ndarray) -> np.ndarray:
    """Per-coefficient preconditioner 1 / (1 + max-node Hessian magnitude).

    High-degree basis functions move the monotonicity margin ~1e10 times
    faster than low-degree ones at extreme nodes; without this scaling a
    quasi-newton step can crush the margin for negligible objective gain.
    """
    sens = np.sqrt(np.einsum("aijn,aijn->an", bhess, bhess)).max(axis=1)
    return 1.0 / (1.0 + sens)


def minimize_with_barrier(ws: ForwardWorkspace, x0: np.ndarray, config: SolveConfig,
                          variational_lhs: float) -> SolveResult:
    """Deterministic BFGS with Armijo backtracking over the coefficients
    of ws, from x0.

    ws.objective_and_gradient(x) returns (value, gradient, margin); value
    is +inf and the gradient None when the margin (distance of the
    smallest eigenvalue above the floor) is nonpositive, or when f is not
    finite at a transported node: such a trial is rejected like a floor
    breach.  Accepted steps must keep a fixed fraction of the current
    margin (fraction-to-the-boundary rule), so iterates approach the
    feasibility boundary at most geometrically and never get pinned
    against it mid-path.  The inverse-Hessian estimate starts, and
    restarts when the curvature condition fails, at h0 =
    diag(ws.coeff_scale).  A quasi-newton direction that does not descend,
    or whose backtrack fails, is replaced once by -h0 grad, unless the
    estimate already was h0.  Converges at config.grad_tol; when no
    acceptable step remains (descent below floating-point resolution), the
    run counts as converged iff the gradient norm is within GRAD_TOL_SOFT.
    Returns the SolveResult of the last accepted iterate x: phi =
    PotentialField(ws.basis, x) and wasserstein2_sq = sum ws.w |grad phi|^2.
    """
    x = np.array(x0, dtype=float)
    val, grad, margin = ws.objective_and_gradient(x)
    if margin <= 0:
        raise SingularJacobianError("infeasible starting point")
    if not np.isfinite(val):
        raise NonFiniteValueError("target not finite at a transported node")
    eye = np.eye(x.shape[0])
    h0 = np.diag(ws.coeff_scale)
    h_inv = h0  # `h_inv is h0` marks a (re)started estimate
    history = [val]
    iterations = 0
    converged = float(np.linalg.norm(grad)) <= config.grad_tol

    def backtrack(p, slope):
        alpha = 1.0 if slope < 0 else 0.0  # no trial along a direction that does not descend
        while alpha > 1e-16:
            trial = x + alpha * p
            new_val, new_grad, new_margin = ws.objective_and_gradient(trial)
            if (
                np.isfinite(new_val)
                and new_margin >= MARGIN_SHRINK * margin
                and new_val <= val + 1e-4 * alpha * slope
            ):
                return alpha, new_val, new_grad, new_margin
            alpha *= 0.5
        return None, None, None, None

    for _ in range(config.max_iters):
        if converged:
            break
        iterations += 1
        p = -h_inv @ grad
        alpha, new_val, new_grad, new_margin = backtrack(p, float(p @ grad))
        if alpha is None and h_inv is not h0:
            # quasi-newton direction uphill or blocked; restart from scaled descent
            h_inv = h0
            p = -(h0 @ grad)
            alpha, new_val, new_grad, new_margin = backtrack(p, float(p @ grad))
        if alpha is None:
            # no representable descent left; best iterate is the answer
            converged = float(np.linalg.norm(grad)) <= GRAD_TOL_SOFT
            break
        s = alpha * p
        y = new_grad - grad
        decrease = val - new_val
        x, val, grad, margin = x + s, new_val, new_grad, new_margin
        history.append(val)
        gn = float(np.linalg.norm(grad))
        converged = gn <= config.grad_tol
        if (
            not converged
            and gn <= GRAD_TOL_SOFT
            and decrease <= 1e-15 * (1.0 + abs(val))
        ):
            converged = True  # stationary within floating-point resolution
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            rho = 1.0 / sy
            sy_outer = np.outer(s, y)
            h_inv = (eye - rho * sy_outer) @ h_inv @ (eye - rho * sy_outer.T)
            h_inv += rho * np.outer(s, s)
        else:
            h_inv = h0
    g, _ = ws.fields(x)
    return SolveResult(
        phi=PotentialField(ws.basis, x),
        objective=val,
        iterations=iterations,
        converged=converged,
        grad_norm=float(np.linalg.norm(grad)),
        wasserstein2_sq=float(np.sum(ws.w * np.sum(g**2, axis=1))),
        variational_lhs=variational_lhs,
        objective_history=history,
    )


def objective(space: GaussianSpace, target: ScalarTarget, phi: PotentialField) -> float:
    """J_f(phi); SingularJacobianError at the barrier, NonFiniteValueError where f is not finite."""
    ws = ForwardWorkspace(space, target, phi.basis)
    val, _, margin = ws._evaluate(phi.coeffs)
    if margin <= 0:
        raise SingularJacobianError("eigenvalue floor violated at a quadrature node")
    if not np.isfinite(val):
        raise NonFiniteValueError("target not finite at a transported node")
    return val


def solve(space: GaussianSpace, target: ScalarTarget, config: SolveConfig,
          initial: PotentialField | None = None) -> SolveResult:
    """Minimize J_f from phi = 0 (always feasible: Lambda = 1 there).

    An explicit feasible `initial` potential (same dim and degree) may be
    supplied to warm-start, e.g. when re-solving a slightly perturbed
    target in a convergence study.  Returns the best iterate with
    converged=False when the gradient tolerance was not reached within
    max_iters; deterministic for a fixed (space, target, config, initial).
    """
    h_rel, log_c, w_nu = relative_entropy_terms(space, target)
    if not np.isfinite(h_rel):
        raise NonFiniteValueError("relative entropy of the target is not finite")
    basis = HermiteBasis(space.dim, config.degree)
    ws = ForwardWorkspace(space, target, basis)
    if initial is None:
        c0 = np.zeros(basis.size)
    else:
        if initial.dim != space.dim or initial.degree != config.degree:
            raise ValueError("initial potential must match the space dim and config degree")
        c0 = initial.coeffs
    return replace(minimize_with_barrier(ws, c0, config, -log_c), nu_weights=w_nu)


def gaussian_w2_sq(target: ScalarTarget) -> float:
    """Closed-form d2^2(mu, N(m, diag(s^2))) = |m|^2 + sum_i (s_i - 1)^2."""
    mean = np.asarray(target.params["mean"], dtype=float)
    sigma = np.asarray(target.params["sigma"], dtype=float)
    return float(np.sum(mean**2) + np.sum((sigma - 1.0) ** 2))


def wasserstein_check(result: SolveResult, target: ScalarTarget,
                      table: QuantileTable | None = None) -> tuple[float, float]:
    """(E[|grad phi|^2], independent reference d2^2) for the solved potential.

    The reference is the Gaussian closed form when available, else the 1d
    monotone-rearrangement value on table, the target's quantile_table (built
    here when None), else NaN.
    """
    lhs = result.wasserstein2_sq
    if target.kind == "gaussian":
        return lhs, gaussian_w2_sq(target)
    if target.dim == 1:
        return lhs, wasserstein2_sq(monotone_map(target, table=table))
    return lhs, float("nan")


def variational_gap(result: SolveResult) -> float:
    """J* - (-log E[e^{-f}]) >= 0 up to quadrature error; ~0 at convergence."""
    return result.objective - result.variational_lhs
