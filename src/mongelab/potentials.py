"""Hermite-basis potential fields, the modified Carleman-Fredholm determinant
and entropy functionals.

A potential phi(x) = sum_alpha c_alpha He_alpha(x) (no constant term; the
additive constant of a transport potential is pinned to zero coefficient)
supports exact gradient/Hessian/third-derivative evaluation, and the
number operator acts diagonally: L phi has coefficients |alpha| c_alpha.

The Gaussian Jacobian of the shift T = I + grad phi is

    Lambda = det2(I + hess phi) exp(-L phi - |grad phi|^2 / 2)

with det2(I + K) = det(I + K) e^{-trace K}, so

    log det2(I + K) = sum_i [log(1 + k_i) - k_i] <= 0

over the eigenvalues k_i of K.  The change of variables gives the
pushforward entropy

    H(T mu | mu) = E[|grad phi|^2 / 2 - log det2(I + hess phi)] >= 0.
"""
from __future__ import annotations

import numpy as np

from .errors import SingularJacobianError
from .gaussian import GaussianSpace, shifted_nu_weights
from .hermite import HermiteBasis, as_points

EIG_FLOOR = 1e-8


class PotentialField:
    """Polynomial potential in the tensor Hermite basis (constant excluded)."""

    def __init__(self, basis: HermiteBasis, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=float).reshape(-1)
        if coeffs.shape[0] != basis.size:
            raise ValueError(f"expected {basis.size} coefficients, got {coeffs.shape[0]}")
        self.basis = basis
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def degree(self) -> int:
        return self.basis.degree

    @staticmethod
    def from_coeff_dict(dim: int, degree: int, coeffs: dict) -> "PotentialField":
        basis = HermiteBasis(dim, degree)
        vec = np.zeros(basis.size)
        lookup = {alpha: a for a, alpha in enumerate(basis.indices)}
        for alpha, c in coeffs.items():
            key = tuple(int(v) for v in (alpha if hasattr(alpha, "__len__") else (alpha,)))
            if key not in lookup:
                raise ValueError(f"multi-index {key} outside basis (dim={dim}, degree={degree})")
            vec[lookup[key]] = float(c)
        return PotentialField(basis, vec)

    def eval(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        return self.coeffs @ self.basis.value_table(pts)

    def grad(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        table = self.basis.grad_table(pts)
        return np.tensordot(self.coeffs, table, axes=1).T  # (N, d)

    def hess(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        table = self.basis.hess_table(pts)
        return np.transpose(np.tensordot(self.coeffs, table, axes=1), (2, 0, 1))

    def third(self, x) -> np.ndarray:
        pts = as_points(x, self.dim)
        if self.degree < 3:
            return np.zeros((pts.shape[0], self.dim, self.dim, self.dim))
        table = self.basis.third_table(pts)
        return np.transpose(np.tensordot(self.coeffs, table, axes=1), (3, 0, 1, 2))

    def semigroup(self, t: float) -> "PotentialField":
        """P_t phi: coefficients scale by e^{-|alpha| t}."""
        if t < 0:
            raise ValueError("t must be >= 0")
        return PotentialField(self.basis, self.coeffs * np.exp(-t * self.basis.ou_eigenvalues))

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "degree": self.degree,
            "coeffs": [
                [list(alpha), float(c)]
                for alpha, c in zip(self.basis.indices, self.coeffs)
                if c != 0.0
            ],
        }


def logdet2(a):
    """log det2(I + K) = sum_i [log(1 + k_i) - k_i] for symmetric K.

    Always <= 0 (log(1+x) <= x), zero only at K = 0.  Accepts one matrix
    (returns a float) or a batch (N, d, d) (returns (N,)).
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim == 2
    batch = a[None] if single else a
    kappa = np.linalg.eigvalsh(batch)
    lam = 1.0 + kappa
    if np.any(lam <= EIG_FLOOR):
        raise SingularJacobianError(f"eigenvalue of I + K at or below floor {EIG_FLOOR}")
    vals = np.sum(np.log(lam) - kappa, axis=1)
    return float(vals[0]) if single else vals


def inverse_shift_jacobian(phi: PotentialField, x) -> np.ndarray:
    """K = (I + hess phi)^{-1} at a batch of points, floor-checked."""
    return floor_checked_inverse(phi.hess(as_points(x, phi.dim)))


def floor_checked_inverse(hess: np.ndarray) -> np.ndarray:
    """(I + hess)^{-1} for a batch (N, d, d) of Hessians, floor-checked."""
    jac = np.eye(hess.shape[1])[None] + hess
    eigs = np.linalg.eigvalsh(jac)
    if np.any(eigs <= EIG_FLOOR):
        raise SingularJacobianError(f"I + hess phi has eigenvalue at or below {EIG_FLOOR}")
    return np.linalg.inv(jac)


def pushforward_entropy(space: GaussianSpace, phi: PotentialField) -> float:
    """H((I + grad phi) mu | mu) = E[|grad phi|^2 / 2 - log det2(I + hess phi)]."""
    g = phi.grad(space.nodes)
    ld2 = logdet2(phi.hess(space.nodes))
    vals = 0.5 * np.sum(g**2, axis=1) - ld2
    return float(np.sum(space.weights * vals))


def relative_entropy_terms(space: GaussianSpace, target) -> tuple[float, float, np.ndarray]:
    """(H(nu | mu), log E[e^{-f}], nu-weights), from one evaluation of f on the nodes."""
    fvals, w, log_c = shifted_nu_weights(space, target)
    return float(np.sum(w * -fvals)) - log_c, log_c, w


def relative_entropy(space: GaussianSpace, target) -> float:
    """H(nu | mu) = E_nu[-f] - log E[e^{-f}], from one evaluation of f on the nodes."""
    return relative_entropy_terms(space, target)[0]
