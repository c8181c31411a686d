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
JACOBI_SWEEPS = 30  # cap on cyclic sweeps, as in LAPACK dgesvj; d <= 5 stops within 7 (tests)


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
        return self.basis._table(x, 0, self.coeffs)

    def grad(self, x) -> np.ndarray:
        return self.basis._table(x, 1, self.coeffs).T  # (N, d)

    def hess(self, x) -> np.ndarray:
        return np.transpose(self.basis._table(x, 2, self.coeffs), (2, 0, 1))

    def third(self, x) -> np.ndarray:
        return np.transpose(self.basis._table(x, 3, self.coeffs), (3, 0, 1, 2))

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


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lam (d, N), V (d, d, N)) with a[..., n] = V diag(lam) V^T, for a
    node-last batch a (d, d, N) of symmetric matrices; lam is unsorted.

    Cyclic Jacobi (Golub & Van Loan 8.5) on the upper triangle, each step
    elementwise over the nodes.  A rotation is skipped where
    |a_pq| <= eps sqrt(|a_pp a_qq|) (Demmel & Veselic 1992), and the sweeps
    stop after one that rotates nothing.  d = 1 makes no rotation, so
    lam = a.  A node with a non-finite entry gets lam = -inf.
    """
    d, n = a.shape[0], a.shape[2]
    finite = np.isfinite(a).all(axis=(0, 1))
    if not finite.all():
        a = np.where(finite, a, 0.0)
    m = [[a[min(p, q), max(p, q)] for q in range(d)] for p in range(d)]  # node vectors
    v = np.repeat(np.eye(d)[:, :, None], n, axis=2)
    eps = np.finfo(float).eps
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p][q]
                rot = np.abs(apq) > eps * np.sqrt(np.abs(m[p][p])) * np.sqrt(np.abs(m[q][q]))
                if not rot.any():
                    continue
                rotated = True
                # t = tan(theta) of the smaller rotation that zeroes a_pq; 0 where skipped
                diff = m[q][q] - m[p][p]
                t = np.divide(np.copysign(2.0, diff) * apq, np.abs(diff) + np.hypot(diff, 2.0 * apq),
                              out=np.zeros(n), where=rot)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                tapq = t * apq
                m[p][p] = m[p][p] - tapq
                m[q][q] = m[q][q] + tapq
                m[p][q] = m[q][p] = np.where(rot, 0.0, apq)
                for r in range(d):
                    if r != p and r != q:
                        arp, arq = m[r][p], m[r][q]
                        m[r][p] = m[p][r] = c * arp - s * arq
                        m[r][q] = m[q][r] = s * arp + c * arq
                vp, vq = v[:, p], v[:, q]
                v[:, p], v[:, q] = c * vp - s * vq, s * vp + c * vq
        if not rotated:
            break
    return np.where(finite, [m[k][k] for k in range(d)], -np.inf), v


def eigh_inverse(lam: np.ndarray, v: np.ndarray) -> np.ndarray:
    """K = V diag(1/lam) V^T in the node-last layout of jacobi_eigh."""
    return np.einsum("ikn,jkn->ijn", v, v / lam)


def logdet2(a):
    """log det2(I + K) = sum_i [log(1 + k_i) - k_i] for symmetric K.

    Always <= 0 (log(1+x) <= x), zero only at K = 0.  Accepts one matrix
    (returns a float) or a batch (N, d, d) (returns (N,)).
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim == 2
    batch = a[None] if single else a
    kappa, _ = jacobi_eigh(np.transpose(batch, (1, 2, 0)))
    lam = 1.0 + kappa
    if np.any(lam <= EIG_FLOOR):
        raise SingularJacobianError(f"eigenvalue of I + K at or below floor {EIG_FLOOR}")
    vals = np.sum(np.log(lam) - kappa, axis=0)
    return float(vals[0]) if single else vals


def inverse_shift_jacobian(phi: PotentialField, x) -> np.ndarray:
    """K = (I + hess phi)^{-1} at a batch of points, floor-checked."""
    return floor_checked_inverse(phi.hess(as_points(x, phi.dim)))


def floor_checked_inverse(hess: np.ndarray) -> np.ndarray:
    """(I + hess)^{-1} for a batch (N, d, d) of Hessians, floor-checked."""
    lam, v = jacobi_eigh(np.transpose(hess, (1, 2, 0)) + np.eye(hess.shape[1])[:, :, None])
    if np.any(lam <= EIG_FLOOR):
        raise SingularJacobianError(f"I + hess phi has eigenvalue at or below {EIG_FLOOR}")
    return np.transpose(eigh_inverse(lam, v), (2, 0, 1))


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
