"""Probabilists' Hermite polynomials and tensor-product polynomial bases.

He_0 = 1, He_1 = x, He_{n+1}(x) = x He_n(x) - n He_{n-1}(x).  Under the
standard Gaussian they satisfy E[He_m He_n] = n! delta_mn, and every
derivative is again a basis element:

    d^o/dx^o He_n = n (n-1) ... (n-o+1) He_{n-o}.

A tensor basis element He_alpha(x) = prod_j He_{alpha_j}(x_j) is an
eigenfunction of the number operator L = <x, grad> - laplace with
eigenvalue |alpha| = sum_j alpha_j, which makes L and the associated
semigroup diagonal on coefficient vectors.  A potential sum_alpha c_alpha
He_alpha is contracted point by point as its basis is evaluated.
"""
from __future__ import annotations

import itertools

import numpy as np


def as_points(x, dim: int) -> np.ndarray:
    """Promote a single d-vector (or scalar when d=1) to an (N, d) array."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        pts = pts.reshape(1, dim) if pts.shape[0] == dim else pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {np.shape(x)}")
    return pts


def hermite_values(x: np.ndarray, degree: int) -> np.ndarray:
    """He_n(x) for n = 0..degree; output shape (degree+1,) + x.shape."""
    x = np.asarray(x, dtype=float)
    out = np.empty((degree + 1,) + x.shape)
    out[0] = 1.0
    if degree >= 1:
        out[1] = x
    for n in range(1, degree):
        out[n + 1] = x * out[n] - n * out[n - 1]
    return out


def multi_indices(dim: int, degree: int) -> list[tuple[int, ...]]:
    """All alpha with 1 <= |alpha| <= degree, ordered by (|alpha|, alpha)."""
    if dim < 1 or degree < 1:
        raise ValueError("dim and degree must be >= 1")
    idx = [
        a
        for a in itertools.product(range(degree + 1), repeat=dim)
        if 1 <= sum(a) <= degree
    ]
    idx.sort(key=lambda a: (sum(a), a))
    return idx


def _falling(n: int, o: int) -> float:
    out = 1.0
    for k in range(o):
        out *= n - k
    return out


class HermiteBasis:
    """Tensor Hermite basis He_alpha, 1 <= |alpha| <= degree (no constant term).

    One kernel builds the tables a solver reuses and, given coefficients,
    contracts as it evaluates, so a point's value never depends on its batch.
    """

    def __init__(self, dim: int, degree: int):
        self.dim = dim
        self.degree = degree
        self.indices = multi_indices(dim, degree)
        self.size = len(self.indices)
        self.ou_eigenvalues = np.array([float(sum(a)) for a in self.indices])
        self._plans: dict[int, list] = {}  # per instance, so a basis frees its plans

    def _coord_tables(self, points: np.ndarray, max_order: int) -> list[np.ndarray]:
        """tabs[o][n, j, :] = d^o He_n at coordinate j of each point."""
        base = np.transpose(hermite_values(points, self.degree), (0, 2, 1))
        tabs = [base]
        for o in range(1, max_order + 1):
            t = np.zeros_like(base)
            for n in range(o, self.degree + 1):
                t[n] = _falling(n, o) * base[n - o]
            tabs.append(t)
        return tabs

    def _plan(self, order: int) -> list:
        """(a, alpha, derivative count per coordinate, output slots) for each
        basis element and sorted derivative index (i <= j <= ...) it survives;
        the slots are every distinct permutation of the index."""
        plan = self._plans.get(order)
        if plan is None:
            plan = []
            for a, alpha in enumerate(self.indices):
                for idx in itertools.combinations_with_replacement(range(self.dim), order):
                    counts = tuple(idx.count(k) for k in range(self.dim))
                    if all(n >= o for n, o in zip(alpha, counts)):
                        plan.append((a, alpha, counts, sorted(set(itertools.permutations(idx)))))
            self._plans[order] = plan
        return plan

    def _table(self, points: np.ndarray, order: int, coeffs: np.ndarray | None = None) -> np.ndarray:
        """(size, d, ..., d, N) array of the order-th derivatives of He_alpha(x_n),
        each product of coordinate columns taken once for all its symmetric
        slots; with coeffs, the (d, ..., d, N) sum over alpha of those
        products, each started from its c_alpha (zeros above the degree)."""
        points = as_points(points, self.dim)
        tabs = self._coord_tables(points, order)
        lead = (self.size,) if coeffs is None else ()
        out = np.zeros(lead + (self.dim,) * order + (points.shape[0],))
        for a, alpha, counts, slots in self._plan(order):
            v = 1.0 if coeffs is None else coeffs[a]
            for j, (n, o) in enumerate(zip(alpha, counts)):
                v = v * tabs[o][n, j]
            for s in slots:
                if coeffs is None:
                    out[(a,) + s] = v
                else:
                    out[s] += v
        return out

    def value_table(self, points: np.ndarray) -> np.ndarray:
        """(size, N) array of He_alpha(x_n)."""
        return self._table(points, 0)

    def grad_table(self, points: np.ndarray) -> np.ndarray:
        """(size, d, N) array of d_k He_alpha(x_n)."""
        return self._table(points, 1)

    def hess_table(self, points: np.ndarray) -> np.ndarray:
        """(size, d, d, N) array of d_i d_j He_alpha(x_n)."""
        return self._table(points, 2)

    def third_table(self, points: np.ndarray) -> np.ndarray:
        """(size, d, d, d, N) array of d_i d_j d_k He_alpha(x_n)."""
        return self._table(points, 3)
