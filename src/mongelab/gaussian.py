"""Standard Gaussian measure on R^d: quadrature, expectations and the
weights of a target measure nu on the nodes.

Quadrature duality: tensor Gauss-Hermite rules (exact on polynomials of
total degree <= 2L-1 per axis) for d <= 4, seeded Monte Carlo beyond.
Expectations reduce in a fixed order (ascending node index, pairwise),
so results are reproducible.

Conventions used throughout the package:

    (grad xi)_ij = d_i xi_j                      Jacobian of a vector field
    delta xi     = <x, xi> - sum_i d_i xi_i      divergence (adjoint of grad)
    (delta M)_j  = sum_i (M_ij x_i - d_i M_ij)   operator divergence
    L            = delta o grad                  Ornstein-Uhlenbeck operator

and for a target density e^{-f} (dnu = e^{-f} dmu / c):

    delta_nu xi  = delta xi + <grad f, xi>
    (delta_nu M)_j = (delta M)_j + sum_i d_i f M_ij
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import DegenerateWeightError, NonFiniteValueError

MAX_TENSOR_DIM = 4
MAX_TENSOR_NODES = 10**7
# the largest level whose Hermite weights (hermegauss) are all finite and positive
MAX_TENSOR_LEVEL = 370
WEIGHT_FLOOR = 1e-300
NU_MASS_TOL = 1e-12  # nu-mass left off the nodes that nu-a.s. quantities read


@dataclass(frozen=True, eq=False)
class GaussianSpace:
    """Standard Gaussian N(0, I_d) with a fixed quadrature rule.

    Immutable: `nodes` (N, d) and `weights` (N,) are read-only, and
    expectations reduce in ascending node order (numpy pairwise summation).
    `level` is set for a tensor rule, `seed` for a Monte Carlo one.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    description: str
    level: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("nodes must be (N, d), weights (N,)")
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights must have matching length")
        if not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @staticmethod
    def tensor_hermite(dim: int, level: int) -> "GaussianSpace":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if level < 1:
            raise ValueError("tensor-hermite level must be >= 1")
        if dim > MAX_TENSOR_DIM:
            raise ValueError(f"tensor-hermite quadrature is limited to dim <= {MAX_TENSOR_DIM}")
        if level > MAX_TENSOR_LEVEL:
            raise ValueError(f"tensor-hermite level {level} exceeds {MAX_TENSOR_LEVEL}, the largest "
                             "whose Hermite weights are finite and positive")
        if level**dim > MAX_TENSOR_NODES:
            raise ValueError(f"tensor-hermite node count {level}^{dim} exceeds {MAX_TENSOR_NODES}")
        x, w = hermegauss(level)
        w = w / w.sum()
        grids = np.meshgrid(*([x] * dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        weights = np.ones(nodes.shape[0])
        for j in range(dim):
            weights *= w[np.unravel_index(np.arange(nodes.shape[0]), (level,) * dim)[j]]
        weights /= weights.sum()
        return GaussianSpace(dim, nodes, weights, f"tensor-hermite(level={level}, dim={dim})",
                             level=level)

    @staticmethod
    def monte_carlo(dim: int, samples: int, seed: int) -> "GaussianSpace":
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if samples < 1:
            raise ValueError("monte-carlo sample count must be >= 1")
        nodes = np.random.default_rng(seed).standard_normal((samples, dim))
        return GaussianSpace(dim, nodes, np.full(samples, 1.0 / samples),
                             f"monte-carlo(samples={samples}, seed={seed}, dim={dim})", seed=seed)

    def subspace(self, dim: int) -> "GaussianSpace":
        """Space of dimension dim under the same quadrature kind: a tensor rule
        of the same dim is this space itself."""
        if self.level is not None:
            return self if dim == self.dim else GaussianSpace.tensor_hermite(dim, self.level)
        # derived seed keeps nested integrations reproducible but decorrelated
        return GaussianSpace.monte_carlo(dim, self.weights.shape[0], self.seed + 7919 * dim)


def _eval_at_nodes(space: GaussianSpace, g: Callable) -> np.ndarray:
    vals = np.asarray(g(space.nodes), dtype=float).reshape(-1)
    if vals.shape[0] != space.nodes.shape[0]:
        raise ValueError("integrand must return one value per node")
    return vals


def expectation(space: GaussianSpace, g: Callable, weight: Optional[Callable] = None) -> float:
    """E_mu[g], or the weight-normalized sum(w g weight)/sum(w weight).

    With weight = e^{-f} this computes E_nu[g] for dnu = e^{-f} dmu / c.
    """
    vals = _eval_at_nodes(space, g)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValueError("integrand not finite at a quadrature node")
    if weight is None:
        return float(np.sum(space.weights * vals))
    wvals = _eval_at_nodes(space, weight)
    if not np.all(np.isfinite(wvals)):
        raise NonFiniteValueError("weight not finite at a quadrature node")
    if np.any(wvals < 0):
        raise ValueError("weight must be nonnegative at all nodes")
    num = np.sum(space.weights * wvals * vals)
    den = np.sum(space.weights * wvals)
    if den < WEIGHT_FLOOR:
        raise DegenerateWeightError(f"weight normalizer {den!r} below {WEIGHT_FLOOR}")
    return float(num / den)


def log_sum_exp(u: np.ndarray):
    """(e^u / sum e^u, log sum e^u) along the last axis, shifted by the row
    maximum so no term overflows.  The log-sum is non-finite exactly when
    the row maximum is; callers test it."""
    shift = u.max(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # -inf - (-inf) in a row with no finite maximum
        r = np.exp(u - shift)
    total = r.sum(axis=-1, keepdims=True)
    return r / total, shift[..., 0] + np.log(total[..., 0])


def nu_weights(space: GaussianSpace, target) -> np.ndarray:
    """Normalized weights of dnu = e^{-f} dmu / c at the nodes."""
    return shifted_nu_weights(space, target)[1]


def shifted_nu_weights(space: GaussianSpace, target):
    """(f, nu-weights, log E[e^{-f}]) at the nodes: one evaluation of f and
    one log_sum_exp of log w - f, so large |f| cannot overflow."""
    fvals = np.asarray(target.eval(space.nodes), dtype=float).reshape(-1)
    if not np.all(np.isfinite(fvals)):
        raise NonFiniteValueError("target log-density not finite at a quadrature node")
    w, log_c = log_sum_exp(np.log(space.weights) - fvals)
    return fvals, w, float(log_c)


def nu_masked_weights(w: np.ndarray):
    """The nu-weights w renormalized on the smallest node set of mass >= 1 - NU_MASS_TOL.

    nu-a.s. conditions (backward potentials, dual Hessians) are checked on
    this set only: polynomial potentials and conjugacy solves are
    meaningless far outside the nu-support, and the dropped nodes carry a
    combined nu-mass below NU_MASS_TOL.  Returns (weights, mask) with the
    weights zeroed off-mask and renormalized.
    """
    order = np.argsort(w)[::-1]
    cum = np.cumsum(w[order])
    keep = int(np.searchsorted(cum, 1.0 - NU_MASS_TOL)) + 1
    mask = np.zeros(w.shape[0], dtype=bool)
    mask[order[:keep]] = True
    w = np.where(mask, w, 0.0)
    return w / w.sum(), mask


def nu_expectation(space: GaussianSpace, target, values) -> float:
    """E_nu[g] for node values or a callable g, via self-normalized weights."""
    if callable(values):
        values = values(space.nodes)
    vals = np.asarray(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValueError("integrand not finite at a quadrature node")
    return float(np.sum(nu_weights(space, target) * vals))


def log_normalizer(space: GaussianSpace, target) -> float:
    """log E_mu[e^{-f}] by shifted log-sum-exp over the nodes."""
    return shifted_nu_weights(space, target)[2]
