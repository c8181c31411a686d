"""Independent 1d ground truth: monotone rearrangement transport.

T = F_nu^{-1} o Phi is the unique increasing map pushing N(0,1) onto nu,
so it must coincide with the solved I + phi' up to quadrature and basis
truncation.  Everything here is built from direct CDF integration and
root finding, sharing no code path with the variational solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
# Never called here: perfbench/tracer.py looks `brentq` up in this module to
# count scalar root solves, so the name stays bound until that entry goes.
from scipy.optimize import brentq  # noqa: F401
from scipy.special import ndtr

from .errors import NonIntegrableDensityError
from .targets import ScalarTarget

GRID = np.linspace(-8.0, 8.0, 2001)  # mu-mass outside is < 1e-14
_LOG_DROP = 60.0   # nu-range: keep log-density within this drop of its max
_DENSITY_STEP = 0.004
_BISECTIONS = 52


def _nu_density_table(target: ScalarTarget):
    """Dense (y, unnormalized density) table on an adaptively widened range.

    The unnormalized log-density -f(y) - y^2/2 is scanned outward until it
    falls _LOG_DROP below its maximum on both sides, which extends the
    table far enough to cover Gaussian-type tails of the target.
    """
    if target.dim != 1:
        raise ValueError("oracle requires a 1d target")

    def log_density(y):
        return -np.asarray(target.eval(y.reshape(-1, 1))).reshape(-1) - 0.5 * y**2

    lo, hi = -8.0, 8.0
    probe = np.linspace(lo, hi, 801)
    ld = log_density(probe)
    if not np.all(np.isfinite(ld)):
        raise NonIntegrableDensityError("log-density not finite on the base range")
    peak = float(ld.max())
    for _ in range(60):
        if log_density(np.array([lo]))[0] <= peak - _LOG_DROP:
            break
        lo -= 2.0
    else:
        raise NonIntegrableDensityError("density does not decay on the left")
    for _ in range(60):
        if log_density(np.array([hi]))[0] <= peak - _LOG_DROP:
            break
        hi += 2.0
    else:
        raise NonIntegrableDensityError("density does not decay on the right")
    n_pts = int(np.ceil((hi - lo) / _DENSITY_STEP)) + 1
    ys = np.linspace(lo, hi, n_pts)
    dens = np.exp(log_density(ys) - peak)
    if not np.all(np.isfinite(dens)):
        raise NonIntegrableDensityError("density overflowed on the working range")
    return ys, dens


@dataclass(frozen=True)
class MonotoneMap1D:
    """Strictly increasing transport map tabulated on the mu-side grid."""

    x: np.ndarray
    t: np.ndarray
    nu_grid: np.ndarray
    nu_cdf: np.ndarray

    @cached_property
    def _interp(self) -> PchipInterpolator:
        return PchipInterpolator(self.x, self.t)

    def __call__(self, x) -> np.ndarray:
        return self._interp(np.asarray(x, dtype=float))


def _invert_cubics(coef: np.ndarray, width: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Offsets s in [0, width] with p(s) = q, p an increasing cubic per query.

    coef holds PPoly coefficients (4, n) in powers of s, highest first.  One
    bisection runs on all queries at once; _BISECTIONS halvings shrink a
    segment of width <= _DENSITY_STEP below 1e-18, under the spacing of doubles.
    """
    lo = np.zeros_like(q)
    hi = width
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = ((coef[0] * mid + coef[1]) * mid + coef[2]) * mid + coef[3] < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def monotone_map(target: ScalarTarget, grid: np.ndarray | None = None) -> MonotoneMap1D:
    """T(x) = F_nu^{-1}(Phi(x)) on the grid.

    F_nu and its survival function are tabulated on the density table and
    interpolated by monotone PCHIP cubics (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 1980).  searchsorted gives every grid point's quantile its
    bracketing segment, and one vectorized bisection over all points solves
    that segment's cubic to full double precision.

    Left-half quantiles invert the CDF, right-half the survival function,
    so both tails keep full relative precision (Phi(x) near 1 cannot
    resolve distinct quantiles in double precision, but 1 - Phi(x) can).
    """
    grid = GRID if grid is None else np.asarray(grid, dtype=float)
    ys, dens = _nu_density_table(target)
    cdf = cumulative_simpson(dens, x=ys, initial=0.0)
    total = cdf[-1]
    if not np.isfinite(total) or total <= 0:
        raise NonIntegrableDensityError("density has zero or non-finite mass")
    cdf = cdf / total
    sf = cumulative_simpson(dens[::-1], x=-ys[::-1], initial=0.0)[::-1] / total
    # column 0 is the CDF, column 1 the negated survival function: both increase
    coef = PchipInterpolator(ys, np.column_stack([cdf, -sf])).c
    left = grid <= 0
    q = np.where(left, np.clip(ndtr(grid), cdf[1], cdf[-2]),
                 -np.clip(ndtr(-grid), sf[-2], sf[1]))
    k = np.where(left, np.searchsorted(cdf, q), np.searchsorted(-sf, q))
    k = np.clip(k, 1, len(ys) - 1)  # q lies in the segment [ys[k-1], ys[k]]
    t = ys[k - 1] + _invert_cubics(coef[:, k - 1, (~left).astype(np.intp)],
                                   ys[k] - ys[k - 1], q)
    if np.any(np.diff(t) <= 0):
        raise NonIntegrableDensityError("rearrangement map is not strictly increasing")
    return MonotoneMap1D(grid, t, ys, cdf)


@dataclass(frozen=True)
class TabulatedPotential1D:
    """phi(x) = int_0^x (T(s) - s) ds with phi(0) = 0."""

    x: np.ndarray
    phi: np.ndarray

    @cached_property
    def _interp(self) -> PchipInterpolator:
        return PchipInterpolator(self.x, self.phi)

    def __call__(self, x) -> np.ndarray:
        return self._interp(np.asarray(x, dtype=float))


def potential_from_map(transport: MonotoneMap1D) -> TabulatedPotential1D:
    """Antiderivative of the shift, trapezoid on the map's own grid."""
    x = transport.x
    shift = transport(x) - x
    vals = np.concatenate([[0.0], np.cumsum(0.5 * (shift[1:] + shift[:-1]) * np.diff(x))])
    anchor = np.interp(0.0, x, vals)
    return TabulatedPotential1D(x, vals - anchor)


def wasserstein2_sq(target: ScalarTarget) -> float:
    """E_mu[(T(x) - x)^2] by trapezoid over the map tabulated on GRID."""
    transport = monotone_map(target)
    x = transport.x
    integrand = (transport.t - x) ** 2 * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    return float(np.trapezoid(integrand, x))
