"""Independent 1d ground truth: monotone rearrangement transport.

T = F_nu^{-1} o Phi is the unique increasing map pushing N(0,1) onto nu,
so it must coincide with the solved I + phi' up to quadrature and basis
truncation.  Everything here is built from direct CDF integration and
root finding, sharing no code path with the variational solver.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._cubics import evaluate, pchip
from .errors import NonIntegrableDensityError, UnresolvedDensityError
from .targets import ScalarTarget

GRID = np.linspace(-8.0, 8.0, 2001)  # mu-mass outside is < 1e-14
_LOG_DROP = 60.0   # nu-range: keep log-density within this drop of its max
_DENSITY_STEP = 0.004
# Largest change of the log-density between neighbouring table points, on the
# band within _LOG_DROP of the peak.  A gaussian N(m, s^2) reaches it at
# s ~ 0.044; the default battery's targets stay under 0.16.  Against m + s x
# on GRID the map is off by 4e-5 at s = 0.05, 6e-4 at s = 0.02 and 2-5 s at
# s <= 0.01.
_MAX_LOG_STEP = 1.0
_BISECTIONS = 52
_SQRT1_2 = math.sqrt(0.5)


def __getattr__(name: str):
    """scipy's `brentq` and `PchipInterpolator`, imported on first lookup (PEP 562).

    The oracle calls neither.  perfbench/tracer.py still looks both up in this
    module by name, so they resolve until ROADMAP item 1 removes those tracer
    entries and deletes this function.
    """
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    if name == "PchipInterpolator":
        from scipy.interpolate import PchipInterpolator
        return PchipInterpolator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _lower_tail(x: np.ndarray) -> np.ndarray:
    """Phi(-|x|) per point, as Cephes' ndtr forms it.

    0.5 erfc(|x|/sqrt 2) keeps full relative precision in the tail; below
    |x| = 1 the form 0.5 + 0.5 erf(-|x|/sqrt 2) is used instead.
    """
    z = np.abs(x) * _SQRT1_2
    return np.array([0.5 + 0.5 * math.erf(-t) if t < _SQRT1_2 else 0.5 * math.erfc(t)
                     for t in z.tolist()])


def _simpson_steps(y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Integral over each step h[k] of the parabola through points k, k+1, k+2."""
    h1, h2 = h[:-1], h[1:]
    r31 = h1 / (h1 + h2)
    r = r31 * (h1 / h2)
    return h1 / 6 * ((3 - r31) * y[:-2] + (3 + r + r31) * y[1:-1] - r * y[2:])


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running integral of y over increasing x from x[0] (0 there), len(x) >= 3.

    Composite Simpson on uneven steps, as scipy.integrate.cumulative_simpson
    sums it: even steps take the parabola through the next two points, odd
    steps and the last one the parabola through the previous two.
    """
    h = np.diff(x)
    ahead = _simpson_steps(y, h)
    behind = _simpson_steps(y[::-1], h[::-1])[::-1]
    steps = np.empty_like(h)
    steps[:-1:2] = ahead[::2]
    steps[1::2] = behind[::2]
    steps[-1] = behind[-1]
    return np.concatenate(([0.0], np.cumsum(steps)))


def _nu_density_table(target: ScalarTarget):
    """Dense (y, unnormalized density) table on an adaptively widened range.

    The unnormalized log-density -f(y) - y^2/2 is scanned outward until it
    falls _LOG_DROP below its maximum on both sides, which extends the
    table far enough to cover Gaussian-type tails of the target.  A density
    whose log changes by more than _MAX_LOG_STEP from one table point to the
    next, within that drop, is too narrow for the table and raises
    UnresolvedDensityError rather than giving a wrong map.
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
    ld = log_density(ys)
    if not np.all(ld < np.inf):  # NaN or +inf; -inf is a zero density
        raise NonIntegrableDensityError("log-density not finite on the working range")
    rel = ld - ld.max()  # the table peaks at exactly 1, wherever its mass lies
    dens = np.exp(rel)
    if np.max(np.abs(np.diff(np.maximum(rel, -_LOG_DROP)))) > _MAX_LOG_STEP:
        raise UnresolvedDensityError(
            f"density too narrow for the table step {_DENSITY_STEP}: the log-density "
            f"changes by more than {_MAX_LOG_STEP} between neighbouring points")
    return ys, dens


@dataclass(frozen=True)
class MonotoneMap1D:
    """Strictly increasing transport map tabulated on the mu-side grid."""

    x: np.ndarray
    t: np.ndarray

    def __call__(self, x) -> np.ndarray:
        """T(x) by the PCHIP through the tabulated values."""
        return evaluate(self.x, pchip(self.x, self.t), x)


def _cubic(coef: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p(s), p'(s)) by Horner's rule, for PPoly coefficients coef (4, n) in
    powers of s, highest first."""
    a, b, c, d = coef
    return ((a * s + b) * s + c) * s + d, (3.0 * a * s + 2.0 * b) * s + c


def _invert_cubics(coef: np.ndarray, width: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Offsets s in [0, width] with p(s) = q, p an increasing cubic per query.

    coef holds PPoly coefficients (4, n) in powers of s, highest first.  One
    safeguarded Newton iteration (rtsafe, Numerical Recipes 9.4) runs on all
    queries at once.  Each starts at the secant point and keeps a bracket
    [lo, hi] from the sign of p(s) - q; a Newton step that leaves the bracket,
    or divides by a zero slope, is replaced by the bracket's midpoint.  A query
    is done once its residual is within 4 ulps of q, or once its step is within
    2 ulps of s, where rounding in p keeps the residual above that.  The loop
    ends when every query is done, after at most _BISECTIONS steps, the
    halvings that shrink a table segment below the spacing of doubles.
    """
    p0 = coef[3]
    pw, _ = _cubic(coef, width)
    lo = np.zeros_like(q)
    hi = width
    tol = 4.0 * np.spacing(np.abs(q))
    with np.errstate(divide="ignore", invalid="ignore"):  # replaced by the midpoint
        s = np.fmin(np.fmax(width * (q - p0) / (pw - p0), 0.0), width)  # 0/0 starts at 0
        for _ in range(_BISECTIONS):
            p, slope = _cubic(coef, s)
            r = p - q
            below = r < 0
            lo = np.where(below, s, lo)
            hi = np.where(below, hi, s)
            step = s - r / slope
            step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            done = (np.abs(r) <= tol) | (np.abs(step - s) <= 2.0 * np.spacing(s))
            if done.all():
                break
            s = np.where(done, s, step)
    return s


@dataclass(frozen=True)
class QuantileTable:
    """nu's CDF and survival function on the density table's points ys, and
    their PCHIP cubics: coef (4, len(ys) - 1, 2) holds the CDF's in column 0
    and the negated survival function's in column 1, so both increase."""

    ys: np.ndarray
    cdf: np.ndarray
    sf: np.ndarray
    coef: np.ndarray


def quantile_table(target: ScalarTarget) -> QuantileTable:
    """The table every monotone_map of target inverts, built once per target.

    F_nu and its survival function are Simpson sums over the density table,
    interpolated by monotone PCHIP cubics (Fritsch & Carlson, SIAM J. Numer.
    Anal. 17, 1980).
    """
    ys, dens = _nu_density_table(target)
    cdf = _cumulative_simpson(dens, ys)
    total = cdf[-1]
    cdf = cdf / total
    sf = _cumulative_simpson(dens[::-1], -ys[::-1])[::-1] / total
    return QuantileTable(ys, cdf, sf, pchip(ys, np.column_stack([cdf, -sf])))


def monotone_map(target: ScalarTarget, grid: np.ndarray | None = None,
                 table: QuantileTable | None = None) -> MonotoneMap1D:
    """T(x) = F_nu^{-1}(Phi(x)) on the grid, by inverting table, the target's
    quantile_table (built here when None).

    searchsorted gives every grid point's quantile its bracketing segment,
    and one vectorized safeguarded Newton iteration over all points solves
    that segment's cubic to full double precision.

    Left-half quantiles invert the CDF, right-half the survival function,
    so both tails keep full relative precision (Phi(x) near 1 cannot
    resolve distinct quantiles in double precision, but 1 - Phi(x) can).
    A grid point whose tail probability lies outside the table's second and
    next-to-last CDF or survival value (|x| past ~10 for most targets) has
    no bracketing segment and raises UnresolvedDensityError.
    """
    grid = GRID if grid is None else np.asarray(grid, dtype=float)
    table = quantile_table(target) if table is None else table
    ys, cdf, sf, coef = table.ys, table.cdf, table.sf, table.coef
    left = grid <= 0
    tail = _lower_tail(grid)  # Phi(x) left of 0, 1 - Phi(x) right of it
    beyond = (tail < np.where(left, cdf[1], sf[-2])) | (tail > np.where(left, cdf[-2], sf[1]))
    if np.any(beyond):
        raise UnresolvedDensityError(
            f"grid point {float(grid[np.argmax(beyond)])!r} lies beyond the quantiles "
            f"the density table resolves")
    q = np.where(left, tail, -tail)
    k = np.where(left, np.searchsorted(cdf, q), np.searchsorted(-sf, q))
    k = np.clip(k, 1, len(ys) - 1)  # q lies in the segment [ys[k-1], ys[k]]
    t = ys[k - 1] + _invert_cubics(coef[:, k - 1, (~left).astype(np.intp)],
                                   ys[k] - ys[k - 1], q)
    if np.any(np.diff(t) <= 0):
        raise NonIntegrableDensityError("rearrangement map is not strictly increasing")
    return MonotoneMap1D(grid, t)


@dataclass(frozen=True)
class TabulatedPotential1D:
    """phi(x) = int_0^x (T(s) - s) ds with phi(0) = 0."""

    x: np.ndarray
    phi: np.ndarray


def potential_from_map(transport: MonotoneMap1D) -> TabulatedPotential1D:
    """Antiderivative of the shift, trapezoid on the map's own grid."""
    x = transport.x
    shift = transport.t - x
    vals = np.concatenate([[0.0], np.cumsum(0.5 * (shift[1:] + shift[:-1]) * np.diff(x))])
    anchor = np.interp(0.0, x, vals)
    return TabulatedPotential1D(x, vals - anchor)


def wasserstein2_sq(transport: MonotoneMap1D) -> float:
    """E_mu[(T(x) - x)^2] by trapezoid over the map's own grid (GRID, whose
    tails carry under 1e-14 of the mu-mass, for the full integral)."""
    x = transport.x
    integrand = (transport.t - x) ** 2 * np.exp(-0.5 * x**2) / np.sqrt(2 * np.pi)
    return float(np.trapezoid(integrand, x))
