"""Piecewise cubic Hermite interpolants in numpy: slopes, coefficients, values.

The 1d oracle interpolates its CDF tables and maps by PCHIP (Fritsch &
Carlson, SIAM J. Numer. Anal. 17, 1980), and the tabulated-1d target is a
not-a-knot cubic spline.  Both are stored as scipy's PPoly stores them:
coefficients (k, n - 1, ...) in powers of the offset s from each piece's left
knot, highest first.  The arithmetic follows scipy's PchipInterpolator and
PPoly evaluation step by step, so those values equal scipy's bit for bit.
"""
from __future__ import annotations

import numpy as np


def hermite_cubics(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> np.ndarray:
    """Coefficients (4, n - 1, ...) of the cubic through (x, y) with slopes dydx."""
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / h
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - dydx[:-1]) / h - t, dydx[:-1], y[:-1]))


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end slope, kept shape-preserving (Moler, pchiptx)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))


def pchip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coefficients of the monotone PCHIP interpolant of y (n, ...) on x (n,).

    Interior slopes are the Fritsch-Carlson weighted harmonic mean of the
    neighbouring secants, 0 where they differ in sign or one is 0; the ends
    use Moler's one-sided three-point estimate (Numerical Computing with
    MATLAB, section 3.6).  Two points give the line.
    """
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    m = np.diff(y, axis=0) / h
    if len(x) == 2:
        return hermite_cubics(x, y, np.concatenate([m, m]))
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y, dtype=float)
    # masked by flat; w / m overflows on subnormal secants, where the slope's limit is 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return hermite_cubics(x, y, d)


def not_a_knot_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Knot slopes of the not-a-knot cubic spline through (x, y), both 1d.

    The third derivative is continuous at the second and the next-to-last
    knot (scipy's CubicSpline default).  Two points give the line and three
    the parabola through them; longer tables solve the tridiagonal system
    for the slopes by one Thomas sweep.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    n = len(x)
    if n == 2:
        return np.array([m[0], m[0]])
    if n == 3:
        curv = (m[1] - m[0]) / (h[0] + h[1])
        return m[0] + curv * np.array([-h[0], h[0], h[0] + 2 * h[1]])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = np.concatenate([[0.0], h[1:], [d1]])
    diag = np.concatenate([[h[1]], 2 * (h[:-1] + h[1:]), [h[-2]]])
    sup = np.concatenate([[d0], h[:-1], [0.0]])
    rhs = np.concatenate([[((h[0] + 2 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0],
                          3 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
                          [(h[-1] ** 2 * m[-2] + (2 * d1 + h[-1]) * h[-2] * m[-1]) / d1]])
    a, b, c, r = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    for i in range(1, n):
        w = a[i] / b[i - 1]
        b[i] -= w * c[i - 1]
        r[i] -= w * r[i - 1]
    s = [0.0] * n
    s[-1] = r[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (r[i] - c[i] * s[i + 1]) / b[i]
    return np.array(s)


def evaluate(x: np.ndarray, coef: np.ndarray, v) -> np.ndarray:
    """The piecewise polynomial coef on knots x at v; the end pieces extend it.

    Powers of s are summed in ascending order, as scipy's PPoly sums them;
    Horner's rule would round differently.
    """
    v = np.asarray(v, dtype=float)
    i = np.clip(np.searchsorted(x, v, "right") - 1, 0, len(x) - 2)
    s = v - x[i]
    out = coef[-1, i]
    z = np.ones_like(s)
    for row in coef[-2::-1]:
        z = z * s
        out = out + row[i] * z
    return out
