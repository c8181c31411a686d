"""Target log-densities f defining dnu = e^{-f} dmu / c against the standard Gaussian.

Each constructor returns a ScalarTarget with consistent eval/grad/hess
evaluators.  Construction runs a finite-difference self-check of the
gradient on a small probe grid and verifies Hessian symmetry.

`ScalarTarget.value_and_grad(x)` returns (f, grad f) on one point set.
Targets whose f and grad f share an expensive intermediate (the
regularized targets in `smoothing`) pass a fused evaluator that computes
it once; for the others it is the two separate calls.  Either way the
result equals (eval(x), grad(x)) bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._cubics import evaluate, hermite_cubics, not_a_knot_slopes
from .gaussian import log_sum_exp
from .hermite import as_points

_PROBE_SEED = 12345
_FD_STEP = 1e-5
_REAL = (int, float, np.integer, np.floating)  # bool is an int; checked apart


@dataclass(frozen=True)
class ScalarTarget:
    """f with evaluators; kind tags: gaussian, quartic-well, mixture, tabulated-1d, ...

    `fused`, when given, maps points to (f, grad f) in one pass and must
    agree bit for bit with (eval, grad); `value_and_grad` uses it.
    """

    dim: int
    kind: str
    params: dict
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    fused: Callable[[np.ndarray], tuple] | None = field(default=None, repr=False)

    def value_and_grad(self, x) -> tuple:
        """(f(x), grad f(x)) on one point set, equal to (eval(x), grad(x))."""
        if self.fused is None:
            return self.eval(x), self.grad(x)
        return self.fused(x)


def _probe_points(dim: int) -> np.ndarray:
    rng = np.random.default_rng(_PROBE_SEED)
    return 0.8 * rng.standard_normal((6, dim))


def check_consistency(target: ScalarTarget) -> None:
    """Finiteness, gradient-vs-finite-difference and Hessian-symmetry self-check.

    A non-finite parameter (NaN or inf, which no `<= 0` test catches)
    shows up as a non-finite f, grad or hess at the probe points.  An
    infinite sigma does not (1/sigma^2 = 0 keeps all three finite), so the
    gaussian and mixture constructors test their sigmas themselves.
    """
    pts = _probe_points(target.dim)
    grad = target.grad(pts)
    hess = target.hess(pts)
    if not all(np.all(np.isfinite(v)) for v in (target.eval(pts), grad, hess)):
        raise ValueError(f"{target.kind}: f, grad or hess is not finite at the probe points")
    for k in range(target.dim):
        step = np.zeros(target.dim)
        step[k] = _FD_STEP
        fd = (target.eval(pts + step) - target.eval(pts - step)) / (2 * _FD_STEP)
        err = np.abs(fd - grad[:, k])
        scale = np.maximum(np.abs(grad[:, k]), 1e-3)
        if np.any(err / scale > 1e-5):
            raise ValueError(f"{target.kind}: gradient does not match finite differences")
    if np.max(np.abs(hess - np.transpose(hess, (0, 2, 1)))) > 1e-12:
        raise ValueError(f"{target.kind}: Hessian not symmetric")


def _sum_last(q: np.ndarray) -> np.ndarray:
    """np.sum(q, axis=-1), one long-axis add per column.

    numpy reduces a short last axis as one tiny loop per row; adding whole
    columns runs the same additions in the same order, so for a last axis
    of length <= 7 the result equals np.sum bit for bit (longer axes reach
    numpy's pairwise blocks and may differ in the last ulp).
    """
    out = q[..., 0].copy()
    for k in range(1, q.shape[-1]):
        out += q[..., k]
    return out


def _floats(values, name: str) -> np.ndarray:
    """values as a float array; a value that is not a number (a boolean, a
    string, a ragged list) raises ValueError naming the parameter."""
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        array = None
    # numpy reads True as 1.0 and "2" as 2.0, so each value's type is checked
    if array is None or any(isinstance(v, bool) or not isinstance(v, _REAL)
                            for v in np.asarray(values, dtype=object).flat):
        raise ValueError(f"{name} must contain only numbers")
    return array


def _per_axis(values, name: str, d: int, rows: int = 1) -> np.ndarray:
    """values as a (rows, d) array: one value per row for every axis, or one
    per row and axis; any other count raises ValueError naming the parameter."""
    values = _floats(values, name)
    allowed = sorted({rows, rows * d})
    if values.size not in allowed:
        per = f" with {rows} components" if rows > 1 else ""
        raise ValueError(f"{name} has {values.size} values, but dim = {d}{per} allows "
                         + " or ".join(map(str, allowed)))
    return np.broadcast_to(values.reshape(rows, -1), (rows, d)).copy()


def gaussian_target(mean, sigma, dim: int | None = None) -> ScalarTarget:
    """f(x) = sum_i [(x_i - m_i)^2 / (2 s_i^2) - x_i^2 / 2], so nu = N(m, diag(s^2)).

    The normalizer is E[e^{-f}] = prod_i s_i.
    """
    d = dim if dim is not None else np.size(mean)
    mean = _per_axis(mean, "mean", d)[0]
    sigma = _per_axis(sigma, "sigma", d)[0]
    if np.any(sigma <= 0):
        raise ValueError("sigma must be positive")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma is not finite")
    inv2 = 1.0 / sigma**2

    def f(x):
        pts = as_points(x, d)
        return 0.5 * _sum_last((pts - mean) ** 2 * inv2 - pts**2)

    def grad(x):
        pts = as_points(x, d)
        return (pts - mean) * inv2 - pts

    def hess(x):
        pts = as_points(x, d)
        h = np.zeros((pts.shape[0], d, d))
        h[:, np.arange(d), np.arange(d)] = inv2 - 1.0
        return h

    target = ScalarTarget(d, "gaussian", {"mean": mean.tolist(), "sigma": sigma.tolist()}, f, grad, hess)
    check_consistency(target)
    return target


def quartic_well_target(a: float, b: float, dim: int = 1) -> ScalarTarget:
    """f(x) = sum_i (a x_i^4 + b x_i^2); requires a > 0 for integrability."""
    if a <= 0:
        raise ValueError("quartic coefficient a must be > 0")
    d = dim

    # products, not pts**4 / pts**3: numpy sends exponents other than 2 to libm pow
    def f(x):
        pts = as_points(x, d)
        p2 = pts * pts
        return _sum_last(p2 * (a * p2 + b))

    def grad(x):
        pts = as_points(x, d)
        return pts * (4 * a * (pts * pts) + 2 * b)

    def hess(x):
        pts = as_points(x, d)
        h = np.zeros((pts.shape[0], d, d))
        h[:, np.arange(d), np.arange(d)] = 12 * a * pts**2 + 2 * b
        return h

    target = ScalarTarget(d, "quartic-well", {"a": a, "b": b}, f, grad, hess)
    check_consistency(target)
    return target


def mixture_target(weights, means, sigmas, dim: int = 1) -> ScalarTarget:
    """e^{-f} = sum_k pi_k prod_i N(x_i; m_ki, s_ki^2) / N(x_i; 0, 1).

    Component ratios are normalized (E[e^{-f_k}] = 1), so nu is the
    Gaussian mixture with the given weights and E[e^{-f}] = 1.
    """
    pi = _floats(weights, "weights").reshape(-1)
    if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError("mixture weights must be positive and sum to 1")
    n_comp = pi.shape[0]
    d = dim
    means = _per_axis(means, "means", d, n_comp)
    sigmas = _per_axis(sigmas, "sigmas", d, n_comp)
    if np.any(sigmas <= 0):
        raise ValueError("mixture sigmas must be positive")
    if not np.all(np.isfinite(sigmas)):
        raise ValueError("mixture sigmas are not finite")
    inv2 = 1.0 / sigmas**2
    log_norm = np.sum(np.log(sigmas), axis=1)  # per-component E[e^{-f_k - log_norm_k}] = 1

    def _component_f(pts):
        # (N, K): f_k(x) including the normalizing log sigma term
        diff = pts[:, None, :] - means[None, :, :]
        return 0.5 * _sum_last(diff**2 * inv2[None] - pts[:, None, :] ** 2) + log_norm[None, :]

    def _responsibilities(pts):
        # (pi_k e^{-f_k} / e^{-f}, -f) at each point
        return log_sum_exp(np.log(pi)[None, :] - _component_f(pts))

    def f(x):
        pts = as_points(x, d)
        _, log_s = _responsibilities(pts)
        return -log_s

    def _component_grads(pts):
        # (N, K, d): grad f_k
        return (pts[:, None, :] - means[None, :, :]) * inv2[None] - pts[:, None, :]

    def grad(x):
        pts = as_points(x, d)
        r, _ = _responsibilities(pts)
        return np.einsum("nk,nkd->nd", r, _component_grads(pts))

    def hess(x):
        pts = as_points(x, d)
        r, _ = _responsibilities(pts)
        gk = _component_grads(pts)
        g = np.einsum("nk,nkd->nd", r, gk)
        h = np.zeros((pts.shape[0], d, d))
        diag = np.einsum("nk,kd->nd", r, inv2 - 1.0)
        h[:, np.arange(d), np.arange(d)] = diag
        h -= np.einsum("nk,nkd,nke->nde", r, gk, gk)
        h += np.einsum("nd,ne->nde", g, g)
        return h

    target = ScalarTarget(
        d,
        "mixture",
        {"weights": pi.tolist(), "means": means.tolist(), "sigmas": sigmas.tolist()},
        f,
        grad,
        hess,
    )
    check_consistency(target)
    return target


def tabulated_target_1d(xs, fs) -> ScalarTarget:
    """1d target from samples of f, interpolated by a not-a-knot cubic spline.

    The table should cover the quadrature support; the spline extrapolates
    cubically beyond it.  xs must be strictly increasing, with at least two
    points, and every xs and fs finite.
    """
    xs = _floats(xs, "xs")
    fs = _floats(fs, "fs")
    if xs.ndim != 1 or fs.ndim != 1:
        raise ValueError("xs and fs must be flat lists of numbers")
    if xs.shape != fs.shape:
        raise ValueError(f"xs has {xs.shape[0]} points but fs has {fs.shape[0]}")
    if xs.shape[0] < 2:
        raise ValueError("xs must contain at least 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(fs))):
        raise ValueError("xs and fs must contain only finite values")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    coef = hermite_cubics(xs, fs, not_a_knot_slopes(xs, fs))
    coef1 = coef[:3] * np.array([[3.0], [2.0], [1.0]])  # f' and f'' per piece
    coef2 = coef[:2] * np.array([[6.0], [2.0]])

    def f(x):
        return evaluate(xs, coef, as_points(x, 1)[:, 0])

    def grad(x):
        return evaluate(xs, coef1, as_points(x, 1)[:, 0]).reshape(-1, 1)

    def hess(x):
        return evaluate(xs, coef2, as_points(x, 1)[:, 0]).reshape(-1, 1, 1)

    target = ScalarTarget(
        1,
        "tabulated-1d",
        {"x_min": float(xs[0]), "x_max": float(xs[-1]), "points": int(xs.shape[0])},
        f,
        grad,
        hess,
    )
    check_consistency(target)
    return target
