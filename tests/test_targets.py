from fractions import Fraction

import numpy as np
import pytest

from mongelab import (
    GaussianSpace,
    gaussian_target,
    log_normalizer,
    mixture_target,
    nu_expectation,
    quartic_well_target,
    tabulated_target_1d,
)
from mongelab.targets import _sum_last


def test_gaussian_normalizer(line80):
    # E[e^{-f}] = prod sigma_i
    assert np.exp(log_normalizer(line80, gaussian_target([1.0], 2.0))) == pytest.approx(2.0, abs=1e-9)
    sp2 = GaussianSpace.tensor_hermite(2, 40)
    tgt = gaussian_target([0.0, 0.5], [2.0, 0.5])
    assert np.exp(log_normalizer(sp2, tgt)) == pytest.approx(1.0, abs=1e-8)


def test_gaussian_moments_under_nu(line80):
    tgt = gaussian_target([1.0], 2.0)
    assert nu_expectation(line80, tgt, lambda x: x[:, 0]) == pytest.approx(1.0, abs=1e-9)
    assert nu_expectation(line80, tgt, lambda x: x[:, 0] ** 2) == pytest.approx(5.0, abs=1e-8)


def test_gaussian_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_target([0.0], 0.0)


def test_quartic_requires_positive_a():
    with pytest.raises(ValueError):
        quartic_well_target(-0.1, 0.0)


def test_quartic_derivatives():
    tgt = quartic_well_target(0.05, -0.2)
    xs = np.array([[0.5], [-1.5]])
    np.testing.assert_allclose(tgt.grad(xs)[:, 0], 0.2 * xs[:, 0] ** 3 - 0.4 * xs[:, 0])
    np.testing.assert_allclose(tgt.hess(xs)[:, 0, 0], 0.6 * xs[:, 0] ** 2 - 0.4)


@pytest.mark.parametrize("a, b", [(0.03, 0.0), (0.05, -0.2), (0.03, -0.5), (1e-3, 2.0)])
def test_quartic_matches_exact_rationals(a, b):
    # f and grad against Fraction arithmetic on the same doubles, |x| up to 40
    # (the oracle's widened scan range) and, for b < 0, next to the root of
    # a x^2 + b, where the two terms cancel
    rng = np.random.default_rng(7)
    xs = [0.0, 1e-3, 1.0, -40.0, 40.0, *rng.uniform(-40.0, 40.0, 41)]
    if b < 0:
        root = np.sqrt(-b / a)
        xs += [root, -root, np.nextafter(root, 0.0), np.nextafter(root, 50.0),
               root * (1 + 1e-9), -root * (1 - 1e-9)]
    pts = np.array(xs).reshape(-1, 2)
    tgt = quartic_well_target(a, b, dim=2)
    vals, grads = tgt.eval(pts), tgt.grad(pts)
    eps = np.finfo(float).eps
    fa, fb = Fraction(a), Fraction(b)
    for n, row in enumerate(pts):
        fx = [Fraction(v) for v in row]
        exact = sum(fa * x**4 + fb * x**2 for x in fx)
        scale = sum(abs(fa * x**4) + abs(fb * x**2) for x in fx)
        assert abs(Fraction(vals[n]) - exact) <= 4 * eps * scale
        for k, x in enumerate(fx):
            g_exact = 4 * fa * x**3 + 2 * fb * x
            g_scale = abs(4 * fa * x**3) + abs(2 * fb * x)
            assert abs(Fraction(grads[n, k]) - g_exact) <= 4 * eps * g_scale


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError, match="not finite"):
        quartic_well_target(float("nan"), 0.0)
    with pytest.raises(ValueError, match="not finite"):
        quartic_well_target(0.03, float("inf"))
    with pytest.raises(ValueError, match="not finite"):
        gaussian_target([0.0], float("nan"))
    with pytest.raises(ValueError, match="not finite"):
        mixture_target([0.5, 0.5], [float("inf"), 0.0], [1.0, 1.0])
    # 1/inf**2 = 0 keeps f, grad and hess finite: the constructors test sigma itself
    with pytest.raises(ValueError, match="sigma is not finite"):
        gaussian_target([0.0], float("inf"))
    with pytest.raises(ValueError, match="sigmas are not finite"):
        mixture_target([0.5, 0.5], [-1.0, 1.0], [float("inf"), 1.0])


@pytest.mark.parametrize("d", range(1, 8))
def test_column_sum_equals_np_sum(d):
    # entries spread over 16 decades, so any change of summation order shows
    rng = np.random.default_rng(d)
    for shape in [(500, d), (40, 7, d)]:
        q = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        assert np.array_equal(_sum_last(q), np.sum(q, axis=-1))


def test_mixture_is_normalized(line80):
    tgt = mixture_target([0.3, 0.7], [[-1.0], [0.5]], [[0.8], [1.2]])
    assert np.exp(log_normalizer(line80, tgt)) == pytest.approx(1.0, abs=1e-8)
    # mean of the mixture
    mean = 0.3 * (-1.0) + 0.7 * 0.5
    assert nu_expectation(line80, tgt, lambda x: x[:, 0]) == pytest.approx(mean, abs=1e-8)


def test_mixture_gradient_consistency():
    tgt = mixture_target([0.5, 0.5], [[-1.2, 0.0], [1.2, 0.3]], [[0.7, 1.0], [0.9, 1.1]], dim=2)
    pts = np.array([[0.1, -0.4], [1.0, 1.0], [-2.0, 0.5]])
    h = 1e-6
    for k in range(2):
        step = np.zeros(2)
        step[k] = h
        fd = (tgt.eval(pts + step) - tgt.eval(pts - step)) / (2 * h)
        np.testing.assert_allclose(fd, tgt.grad(pts)[:, k], rtol=1e-5, atol=1e-7)


def test_mixture_hessian_symmetric():
    tgt = mixture_target([0.4, 0.6], [[-1.0, 0.2], [0.8, -0.5]], [[0.7, 0.9], [1.1, 0.8]], dim=2)
    pts = np.array([[0.3, 0.3], [-1.0, 2.0]])
    h = tgt.hess(pts)
    np.testing.assert_allclose(h, np.transpose(h, (0, 2, 1)), atol=1e-12)


def test_tabulated_target(line80):
    xs = np.linspace(-10, 10, 2001)
    base = gaussian_target([0.5], 1.5)
    tab = tabulated_target_1d(xs, base.eval(xs.reshape(-1, 1)))
    probe = np.linspace(-2, 2, 9).reshape(-1, 1)
    np.testing.assert_allclose(tab.eval(probe), base.eval(probe), atol=1e-9)
    np.testing.assert_allclose(tab.grad(probe), base.grad(probe), atol=1e-7)


@pytest.mark.parametrize("n", [2, 3, 4, 30])
def test_tabulated_spline_matches_cubic_spline(n):
    # not-a-knot, scipy's default: a line for two points, the parabola for three
    from scipy.interpolate import CubicSpline

    xs = np.sort(np.random.default_rng(n).uniform(-3.0, 3.0, n))
    fs = 0.1 * xs**4 - 0.5 * xs**2 + np.sin(3.0 * xs)
    tab = tabulated_target_1d(xs, fs)
    spline = CubicSpline(xs, fs)
    v = np.concatenate([xs, 0.5 * (xs[1:] + xs[:-1]), [xs[0] - 1.0, xs[-1] + 1.0]])
    pts = v.reshape(-1, 1)
    for got, want in [(tab.eval(pts), spline(v)), (tab.grad(pts)[:, 0], spline(v, 1)),
                      (tab.hess(pts)[:, 0, 0], spline(v, 2))]:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


def test_inconsistent_evaluators_rejected():
    from mongelab.targets import ScalarTarget, check_consistency

    broken = ScalarTarget(
        1, "broken", {},
        eval=lambda x: x[:, 0] ** 2,
        grad=lambda x: 3 * x,  # wrong: should be 2x
        hess=lambda x: np.full((x.shape[0], 1, 1), 2.0),
    )
    with pytest.raises(ValueError):
        check_consistency(broken)
