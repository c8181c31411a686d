import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongelab import (
    GaussianSpace,
    PotentialField,
    SingularJacobianError,
    gaussian_target,
    logdet2,
    pushforward_entropy,
    relative_entropy,
)
from reference import coeff_dict, gaussian_jacobian, zero_field

KL21 = 0.5 * (4 + 1 - 1) - math.log(2.0)  # KL(N(1,4) || N(0,1))


def quadratic_phi(sigma, m):
    """phi with grad phi = (sigma - 1) x + m, i.e. T = sigma x + m."""
    return PotentialField.from_coeff_dict(1, 2, {(1,): m, (2,): (sigma - 1) / 2})


def probe_points(dim):
    rng = np.random.default_rng(7)
    return rng.standard_normal((12, dim)) * 1.2


# a few coefficients per dimension on mixed multi-indices; d = 3 reaches
# derivatives along three distinct coordinates, e.g. d_0 d_1 d_2 He_(1,1,1)
GRAD_COEFFS = {
    1: {(1,): 0.3, (2,): -0.1, (3,): 0.07, (4,): 0.02},
    2: {(1, 0): 0.3, (0, 2): -0.1, (2, 1): 0.07, (4, 0): 0.02, (1, 3): -0.04},
    3: {(1, 0, 0): 0.3, (0, 2, 1): -0.1, (1, 1, 1): 0.07, (2, 1, 1): 0.02, (0, 1, 3): -0.04},
}
HESS_COEFFS = {
    1: {(2,): 0.05, (3,): 0.1, (4,): -0.02},
    2: {(2, 2): 0.05, (3, 0): 0.1, (1, 1): -0.2},
    3: {(1, 1, 1): 0.1, (2, 1, 1): 0.05, (0, 3, 1): -0.03, (1, 1, 0): -0.2},
}
THIRD_COEFFS = {
    1: {(4,): 0.03, (3,): -0.02},
    2: {(4, 0): 0.03, (2, 2): -0.02, (3, 1): 0.01},
    3: {(1, 1, 1): -0.05, (2, 1, 1): 0.03, (1, 2, 1): 0.02, (0, 3, 1): 0.01},
}
SYMMETRY_COEFFS = {
    1: {(5,): 0.01, (3,): 0.04},
    2: {(3, 2): 0.04, (5, 0): 0.01, (1, 4): -0.02},
    3: {(1, 1, 1): 0.04, (2, 1, 2): 0.01, (1, 3, 1): -0.02, (3, 2, 0): 0.03},
}


class TestDerivativeConsistency:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_gradient_matches_fd(self, dim):
        phi = PotentialField.from_coeff_dict(dim, 4, GRAD_COEFFS[dim])
        pts = probe_points(dim)
        h = 1e-6
        for k in range(dim):
            step = np.zeros(dim)
            step[k] = h
            fd = (phi.eval(pts + step) - phi.eval(pts - step)) / (2 * h)
            grad = phi.grad(pts)[:, k]
            np.testing.assert_allclose(fd, grad, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_hessian_matches_fd(self, dim):
        phi = PotentialField.from_coeff_dict(dim, 4, HESS_COEFFS[dim])
        pts = probe_points(dim)
        h = 1e-5
        for k in range(dim):
            step = np.zeros(dim)
            step[k] = h
            fd = (phi.grad(pts + step) - phi.grad(pts - step)) / (2 * h)
            hess = phi.hess(pts)[:, k, :]
            np.testing.assert_allclose(fd, hess, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_third_matches_fd(self, dim):
        phi = PotentialField.from_coeff_dict(dim, 4, THIRD_COEFFS[dim])
        pts = probe_points(dim)
        h = 1e-4
        for k in range(dim):
            step = np.zeros(dim)
            step[k] = h
            fd = (phi.hess(pts + step) - phi.hess(pts - step)) / (2 * h)
            third = phi.third(pts)[:, k, :, :]
            np.testing.assert_allclose(fd, third, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_third_fully_symmetric(self, dim):
        phi = PotentialField.from_coeff_dict(dim, 5, SYMMETRY_COEFFS[dim])
        t = phi.third(probe_points(dim))
        for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
            np.testing.assert_allclose(t, np.transpose(t, perm), atol=1e-12)

    def test_ou_apply_eigenrelation(self):
        # L He_alpha = |alpha| He_alpha: the coefficients scaled by
        # basis.ou_eigenvalues evaluate to L phi = <x, grad phi> - laplace phi
        phi = PotentialField.from_coeff_dict(2, 3, {(1, 0): 2.0, (1, 2): -0.5})
        lphi = PotentialField(phi.basis, phi.coeffs * phi.basis.ou_eigenvalues)
        assert coeff_dict(lphi) == {(1, 0): 2.0, (1, 2): -1.5}
        x = probe_points(2)
        direct = np.einsum("ni,ni->n", x, phi.grad(x)) - np.einsum("nii->n", phi.hess(x))
        np.testing.assert_allclose(lphi.eval(x), direct, atol=1e-12)

    def test_semigroup_scaling(self):
        phi = PotentialField.from_coeff_dict(1, 2, {(1,): 1.0, (2,): 1.0})
        sm = phi.semigroup(0.5)
        assert coeff_dict(sm)[(1,)] == pytest.approx(math.exp(-0.5))
        assert coeff_dict(sm)[(2,)] == pytest.approx(math.exp(-1.0))


class TestLogdet2:
    def test_zero(self):
        assert logdet2(np.zeros((3, 3))) == 0.0

    def test_scalar_one(self):
        assert logdet2(np.array([[1.0]])) == pytest.approx(math.log(2) - 1, abs=1e-12)

    def test_diagonal_sum(self):
        val = logdet2(np.diag([1.0, -0.5]))
        assert val == pytest.approx((math.log(2) - 1) + (math.log(0.5) + 0.5), abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularJacobianError):
            logdet2(np.array([[-1.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-0.999, 20.0), min_size=1, max_size=4), st.integers(0, 10**6))
    def test_nonpositive_property(self, kappas, seed):
        # log(1+x) <= x, so logdet2 <= 0 for any spectrum above -1
        rng = np.random.default_rng(seed)
        d = len(kappas)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = q @ np.diag(kappas) @ q.T
        a = 0.5 * (a + a.T)
        assert logdet2(a) <= 1e-12


class TestGaussianJacobian:
    def test_identity_shift(self, line60):
        lam = gaussian_jacobian(line60, zero_field(1, 2))
        xs = np.linspace(-3, 3, 7).reshape(-1, 1)
        np.testing.assert_allclose(lam(xs), 1.0, atol=1e-14)

    def test_closed_form_quadratic(self, line60):
        # sigma=2, m=1: Lambda = 2 e^{-1} exp(-(x^2-1) - x - (x+1)^2/2)
        phi = quadratic_phi(2.0, 1.0)
        lam = gaussian_jacobian(line60, phi)
        xs = np.linspace(-2, 2, 9)
        expected = 2 * np.exp(-1) * np.exp(-(xs**2 - 1) - xs - (xs + 1) ** 2 / 2)
        np.testing.assert_allclose(lam(xs.reshape(-1, 1)), expected, rtol=1e-12)

    def test_change_of_variables(self, line60, target_21):
        # (dnu/dmu)(T x) Lambda(x) = 1 pointwise
        phi = quadratic_phi(2.0, 1.0)
        lam = gaussian_jacobian(line60, phi)
        xs = np.linspace(-2.5, 2.5, 11).reshape(-1, 1)
        t = xs + phi.grad(xs)
        density_ratio = np.exp(-target_21.eval(t)) / 2.0  # c = sigma = 2
        np.testing.assert_allclose(density_ratio * lam(xs), 1.0, rtol=1e-12)

    def test_unit_mass_quadratic(self, line60):
        phi = quadratic_phi(1.5, 0.3)
        lam = gaussian_jacobian(line60, phi)
        mass = float(np.sum(line60.weights * lam(line60.nodes)))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_cubic_shift(self):
        # smooth degree-3 shift: E[Lambda] = 1 within 2% at level 20
        space = GaussianSpace.tensor_hermite(1, 20)
        # coefficient small enough that 1 + phi'' > 0 out to the extreme node
        phi = PotentialField.from_coeff_dict(1, 3, {(3,): 0.01})
        lam = gaussian_jacobian(space, phi)
        mass = float(np.sum(space.weights * lam(space.nodes)))
        assert mass == pytest.approx(1.0, rel=0.02)


class TestEntropies:
    def test_pushforward_zero(self, line60):
        assert pushforward_entropy(line60, zero_field(1, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_pushforward_quadratic_worked(self, line60):
        val = pushforward_entropy(line60, quadratic_phi(2.0, 1.0))
        assert val == pytest.approx(1.306853, abs=1e-6)
        assert val == pytest.approx(KL21, abs=1e-10)

    def test_pushforward_mean_shift_2d(self, plane20):
        m = np.array([0.7, -0.4])
        phi = PotentialField.from_coeff_dict(2, 1, {(1, 0): m[0], (0, 1): m[1]})
        assert pushforward_entropy(plane20, phi) == pytest.approx(0.5 * np.sum(m**2), abs=1e-12)

    @pytest.mark.parametrize("sigma,m", [(0.5, 0.0), (1.25, -0.8), (2.0, 1.0)])
    def test_pushforward_matches_gaussian_kl(self, line60, sigma, m):
        # closed-form KL(N(m, s^2) || N(0,1)) oracle
        kl = 0.5 * (sigma**2 + m**2 - 1) - math.log(sigma)
        assert pushforward_entropy(line60, quadratic_phi(sigma, m)) == pytest.approx(kl, abs=1e-8)

    def test_pushforward_nonnegative(self, line60):
        rng = np.random.default_rng(3)
        for _ in range(20):
            coeffs = rng.uniform(-0.2, 0.2, size=2)
            phi = PotentialField.from_coeff_dict(1, 2, {(1,): coeffs[0], (2,): coeffs[1]})
            assert pushforward_entropy(line60, phi) >= -1e-14

    def test_relative_entropy_constant(self, line60):
        base = gaussian_target([0.0], 1.0)
        flat = replace(base, eval=lambda x: base.eval(x) + 3.7)  # f = 3.7
        assert relative_entropy(line60, flat) == pytest.approx(0.0, abs=1e-12)

    def test_relative_entropy_worked(self, line80, target_21):
        assert relative_entropy(line80, target_21) == pytest.approx(1.306853, abs=1e-6)

    def test_relative_entropy_small_sigma(self, line80):
        tgt = gaussian_target([0.5], 0.5)
        expected = 0.5 * (0.25 + 0.25 - 1) - math.log(0.5)
        assert relative_entropy(line80, tgt) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.443147, abs=1e-6)


class TestSerialization:
    def test_round_trip_exact(self):
        # a report's "phi" block (to_json_dict, through JSON text) read back by
        # from_coeff_dict, as scripts/run_gaussian_exactness.py builds its fields
        phi = PotentialField.from_coeff_dict(
            2, 3, {(1, 0): 0.1 + 1e-17, (0, 2): -1.0 / 3.0, (2, 1): 1e-300}
        )
        data = json.loads(json.dumps(phi.to_json_dict()))
        back = PotentialField.from_coeff_dict(data["dim"], data["degree"],
                                              {tuple(alpha): c for alpha, c in data["coeffs"]})
        np.testing.assert_array_equal(back.coeffs, phi.coeffs)
        assert back.basis.indices == phi.basis.indices

    def test_rejects_out_of_basis_index(self):
        with pytest.raises(ValueError):
            PotentialField.from_coeff_dict(1, 2, {(3,): 1.0})

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=2, max_size=2))
    def test_round_trip_property(self, coeffs):
        phi = PotentialField.from_coeff_dict(1, 2, {(1,): coeffs[0], (2,): coeffs[1]})
        data = json.loads(json.dumps(phi.to_json_dict()))
        back = PotentialField.from_coeff_dict(data["dim"], data["degree"],
                                              {tuple(alpha): c for alpha, c in data["coeffs"]})
        np.testing.assert_array_equal(back.coeffs, phi.coeffs)
