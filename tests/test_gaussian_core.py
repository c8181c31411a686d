import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongelab import (
    DegenerateWeightError,
    GaussianSpace,
    HermiteBasis,
    NonFiniteValueError,
    PotentialField,
    expectation,
    gaussian_target,
    log_normalizer,
    mixture_target,
    nu_expectation,
    nu_weights,
    quartic_well_target,
)
from mongelab.potentials import relative_entropy_terms
from reference import (
    condition_first_n,
    constant_field,
    constant_operator,
    divergence,
    gradient_field,
    hessian_operator,
    linear_field,
    np_sum_mixture,
    operator_divergence,
    ou_semigroup,
    shifted_nu_terms,
    weighted_divergence,
)


def gaussian_moment(k: int) -> float:
    """E[x^k] for standard normal: (k-1)!! for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for level in (3, 10, 31):
            space = GaussianSpace.tensor_hermite(1, level)
            assert abs(space.weights.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("level", [3, 5, 8])
    def test_polynomial_exactness(self, level):
        # level-L rule integrates monomials up to degree 2L-1 exactly
        space = GaussianSpace.tensor_hermite(1, level)
        for k in range(2 * level):
            val = expectation(space, lambda x, k=k: x[:, 0] ** k)
            assert val == pytest.approx(gaussian_moment(k), abs=1e-9 * max(1, gaussian_moment(k)))

    def test_tensor_rule_mixed_moment(self):
        space = GaussianSpace.tensor_hermite(2, 6)
        val = expectation(space, lambda x: x[:, 0] ** 2 * x[:, 1] ** 4)
        assert val == pytest.approx(3.0, abs=1e-10)

    def test_dim_limit(self):
        with pytest.raises(ValueError):
            GaussianSpace.tensor_hermite(5, 4)
        with pytest.raises(ValueError):
            GaussianSpace.tensor_hermite(4, 100)  # 10^8 nodes

    def test_monte_carlo_reproducible(self):
        a = GaussianSpace.monte_carlo(3, 500, seed=42)
        b = GaussianSpace.monte_carlo(3, 500, seed=42)
        c = GaussianSpace.monte_carlo(3, 500, seed=43)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        assert not np.array_equal(a.nodes, c.nodes)

    @pytest.mark.parametrize("space, direct", [
        (GaussianSpace.tensor_hermite(3, 5), lambda k: GaussianSpace.tensor_hermite(k, 5)),
        (GaussianSpace.monte_carlo(3, 200, seed=11),
         lambda k: GaussianSpace.monte_carlo(k, 200, 11 + 7919 * k)),
    ])
    def test_subspace_matches_direct_build(self, space, direct):
        for k in (1, 2):
            sub, ref = space.subspace(k), direct(k)
            assert sub.dim == k
            np.testing.assert_array_equal(sub.nodes, ref.nodes)
            np.testing.assert_array_equal(sub.weights, ref.weights)
            assert sub.description == ref.description


class TestExpectation:
    def test_second_moment(self, line60):
        assert expectation(line60, lambda x: x[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_independence(self, plane20):
        assert expectation(plane20, lambda x: x[:, 0] * x[:, 1]) == pytest.approx(0.0, abs=1e-14)

    def test_fourth_moment(self):
        space = GaussianSpace.tensor_hermite(1, 3)
        assert expectation(space, lambda x: x[:, 0] ** 4) == pytest.approx(3.0, abs=1e-10)

    def test_weighted_is_nu_expectation(self, line80, target_21):
        # E_nu[x] for nu = N(1, 4)
        val = expectation(line80, lambda x: x[:, 0],
                          weight=lambda x: np.exp(-target_21.eval(x)))
        assert val == pytest.approx(1.0, abs=1e-9)
        stable = nu_expectation(line80, target_21, lambda x: x[:, 0])
        assert stable == pytest.approx(val, abs=1e-12)

    def test_non_finite_rejected(self, line60):
        with pytest.raises(NonFiniteValueError):
            expectation(line60, lambda x: np.where(x[:, 0] > 0, np.nan, 1.0))

    def test_degenerate_weight(self, line60):
        with pytest.raises(DegenerateWeightError):
            expectation(line60, lambda x: x[:, 0], weight=lambda x: np.zeros(x.shape[0]))


KERNEL_TARGETS = {
    "gaussian": lambda d: gaussian_target([0.5] * d, 1.5, dim=d),
    "quartic": lambda d: quartic_well_target(0.05, -0.1, dim=d),
    "mixture": lambda d: mixture_target([0.3, 0.7], [[-1.0] * d, [1.5] * d],
                                        [[0.6] * d, [1.2] * d], dim=d),
}


class TestLogSumExpKernel:
    """Every quantity read off the one log-sum-exp equals its own max-shift
    formula (tests/reference.py) bit for bit, on 1d and 2d tensor nodes."""

    @pytest.fixture(params=[(1, 30), (2, 12)], ids=["1d", "2d"], scope="class")
    def space(self, request):
        return GaussianSpace.tensor_hermite(*request.param)

    @pytest.mark.parametrize("kind", sorted(KERNEL_TARGETS))
    def test_nu_quantities(self, space, kind):
        target = KERNEL_TARGETS[kind](space.dim)
        w, log_c, h_rel = shifted_nu_terms(space, target)
        assert np.array_equal(nu_weights(space, target), w)
        assert log_normalizer(space, target) == log_c
        h, c, w_terms = relative_entropy_terms(space, target)
        assert (h, c) == (h_rel, log_c)
        assert np.array_equal(w_terms, w)

    def test_mixture_derivatives(self, space):
        target = KERNEL_TARGETS["mixture"](space.dim)
        pts = np.vstack([space.nodes, np.random.default_rng(3).normal(0, 4, (50, space.dim))])
        ref = np_sum_mixture(*(target.params[k] for k in ("weights", "means", "sigmas")))
        for got, want in zip((target.eval, target.grad, target.hess), ref):
            assert np.array_equal(got(pts), want(pts))


class TestOuSemigroup:
    def test_linear_contraction(self, line60):
        pt = ou_semigroup(line60, lambda x: x[:, 0], math.log(2.0))
        xs = np.array([[0.0], [1.0], [-2.5]])
        np.testing.assert_allclose(pt(xs), xs[:, 0] / 2, atol=1e-12)

    def test_constants_fixed(self, line60):
        pt = ou_semigroup(line60, lambda x: np.full(x.shape[0], 7.0), 0.9)
        np.testing.assert_allclose(pt(np.array([[1.3]])), 7.0, atol=1e-12)

    def test_hermite_eigenfunction(self, line60):
        # P_t He_2 = e^{-2t} He_2; independent oracle is the inner quadrature itself
        pt = ou_semigroup(line60, lambda x: x[:, 0] ** 2 - 1, 1.0)
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        np.testing.assert_allclose(pt(xs), np.exp(-2) * (xs[:, 0] ** 2 - 1), atol=1e-12)

    def test_p0_is_identity(self, line60):
        g = lambda x: np.sin(x[:, 0])
        assert ou_semigroup(line60, g, 0.0) is g

    def test_semigroup_composition(self, line60):
        g = lambda x: x[:, 0] ** 3
        ps_pt = ou_semigroup(line60, ou_semigroup(line60, g, 0.3), 0.5)
        pst = ou_semigroup(line60, g, 0.8)
        xs = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        np.testing.assert_allclose(ps_pt(xs), pst(xs), atol=1e-10)

    def test_matches_analytic_coefficient_scaling(self, line60):
        # two routes: quadrature Mehler formula vs diagonal semigroup action
        from mongelab import PotentialField as PF

        phi = PF.from_coeff_dict(1, 4, {(1,): 0.5, (2,): -0.3, (4,): 0.1})
        pt = ou_semigroup(line60, lambda x: phi.eval(x), 0.7)
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        np.testing.assert_allclose(pt(xs), phi.semigroup(0.7).eval(xs), atol=1e-10)

    def test_positivity_preserved(self, line60):
        g = lambda x: np.maximum(x[:, 0], 0.0) + 0.1
        pt = ou_semigroup(line60, g, 0.7)
        xs = np.linspace(-3, 3, 11).reshape(-1, 1)
        assert np.all(pt(xs) > 0)


class TestConditioning:
    def test_projects_out_centered_coordinate(self, plane20):
        g = lambda x: x[:, 0] + x[:, 1]
        cond = condition_first_n(plane20, g, 1)
        xs = np.array([[0.4, 100.0], [-1.2, -5.0]])
        np.testing.assert_allclose(cond(xs), xs[:, 0], atol=1e-12)

    def test_full_conditioning_is_identity(self, plane20):
        g = lambda x: x[:, 0] * x[:, 1]
        assert condition_first_n(plane20, g, 2) is g

    def test_second_moment_of_tail_block(self, plane20):
        g = lambda x: x[:, 0] * x[:, 1] ** 2
        cond = condition_first_n(plane20, g, 1)
        xs = np.array([[0.7, 9.9], [1.3, -2.0]])
        np.testing.assert_allclose(cond(xs), xs[:, 0], atol=1e-12)

    def test_condition_all_coordinates_out(self, plane20):
        # n = 0 integrates everything: E[x1^2 x2^2] = 1
        cond = condition_first_n(plane20, lambda x: x[:, 0] ** 2 * x[:, 1] ** 2, 0)
        np.testing.assert_allclose(cond(np.array([[9.0, -9.0]])), 1.0, atol=1e-10)

    def test_tower_property(self, plane20):
        g = lambda x: x[:, 0] ** 2 * x[:, 1] + x[:, 1] ** 3
        outer = condition_first_n(plane20, condition_first_n(plane20, g, 2), 1)
        direct = condition_first_n(plane20, g, 1)
        xs = np.linspace(-2, 2, 5).reshape(-1, 1) * np.ones((1, 2))
        np.testing.assert_allclose(outer(xs), direct(xs), atol=1e-10)


class TestDivergence:
    def test_constant_field(self, line60):
        div = divergence(line60, constant_field([1.0]))
        xs = np.array([[0.3], [-1.7]])
        np.testing.assert_allclose(div(xs), xs[:, 0], atol=1e-14)

    def test_identity_field(self, plane20):
        div = divergence(plane20, linear_field(np.eye(2)))
        xs = np.array([[1.0, 2.0], [0.0, -1.0]])
        np.testing.assert_allclose(div(xs), np.sum(xs**2, axis=1) - 2, atol=1e-14)

    def test_adjointness(self, line60):
        # E[<grad g, xi>] = E[g delta xi] on polynomials, to rule exactness
        g_field = PotentialField.from_coeff_dict(1, 3, {(1,): 0.7, (3,): -0.2})
        xi = gradient_field(PotentialField.from_coeff_dict(1, 4, {(2,): 0.5, (4,): 0.1}))
        lhs = expectation(line60, lambda x: np.einsum("ni,ni->n", g_field.grad(x), xi.value(x)))
        div = divergence(line60, xi)
        rhs = expectation(line60, lambda x: g_field.eval(x) * div(x))
        assert abs(lhs - rhs) <= 1e-10

    def test_delta_grad_is_ou_operator(self, line60):
        # delta(grad phi) = L phi; eigenrelation on He_alpha up to degree 4
        basis = HermiteBasis(1, 4)
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        for a, alpha in enumerate(basis.indices):
            coeffs = np.zeros(basis.size)
            coeffs[a] = 1.0
            he = PotentialField(basis, coeffs)
            div = divergence(line60, gradient_field(he))
            np.testing.assert_allclose(div(xs), sum(alpha) * he.eval(xs), atol=1e-9)


class TestOperatorDivergence:
    def test_identity_operator(self, plane20):
        div = operator_divergence(plane20, constant_operator(np.eye(2)))
        xs = np.array([[1.0, -2.0], [0.5, 0.5]])
        np.testing.assert_allclose(div(xs), xs, atol=1e-14)

    def test_constant_symmetric(self, plane20):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])
        div = operator_divergence(plane20, constant_operator(a))
        xs = np.array([[1.0, 0.0], [0.3, -1.1]])
        np.testing.assert_allclose(div(xs), xs @ a, atol=1e-14)
        # adjointness against a linear test field
        xi = linear_field(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lhs = expectation(
            plane20,
            lambda x: np.einsum("nij,nij->n", constant_operator(a).value(x), xi.jacobian(x)),
        )
        rhs = expectation(plane20, lambda x: np.einsum("ni,ni->n", div(x), xi.value(x)))
        assert abs(lhs - rhs) <= 1e-12

    def test_non_square_rejected(self, plane20):
        from reference import NonSquareOperatorError, OperatorField

        bad = OperatorField(
            2,
            value=lambda x: np.zeros((x.shape[0], 2, 3)),
            partial_divergence=lambda x: np.zeros((x.shape[0], 2)),
        )
        with pytest.raises(NonSquareOperatorError):
            operator_divergence(plane20, bad)(np.zeros((1, 2)))

    def test_1d_hessian_operator(self, line60):
        # phi = x^3/6 = He_3/6 + He_1/2: M = phi'' = x, delta M = Mx - M' = x^2 - 1
        phi = PotentialField.from_coeff_dict(1, 3, {(3,): 1.0 / 6.0, (1,): 0.5})
        m = hessian_operator(phi)
        div = operator_divergence(line60, m)
        xs = np.array([[0.4], [-1.3], [2.0]])
        np.testing.assert_allclose(div(xs)[:, 0], xs[:, 0] ** 2 - 1, atol=1e-12)


class TestWeightedDivergence:
    def test_zero_tilt_reduces_to_gaussian(self, line60):
        flat = gaussian_target([0.0], 1.0)
        xi = gradient_field(PotentialField.from_coeff_dict(1, 2, {(2,): 0.3}))
        xs = np.linspace(-2, 2, 7).reshape(-1, 1)
        np.testing.assert_allclose(
            weighted_divergence(line60, flat, xi)(xs),
            divergence(line60, xi)(xs),
            atol=1e-14,
        )

    def test_worked_constant_field(self, line60, target_21):
        # delta_nu 1 = x + f'(x) = (x - 1)/4 for the N(1,4) tilt
        div = weighted_divergence(line60, target_21, constant_field([1.0]))
        xs = np.array([[0.0], [1.0], [-3.0]])
        np.testing.assert_allclose(div(xs), (xs[:, 0] - 1) / 4, atol=1e-13)

    def test_nu_adjointness(self, line80, target_21):
        # E_nu[<grad g, xi>] = E_nu[g delta_nu xi]
        g_field = PotentialField.from_coeff_dict(1, 3, {(1,): 1.0, (3,): 0.1})
        xi = gradient_field(PotentialField.from_coeff_dict(1, 2, {(2,): 0.4}))
        lhs = nu_expectation(
            line80, target_21,
            lambda x: np.einsum("ni,ni->n", g_field.grad(x), xi.value(x)),
        )
        div = weighted_divergence(line80, target_21, xi)
        rhs = nu_expectation(line80, target_21, lambda x: g_field.eval(x) * div(x))
        assert abs(lhs - rhs) <= 1e-8


@settings(max_examples=30, deadline=None)
@given(
    gc=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
    xc=st.lists(st.floats(-1, 1), min_size=2, max_size=2),
)
def test_adjointness_property(gc, xc):
    """Gaussian integration by parts holds in quadrature for random polynomials."""
    space = GaussianSpace.tensor_hermite(1, 12)
    g_field = PotentialField.from_coeff_dict(1, 3, {(1,): gc[0], (3,): gc[1]})
    xi = gradient_field(PotentialField.from_coeff_dict(1, 3, {(2,): xc[0], (3,): xc[1]}))
    lhs = expectation(space, lambda x: np.einsum("ni,ni->n", g_field.grad(x), xi.value(x)))
    div = divergence(space, xi)
    rhs = expectation(space, lambda x: g_field.eval(x) * div(x))
    assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
