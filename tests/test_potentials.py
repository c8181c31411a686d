import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import CASES
from mongelab import (
    GaussianSpace,
    PotentialField,
    SingularJacobianError,
    gaussian_target,
    logdet2,
    pushforward_entropy,
    relative_entropy,
)
from mongelab import potentials
from mongelab.cli import main
from mongelab.hermite import HermiteBasis
from mongelab.potentials import EIG_FLOOR, eigh_inverse, floor_checked_inverse, jacobi_eigh
from reference import PerDegreeBasis, coeff_dict, gaussian_jacobian, quadratic_phi, zero_field

KL21 = 0.5 * (4 + 1 - 1) - math.log(2.0)  # KL(N(1,4) || N(0,1))


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


class TestContractingKernel:
    """HermiteBasis._table with coefficients contracts as it evaluates, so a
    PotentialField builds no basis table and a point's value is its own."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_table_contraction(self, dim, order):
        rng = np.random.default_rng(10 * dim + order)
        pts = rng.standard_normal((40, dim)) * 1.5
        for degree in range(1, 7):
            basis = HermiteBasis(dim, degree)
            coeffs = rng.standard_normal(basis.size)
            table = basis._table(pts, order)
            error = basis._table(pts, order, coeffs) - np.tensordot(coeffs, table, axes=1)
            # relative to the sum of |terms|: the two sum in different orders
            scale = np.tensordot(np.abs(coeffs), np.abs(table), axes=1)
            assert np.all(np.abs(error) <= 1e-13 * scale), (degree, np.abs(error).max())

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_the_per_degree_loop(self, dim):
        # the same bits and signs of zero: the coordinate tables through
        # degree 10, and _table, which only reads them, on 7 points through
        # degree 6 (its plan loop dominates the test's time)
        rng = np.random.default_rng(dim)
        for degree in range(1, 11):
            basis, reference = HermiteBasis(dim, degree), PerDegreeBasis(dim, degree)
            reference._plans = basis._plans
            coeffs = rng.standard_normal(basis.size)
            coeffs[0] = -0.0
            for n in (1, 7, 144):
                pts = 3 * rng.standard_normal((n, dim))
                pts[0, 0] = -0.0
                pairs = list(zip(basis._coord_tables(pts, 3), reference._coord_tables(pts, 3)))
                if degree <= 6 and n == 7:
                    pairs += [(basis._table(pts, order, c), reference._table(pts, order, c))
                              for order in range(4) for c in (None, coeffs)]
                for new, old in pairs:
                    assert np.array_equal(new, old), (degree, n)
                    assert np.array_equal(np.signbit(new), np.signbit(old)), (degree, n)

    def test_rows_are_independent(self):
        rng = np.random.default_rng(3)
        basis = HermiteBasis(2, 6)
        phi = PotentialField(basis, 0.1 * rng.standard_normal(basis.size))
        pts = 1.5 * rng.standard_normal((100, 2))
        for method in (phi.grad, phi.hess, phi.third):
            batch = method(pts)
            for k in range(pts.shape[0]):
                assert method(pts[k:k + 1])[0].tobytes() == batch[k].tobytes(), (method, k)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_third_below_degree_three_is_zero(self, degree):
        basis = HermiteBasis(2, degree)
        phi = PotentialField(basis, np.ones(basis.size))
        t = phi.third(probe_points(2))
        assert t.shape == (12, 2, 2, 2)
        assert not t.any()

    def test_fields_build_no_table(self, monkeypatch):
        calls = []
        kernel = HermiteBasis._table

        def recorded(basis, points, order, coeffs=None):
            calls.append((order, coeffs is not None))
            return kernel(basis, points, order, coeffs)

        monkeypatch.setattr(HermiteBasis, "_table", recorded)
        phi = PotentialField.from_coeff_dict(3, 4, THIRD_COEFFS[3])
        x = probe_points(3)
        for method in (phi.eval, phi.grad, phi.hess, phi.third):
            method(x)
        assert calls == [(0, True), (1, True), (2, True), (3, True)]


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


EPS = np.finfo(float).eps


def symmetric_batches(d, n, seed=0):
    """Named (n, d, d) batches of exactly symmetric matrices."""
    rng = np.random.default_rng(seed)
    eye = np.eye(d)
    b = rng.standard_normal((n, d, d))
    q = np.linalg.qr(rng.standard_normal((n, d, d)))[0]
    near = rng.uniform(1.0, 10.0, (n, d))
    near[:, 0] = 1e-8
    near[:, -1] = 10.0
    batches = {
        "spd": b @ b.transpose(0, 2, 1) + 0.1 * eye,
        "indefinite": b + b.transpose(0, 2, 1),
        "diagonal": rng.uniform(-3.0, 3.0, (n, d))[:, :, None] * eye,
        "multiple-of-identity": rng.uniform(0.1, 5.0, (n, 1, 1)) * eye,
        # lambda_min ~ 1e-8 next to lambda_max ~ 10
        "near-floor": np.einsum("nik,nk,njk->nij", q, near, q),
        # |a_pq| >> |a_pp - a_qq|
        "coupled": eye + 3.0 + 1e-12 * (b + b.transpose(0, 2, 1)),
    }
    return {name: 0.5 * (a + a.transpose(0, 2, 1)) for name, a in batches.items()}


def node_last(a):
    return np.ascontiguousarray(np.transpose(a, (1, 2, 0)))


class TestJacobiKernel:
    """jacobi_eigh and eigh_inverse against LAPACK's eigvalsh and inv."""

    @pytest.mark.parametrize("n", [1, 7, 300])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_lapack(self, d, n):
        for name, a in symmetric_batches(d, n).items():
            lam, v = jacobi_eigh(node_last(a))
            ref = np.linalg.eigvalsh(a)
            scale = np.abs(ref).max(axis=1)                     # |A|_2 per node
            bound = 8 * d * EPS * scale
            assert np.all(np.abs(np.sort(lam, axis=0).T - ref).max(axis=1) <= bound), name
            # exactly: the barrier's diagonal bound rejects only what Jacobi rejects
            assert np.all(lam.min(axis=0) <= np.diagonal(a, axis1=1, axis2=2).min(axis=1)), name
            rebuilt = np.einsum("ikn,kn,jkn->nij", v, lam, v)
            assert np.all(np.abs(rebuilt - a).max(axis=(1, 2)) <= bound), name
            gram = np.einsum("kin,kjn->nij", v, v)
            assert np.abs(gram - np.eye(d)).max() <= 8 * d * EPS, name
            if np.all(np.abs(ref).min(axis=1) > 0):
                k = np.transpose(eigh_inverse(lam, v), (2, 0, 1))
                k_ref = np.linalg.inv(a)
                cond = scale / np.abs(ref).min(axis=1)
                k_norm = 1.0 / np.abs(ref).min(axis=1)
                err = np.abs(k - k_ref).max(axis=(1, 2))
                assert np.all(err <= 8 * d * EPS * cond * k_norm), name

    def test_one_by_one_is_exact(self):
        a = np.random.default_rng(1).uniform(-5.0, 5.0, (1, 1, 300))
        lam, v = jacobi_eigh(a)
        assert lam.tobytes() == a[0].tobytes()
        assert eigh_inverse(lam, v).tobytes() == (1.0 / a).tobytes()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rows_are_independent(self, d):
        for name, a in symmetric_batches(d, 300).items():
            lam, v = jacobi_eigh(node_last(a))
            for node in (0, 150, 299):
                lam_1, v_1 = jacobi_eigh(node_last(a[node:node + 1]))
                assert lam_1.tobytes() == lam[:, node:node + 1].tobytes(), name
                assert v_1.tobytes() == np.ascontiguousarray(v[..., node:node + 1]).tobytes(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_non_finite_node_is_infeasible(self, d, bad):
        a = symmetric_batches(d, 7)["spd"]
        a[3, 0, d - 1] = a[3, d - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam, _ = jacobi_eigh(node_last(a))
            assert not lam[:, 3].min() > EIG_FLOOR
            clean, _ = jacobi_eigh(node_last(np.delete(a, 3, axis=0)))
            np.testing.assert_array_equal(np.delete(lam, 3, axis=1), clean)
            with pytest.raises(SingularJacobianError):
                floor_checked_inverse(a - np.eye(d))
            with pytest.raises(SingularJacobianError):
                logdet2(a - np.eye(d))

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_sweep_cap_is_never_reached(self, d, monkeypatch):
        # twice the cap leaves every output bit-equal: the sweeps stopped by
        # themselves, after one that rotated nothing
        batches = symmetric_batches(d, 300)
        capped = {name: jacobi_eigh(node_last(a)) for name, a in batches.items()}
        monkeypatch.setattr(potentials, "JACOBI_SWEEPS", 2 * potentials.JACOBI_SWEEPS)
        for name, a in batches.items():
            lam, v = jacobi_eigh(node_last(a))
            assert lam.tobytes() == capped[name][0].tobytes(), name
            assert v.tobytes() == capped[name][1].tobytes(), name


@pytest.mark.parametrize("case", ["battery", "study-ou-2d"])
def test_per_node_work_calls_no_lapack(tmp_path, monkeypatch, case):
    """No mongelab frame calls np.linalg.eigvalsh, eigh or inv in a whole run."""
    calls = []
    for name in ("eigvalsh", "eigh", "inv"):
        def counted(*args, _kernel=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((sys._getframe(1).f_globals.get("__name__", ""), _name))
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    argv, config, code = CASES[case]
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main([argv[-1], "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == code
    assert [c for c in calls if c[0].split(".")[0] == "mongelab"] == []
    # the wrappers are in place: numpy's own hermegauss goes through them
    assert ("numpy.polynomial.hermite_e", "eigvalsh") in calls


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
