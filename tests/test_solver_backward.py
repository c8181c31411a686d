import json
import math

import numpy as np
import pytest

from mongelab import (
    GaussianSpace,
    NodeTables,
    PotentialField,
    SolveConfig,
    backward_el_residual,
    backward_objective,
    conjugate,
    fit_dual,
    gaussian_target,
    inverse_check,
    quartic_well_target,
    solve,
    truncate_density,
    young_gap,
)
import mongelab.solver_backward as sb
from mongelab.cli import main
from mongelab.gaussian import nu_masked_weights
from mongelab.potentials import EIG_FLOOR, inverse_shift_jacobian
from reference import (
    coeff_dict,
    default_dual_grid,
    graph_identity_gap,
    halving_conjugacy_minimize,
    quadratic_phi,
    quadratic_psi,
    solve_backward_variational,
    zero_field,
)

LN2 = math.log(2.0)


def reference_conjugacy_minimize(phi, y):
    """Damped Newton on grad phi(x) + x - y with 60 halvings and no retirement.

    The loop conjugacy_minimize ran before stalled points were retired; it
    accepts the step left after the last halving.  Returns x only.
    """
    x = y.copy()
    eye = np.eye(phi.dim)

    def residual(pts, targets):
        return phi.grad(pts) + pts - targets

    r = residual(x, y)
    rnorm = np.linalg.norm(r, axis=1)
    tol = 1e-12 * (1.0 + np.linalg.norm(y, axis=1))
    for _ in range(100):
        active = rnorm > tol
        if not active.any():
            break
        jac = eye[None] + phi.hess(x[active])
        step = np.linalg.solve(jac, -r[active][..., None])[..., 0]
        lam = np.ones(step.shape[0])
        xa = x[active]
        ya = y[active]
        ra = rnorm[active]
        for _ in range(60):
            trial = xa + lam[:, None] * step
            trn = np.linalg.norm(residual(trial, ya), axis=1)
            bad = trn > (1.0 - 0.5 * lam) * ra
            if not bad.any():
                break
            lam[bad] *= 0.5
        x[active] = xa + lam[:, None] * step
        r = residual(x, y)
        rnorm = np.linalg.norm(r, axis=1)
    return x


def half_he3():
    """phi = He_3 / 2: 1 + phi''(x) = 1 + 3x, so the inner objective is
    nonconvex for x < -1/3 and unbounded below as x -> -inf."""
    return PotentialField.from_coeff_dict(1, 3, {(3,): 0.5})


@pytest.fixture(scope="module")
def solved_quartic():
    space = GaussianSpace.tensor_hermite(1, 30)
    tgt = quartic_well_target(0.02, 0.1)
    res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
    assert res.converged
    dual = fit_dual(space, res.nu_weights, res.phi)
    return space, tgt, res, dual


class TestConjugate:
    def test_zero_potential(self):
        dual = conjugate(zero_field(1, 2), grid=np.linspace(-3, 3, 41))
        assert dual.converged.all()
        np.testing.assert_allclose(dual.psi_values, 0.0, atol=1e-12)
        np.testing.assert_allclose(dual.grad(np.linspace(-2, 2, 9)), 0.0, atol=1e-12)

    def test_gaussian_dual_gradient(self):
        # sigma=2, m=1: S(y) = (y-1)/2, grad psi(y) = (y-1)/2 - y
        phi = quadratic_phi(2.0, 1.0)
        dual = conjugate(phi, default_dual_grid(1))
        ys = np.linspace(-3, 3, 11).reshape(-1, 1)
        np.testing.assert_allclose(
            dual.grad(ys)[:, 0], (ys[:, 0] - 1) / 2 - ys[:, 0], atol=1e-10
        )

    def test_mean_shift_values(self):
        # phi = m x: psi(y) = -m y + m^2/2 including the constant
        m = 0.8
        phi = PotentialField.from_coeff_dict(1, 1, {(1,): m})
        dual = conjugate(phi, grid=np.linspace(-2, 2, 21))
        np.testing.assert_allclose(
            dual.psi_values, -m * dual.points[:, 0] + m**2 / 2, atol=1e-12
        )

    def test_exact_hessian_via_forward(self):
        phi = quadratic_phi(2.0, 1.0)
        dual = conjugate(phi, default_dual_grid(1))
        ys = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(dual.hess(ys.reshape(-1, 1))[:, 0, 0], -0.5, atol=1e-12)

    def test_young_inequality_on_probe_pairs(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        assert young_gap(res.phi, dual, seed=0) >= -1e-8

    def test_zero_on_graph(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        xs = np.linspace(-3, 3, 17)
        assert graph_identity_gap(res.phi, dual, xs.reshape(-1, 1)) <= 1e-10


class TestConjugacyCertificate:
    """conjugacy_minimize retires stalled points and certifies minimizers."""

    def test_saddle_root_is_not_converged(self):
        # at y = -1.5 the residual 1.5 x^2 + x has roots 0 (a minimizer) and
        # -2/3, where 1 + phi'' = -1; Newton from x = y lands on the saddle
        x_star, ok = sb.conjugacy_minimize(half_he3(), np.array([[-1.5]]))
        np.testing.assert_allclose(x_star[0, 0], -2.0 / 3.0, atol=1e-12)
        assert not ok[0]

    def test_stalled_point_retired_early(self, monkeypatch):
        # y = -3 has no real root (1.5 x^2 + x + 1.5 > 0); y = 1 and y = 2.5
        # converge to the minimizers 1 and 4/3
        phi = half_he3()
        y = np.array([[-3.0], [1.0], [2.5]])
        x_ref = reference_conjugacy_minimize(phi, y)
        calls = []
        grad = PotentialField.grad

        def counting(self, x):
            calls.append(len(x))
            return grad(self, x)

        monkeypatch.setattr(PotentialField, "grad", counting)
        x_star, ok = sb.conjugacy_minimize(phi, y)
        assert len(calls) <= 200
        np.testing.assert_array_equal(ok, [False, True, True])
        np.testing.assert_array_equal(x_star[1:], x_ref[1:])
        np.testing.assert_allclose(x_star[1:, 0], [1.0, 4.0 / 3.0], atol=1e-12)

    def test_study_raw_dual_has_no_certified_saddle(self, study_raw):
        space, res = study_raw
        dual = fit_dual(space, res.nu_weights, res.phi)
        jac = np.eye(2)[None] + res.phi.hess(dual.map_values)
        indefinite = np.linalg.eigvalsh(jac)[:, 0] <= EIG_FLOOR
        assert not (dual.converged & indefinite).any()


@pytest.fixture(scope="module")
def study_raw():
    """The raw reference solve of the seed-0 study-ou-2d workload."""
    space = GaussianSpace.tensor_hermite(2, 12)
    res = solve(space, quartic_well_target(0.03, 0.0, dim=2), SolveConfig(degree=4))
    return space, res


def nu_mass_nodes(space, res):
    return space.nodes[nu_masked_weights(res.nu_weights)[1]]


def record_conjugacy_work(monkeypatch):
    """Run the halving reference beside every conjugacy_minimize call and
    require the same bits; returns the list that collects, per call, the
    PotentialField.grad calls of conjugacy_minimize, its Newton iterations
    (hess calls less the final certification) and the reference's grad calls."""
    counts = dict.fromkeys(("grad", "hess"), 0)
    for name in counts:
        def counted(self, x, _method=getattr(PotentialField, name), _name=name):
            counts[_name] += 1
            return _method(self, x)

        monkeypatch.setattr(PotentialField, name, counted)
    work = []
    newton = sb.conjugacy_minimize

    def compared(phi, y):
        counts.update(grad=0, hess=0)
        x, ok = newton(phi, y)
        grads, iters = counts["grad"], counts["hess"] - 1
        counts.update(grad=0, hess=0)
        x_ref, ok_ref = halving_conjugacy_minimize(phi, y)
        assert np.array_equal(x, x_ref) and np.array_equal(ok, ok_ref)
        work.append((grads, iters, counts["grad"]))
        return x, ok

    monkeypatch.setattr(sb, "conjugacy_minimize", compared)
    return work


class TestHalvingLadder:
    """conjugacy_minimize evaluates a rejected step's halvings 2^-1 .. 2^-20 in
    one residual call and lands on the bits of the one-call-per-halving loop."""

    @staticmethod
    def assert_same_as_halving(phi, y):
        x, ok = sb.conjugacy_minimize(phi, y)
        x_ref, ok_ref = halving_conjugacy_minimize(phi, y)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(ok, ok_ref)
        return ok

    def test_study_raw_nu_mass_nodes(self, study_raw):
        space, res = study_raw
        nodes = nu_mass_nodes(space, res)
        assert nodes.shape[0] == 92
        ok = self.assert_same_as_halving(res.phi, nodes)
        assert (~ok).sum() == 28  # points whose backtracking stalls

    def test_half_he3(self):
        ok = self.assert_same_as_halving(half_he3(), np.array([[-3.0], [-1.5], [1.0], [2.5]]))
        np.testing.assert_array_equal(ok, [False, False, True, True])

    def test_truncation_study_dual(self):
        # the n = 12 row of scripts/run_smoothing_studies.py's truncation study
        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.05, 0.0)
        config = SolveConfig(degree=6, max_iters=3000)
        raw = solve(space, tgt, config)
        res = solve(space, truncate_density(space, tgt, 12), config, initial=raw.phi)
        assert res.converged
        assert self.assert_same_as_halving(res.phi, nu_mass_nodes(space, res)).all()

    def test_study_work_bound(self, tmp_path, monkeypatch):
        # every Newton iteration costs at most two residual calls: the unit
        # step and the ladder of its rejected points
        work = record_conjugacy_work(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dim": 2, "degree": 4,
            "quadrature": {"kind": "tensor-hermite", "level": 12},
            "target": {"kind": "quartic-well", "a": 0.03, "b": 0.0},
            "study": {"scheme": "ou", "n_list": [1, 2, 4, 8], "threshold": 0.05},
        }))
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(work) == 5  # one fit_dual per solve
        assert all(grads <= 2 * iters + 1 for grads, iters, _ in work)
        # the halving loop spends a call per halving on the stalled duals
        assert any(ref > 3 * iters + 1 for _, iters, ref in work)

    def test_battery_work_does_not_rise(self, tmp_path, monkeypatch):
        work = record_conjugacy_work(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"battery": "default"}))
        assert main(["battery", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--threads", "1"]) == 0
        assert len(work) == 14
        assert all(grads <= ref for grads, _, ref in work)


@pytest.fixture(scope="module")
def quartic_dual():
    space = GaussianSpace.tensor_hermite(1, 30)
    tgt = quartic_well_target(0.03, -0.1)
    res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
    assert res.converged
    return conjugate(res.phi, default_dual_grid(1))


class TestConjugacyDerivatives:
    """The implicit-function-theorem evaluators against finite differences."""

    def test_grad_matches_fd_of_values(self, quartic_dual):
        ys = np.linspace(-2.5, 2.5, 11).reshape(-1, 1)
        h = 1e-6
        fd = (quartic_dual.eval(ys + h) - quartic_dual.eval(ys - h)) / (2 * h)
        np.testing.assert_allclose(fd, quartic_dual.grad(ys)[:, 0], rtol=1e-6, atol=1e-9)

    def test_hess_matches_fd_of_grad(self, quartic_dual):
        ys = np.linspace(-2.5, 2.5, 11).reshape(-1, 1)
        h = 1e-6
        fd = (quartic_dual.grad(ys + h) - quartic_dual.grad(ys - h)) / (2 * h)
        np.testing.assert_allclose(fd[:, 0], quartic_dual.hess(ys)[:, 0, 0],
                                   rtol=1e-5, atol=1e-8)

    def test_third_matches_fd_of_hess(self, quartic_dual):
        ys = np.linspace(-2, 2, 9).reshape(-1, 1)
        h = 1e-5
        fd = (quartic_dual.hess(ys + h) - quartic_dual.hess(ys - h)) / (2 * h)
        np.testing.assert_allclose(fd[:, 0, 0], quartic_dual.third(ys)[:, 0, 0, 0],
                                   rtol=1e-4, atol=1e-6)

    def test_tabulated_points_read_held_minimizers(self, quartic_dual, monkeypatch):
        import mongelab.solver_backward as sb

        phi, pts = quartic_dual.forward, quartic_dual.points
        x_star, _ = sb.conjugacy_minimize(phi, pts)
        k = inverse_shift_jacobian(phi, x_star)
        third = -np.einsum("nce,neij,nia,njb->ncab", k, phi.third(x_star), k, k)

        def no_solve(*args, **kwargs):
            raise AssertionError("evaluator re-ran the conjugacy solve on its own points")

        monkeypatch.setattr(sb, "conjugacy_minimize", no_solve)
        np.testing.assert_array_equal(quartic_dual.eval(pts), quartic_dual.psi_values)
        np.testing.assert_array_equal(quartic_dual.grad(pts), x_star - pts)
        np.testing.assert_array_equal(quartic_dual.hess(pts), k - np.eye(1))
        np.testing.assert_array_equal(quartic_dual.third(pts), third)

    def test_2d_hess_matches_fd(self, plane20):
        tgt = gaussian_target([0.5, -0.3], [1.6, 0.7])
        res = solve(plane20, tgt, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(2))
        ys = np.array([[0.2, -0.4], [1.0, 0.8], [-1.5, 0.0]])
        h = 1e-6
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (dual.grad(ys + step) - dual.grad(ys - step)) / (2 * h)
            np.testing.assert_allclose(fd, dual.hess(ys)[:, k, :], rtol=1e-5, atol=1e-8)

    def test_young_gap_quartic(self, quartic_dual):
        assert young_gap(quartic_dual.forward, quartic_dual, seed=3) >= -1e-8


class TestInverseCheck:
    def test_gaussian_closed_form(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        dual = fit_dual(line60, res.nu_weights, res.phi)
        assert inverse_check(line60, res.phi, dual.as_field()) <= 1e-10

    def test_zero_potential(self, line60):
        phi = zero_field(1, 2)
        assert inverse_check(line60, phi, zero_field(1, 2)) == pytest.approx(0.0, abs=1e-16)

    def test_infeasible_warm_start_rejected(self, line60, target_21):
        from mongelab import SingularJacobianError

        bad = PotentialField.from_coeff_dict(1, 2, {(2,): -0.75})  # 1 + phi'' = -0.5
        with pytest.raises(SingularJacobianError):
            solve(line60, target_21, SolveConfig(degree=2), initial=bad)

    def test_quartic_conjugacy_inverse(self, solved_quartic):
        space, tgt, res, dual = solved_quartic
        # conjugacy-exact S gives Newton-level inversion error
        assert inverse_check(space, res.phi, dual) <= 1e-3
        assert inverse_check(space, res.phi, dual) <= 1e-12


class TestBackwardObjective:
    def test_flat_zero(self, line60):
        flat = gaussian_target([0.0], 1.0)
        assert backward_objective(line60, flat, zero_field(1, 2)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_gaussian_attains_log_normalizer(self, line80, target_21):
        # J_b(psi*) = -log nu(e^f) = log E[e^{-f}] = ln 2
        val = backward_objective(line80, target_21, quadratic_psi(2.0, 1.0))
        assert val == pytest.approx(LN2, abs=1e-6)

    def test_zero_psi_suboptimal(self, line80, target_21):
        val = backward_objective(line80, target_21, zero_field(1, 2))
        assert val > LN2 + 1e-3

    def test_conjugate_dual_attains(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        assert backward_objective(line80, target_21, dual) == pytest.approx(LN2, abs=1e-6)


class TestBackwardElResidual:
    def test_gaussian_closed_form(self, line80, target_21):
        tables = NodeTables(line80, target_21, dual=quadratic_psi(2.0, 1.0))
        assert backward_el_residual(tables) <= 1e-8

    def test_flat(self, line60):
        flat = gaussian_target([0.0], 1.0)
        tables = NodeTables(line60, flat, dual=zero_field(1, 2))
        assert backward_el_residual(tables) == pytest.approx(0.0, abs=1e-16)

    def test_perturbed_dual_positive(self, line80, target_21):
        psi = quadratic_psi(2.0, 1.0)
        bumped = PotentialField(psi.basis, psi.coeffs + np.array([0.0, 0.1]))
        residual = backward_el_residual(NodeTables(line80, target_21, dual=bumped))
        assert residual > 1e-3

    def test_solved_quartic(self, solved_quartic):
        space, tgt, res, dual = solved_quartic
        assert backward_el_residual(NodeTables(space, tgt, dual=dual)) <= 1e-3

    def test_conjugate_gaussian(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        assert backward_el_residual(NodeTables(line80, target_21, dual=dual)) <= 1e-8

    @pytest.mark.parametrize("sigma,m", [(0.5, 0.0), (2.0, 1.0), (1.5, -1.0)])
    def test_conjugate_gaussian_level30(self, sigma, m):
        # conjugate-produced duals at level-30 quadrature stay within 1e-4
        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = gaussian_target([m], sigma)
        res = solve(space, tgt, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        assert backward_el_residual(NodeTables(space, tgt, dual=dual)) <= 1e-4


class TestDuality:
    def test_gradient_second_moments_match(self, line80, target_21):
        # E_nu[|grad psi|^2] = E_mu[|grad phi|^2] (both are d2^2)
        from mongelab.gaussian import nu_masked_weights, nu_weights

        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        w, mask = nu_masked_weights(nu_weights(line80, target_21))
        g = dual.grad(line80.nodes[mask])
        nu_side = float(np.sum(w[mask] * np.sum(g**2, axis=1)))
        assert nu_side == pytest.approx(res.wasserstein2_sq, abs=1e-3)

    def test_variational_mode_on_quartic(self):
        # cross-check: direct J_b minimization agrees with the conjugacy dual
        from mongelab.gaussian import nu_masked_weights, nu_weights

        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.02, 0.1)
        res = solve(space, tgt, SolveConfig(degree=6, max_iters=3000))
        dual_c = conjugate(res.phi, default_dual_grid(1))
        dual_v, res_b = solve_backward_variational(space, tgt,
                                                   SolveConfig(degree=6, max_iters=3000))
        assert res_b.converged
        assert res_b.objective == pytest.approx(res_b.variational_lhs, abs=1e-8)
        w, mask = nu_masked_weights(nu_weights(space, tgt))
        gv = dual_v.grad(space.nodes[mask])
        gc = dual_c.grad(space.nodes[mask])
        dist = np.sqrt(np.sum(w[mask] * np.sum((gv - gc) ** 2, axis=1)))
        assert dist <= 1e-3
        assert backward_el_residual(NodeTables(space, tgt, dual=dual_v)) <= 1e-6

    def test_variational_mode_matches_conjugacy(self, line80, target_21):
        dual_var, res_b = solve_backward_variational(line80, target_21, SolveConfig(degree=2))
        assert res_b.converged
        coeffs = coeff_dict(dual_var)
        assert coeffs[(1,)] == pytest.approx(-0.5, abs=1e-5)
        assert coeffs[(2,)] == pytest.approx(-0.25, abs=1e-5)
        assert res_b.objective == pytest.approx(LN2, abs=1e-6)

    def test_fit_residual_small_for_gaussian(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = fit_dual(line80, res.nu_weights, res.phi)
        assert dual.fit_residual <= 1e-9

    def test_fit_dual_solves_once_on_the_nu_mass_nodes(self, line80, target_21, monkeypatch):
        import mongelab.solver_backward as sb
        from mongelab.gaussian import nu_masked_weights, nu_weights

        res = solve(line80, target_21, SolveConfig(degree=2))
        _, mask = nu_masked_weights(nu_weights(line80, target_21))
        assert 0 < mask.sum() < line80.nodes.shape[0]
        calls = []
        newton = sb.conjugacy_minimize

        def counting(phi, y):
            calls.append(np.array(y))
            return newton(phi, y)

        monkeypatch.setattr(sb, "conjugacy_minimize", counting)
        fitted = fit_dual(line80, res.nu_weights, res.phi)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], line80.nodes[mask])
        np.testing.assert_array_equal(fitted.points, line80.nodes[mask])
        assert fitted.converged.all()
        assert fitted.fit_residual <= 1e-9

    def test_fit_dual_rejects_too_few_nu_mass_nodes(self):
        from mongelab import DegenerateWeightError
        from mongelab.gaussian import nu_masked_weights, nu_weights

        # the quartic's nu-mass sits on 14 of 30 nodes: degree 13 has 14
        # unknowns (with the constant), degree 14 has 15
        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.05, 0.0)
        assert nu_masked_weights(nu_weights(space, tgt))[1].sum() == 14
        phi = zero_field(1, 10)
        w_nu = nu_weights(space, tgt)
        assert fit_dual(space, w_nu, phi, degree=13).psi_fit.degree == 13
        with pytest.raises(DegenerateWeightError, match="14 nu-mass nodes for 15 unknowns"):
            fit_dual(space, w_nu, phi, degree=14)

    def test_dual_serialization_round_trip(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = fit_dual(line80, res.nu_weights, res.phi)
        data = dual.to_json_dict()
        assert data["provenance"] == "conjugacy"
        back = PotentialField.from_coeff_dict(data["dim"], data["degree"],
                                              {tuple(alpha): c for alpha, c in data["coeffs"]})
        np.testing.assert_array_equal(back.coeffs, dual.as_field().coeffs)
