import dataclasses
import math

import numpy as np
import pytest

from mongelab import (
    GaussianSpace,
    PotentialField,
    SolveConfig,
    gaussian_target,
    log_normalizer,
    objective,
    quartic_well_target,
    smooth_target,
    solve,
    truncate_density,
    variational_gap,
    wasserstein_check,
)
from mongelab.solver_forward import ForwardWorkspace, coefficient_scale, minimize_with_barrier
from mongelab.hermite import HermiteBasis
from reference import (
    BackwardWorkspace,
    coeff_dict,
    quadratic_phi,
    solve_backward_variational,
    zero_field,
)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def flat_target():
    return gaussian_target([0.0], 1.0)


class TestObjective:
    def test_zero_at_origin(self, line60, flat_target):
        assert objective(line60, flat_target, zero_field(1, 2)) == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_true_potential_normalized(self, line60, target_21):
        # J* = -log E[e^{-f}]: zero for f normalized by its log E[e^{-f}]
        val = objective(line60, target_21, quadratic_phi(2.0, 1.0))
        assert val + log_normalizer(line60, target_21) == pytest.approx(0.0, abs=1e-8)

    def test_value_at_origin_normalized(self, line60, target_21):
        # E[f] for the normalized N(1,4) tilt, f + log E[e^{-f}]: 1/4 - 1/2 + ln 2
        val = objective(line60, target_21, zero_field(1, 2)) + log_normalizer(line60, target_21)
        assert val == pytest.approx(0.25 - 0.5 + LN2, abs=1e-9)
        assert val == pytest.approx(0.443147, abs=1e-6)

    def test_never_below_variational_lhs(self, line60, target_21):
        # Value bound: J(phi) >= -log E[e^{-f}] for every feasible phi
        rng = np.random.default_rng(5)
        lhs = -LN2
        for _ in range(25):
            phi = PotentialField.from_coeff_dict(
                1, 2, {(1,): rng.uniform(-1, 1), (2,): rng.uniform(-0.3, 0.4)}
            )
            assert objective(line60, target_21, phi) >= lhs - 1e-8


@pytest.fixture(scope="module")
def ou_quartic(line60):
    """A regularized target: the quartic well under P_{1/2}, a fused evaluator."""
    return smooth_target(line60, quartic_well_target(0.05, -0.1), 2)


@pytest.fixture(scope="module")
def truncated_21(line60, target_21):
    """A regularized target: N(1, 4) with its density ratio cut to [1/2, 2]."""
    return truncate_density(line60, target_21, 2)


class TestCoefficientGradient:
    def test_zero_at_global_minimum(self, line60, flat_target):
        phi = zero_field(1, 3)
        grad = ForwardWorkspace(line60, flat_target, phi.basis).objective_and_gradient(phi.coeffs)[1]
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_zero_at_gaussian_solution(self, line60, target_21):
        phi = quadratic_phi(2.0, 1.0)
        grad = ForwardWorkspace(line60, target_21, phi.basis).objective_and_gradient(phi.coeffs)[1]
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    # both objectives share the barrier kernel; forward cases on target_21 are named
    # by seed alone, and the ou and trunc cases drive the fused value-and-gradient path
    @pytest.mark.parametrize("workspace, seed, target_name", [
        *(pytest.param(ForwardWorkspace, seed, "target_21", id=str(seed)) for seed in range(10)),
        *(pytest.param(BackwardWorkspace, seed, "target_21", id=f"backward-{seed}")
          for seed in range(10)),
        *(pytest.param(ForwardWorkspace, seed, "ou_quartic", id=f"ou-{seed}") for seed in range(5)),
        *(pytest.param(ForwardWorkspace, seed, "truncated_21", id=f"trunc-{seed}")
          for seed in range(5)),
    ])
    def test_matches_finite_differences(self, request, line60, workspace, seed, target_name):
        rng = np.random.default_rng(seed)
        phi = PotentialField.from_coeff_dict(
            1, 2, {(1,): rng.uniform(-0.5, 0.5), (2,): rng.uniform(-0.2, 0.3)}
        )
        ws = workspace(line60, request.getfixturevalue(target_name), HermiteBasis(1, 2))
        val, grad, _ = ws.objective_and_gradient(phi.coeffs)
        if workspace is ForwardWorkspace:
            # the pinned objective is the value of the one fused evaluation
            assert objective(line60, ws.target, phi) == val
        h = 1e-6
        for a in range(phi.coeffs.shape[0]):
            cp = phi.coeffs.copy()
            cm = phi.coeffs.copy()
            cp[a] += h
            cm[a] -= h
            fd = (ws.objective_and_gradient(cp)[0] - ws.objective_and_gradient(cm)[0]) / (2 * h)
            assert fd == pytest.approx(grad[a], rel=1e-5, abs=1e-9)


# (dim, level, degree): the tensor rules of the default battery, of the cases
# in cases.py and of perfbench's workloads, gaussian-3d and quartic-3d among them
@pytest.mark.parametrize("dim, level, degree", [
    (1, 5, 3), (1, 30, 4), (1, 30, 6), (1, 30, 10), (1, 40, 2), (1, 60, 2),
    (2, 12, 4), (2, 40, 2), (3, 14, 4), (3, 24, 4)])
def test_coefficient_scale_needs_no_squared_table(dim, level, degree):
    bhess = HermiteBasis(dim, degree).hess_table(GaussianSpace.tensor_hermite(dim, level).nodes)
    squared = np.sqrt(np.sum(bhess**2, axis=(1, 2))).max(axis=1)
    np.testing.assert_array_equal(coefficient_scale(bhess), 1.0 / (1.0 + squared))


class TestBarrierDriver:
    """minimize_with_barrier builds the SolveResult of both solvers from its workspace."""

    @pytest.mark.parametrize("mode", ["quasi-newton", "backward"])
    def test_result_reads_the_workspace(self, line60, target_21, mode):
        basis = HermiteBasis(1, 4)
        if mode == "backward":
            _, res = solve_backward_variational(line60, target_21, SolveConfig(degree=4))
            ws = BackwardWorkspace(line60, target_21, basis)
        else:
            res = solve(line60, target_21, SolveConfig(degree=4, max_iters=2000))
            ws = ForwardWorkspace(line60, target_21, basis)
        assert res.converged
        assert res.objective_history[-1] == res.objective
        g, _ = ws.fields(res.phi.coeffs)
        assert res.wasserstein2_sq == float(np.sum(ws.w * np.sum(g**2, axis=1)))
        _, grad, _ = ws.objective_and_gradient(res.phi.coeffs)
        assert res.grad_norm == float(np.linalg.norm(grad))

    def test_blocked_descent_is_backtracked_once(self, line60, target_21):
        # feasible only at the start: the first direction is -h0 grad, its
        # 54 halvings all fail, and the estimate already is h0, so the run
        # ends there instead of backtracking the same direction again
        class FeasibleAtStart(ForwardWorkspace):
            calls = 0

            def objective_and_gradient(self, coeffs):
                self.calls += 1
                if np.any(coeffs):
                    return np.inf, None, -1.0
                return super().objective_and_gradient(coeffs)

        ws = FeasibleAtStart(line60, target_21, HermiteBasis(1, 2))
        res = minimize_with_barrier(ws, np.zeros(ws.basis.size), SolveConfig(degree=2), 0.0)
        assert ws.calls == 1 + 54
        assert (res.iterations, res.converged) == (1, False)
        assert res.objective_history == [res.objective]


class TestSolveConfig:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolveConfig)] == ["degree", "max_iters",
                                                                     "grad_tol"]

    @pytest.mark.parametrize("field, value", [
        ("grad_tol", float("nan")),
        ("grad_tol", float("inf")),
        ("grad_tol", 0.0),
        ("grad_tol", 1e-3),  # above the soft tolerance
        ("max_iters", 2.5),
        ("max_iters", True),
        ("max_iters", 0),
        ("degree", 2.0),
        ("degree", True),
    ])
    def test_rejects_invalid_value(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolveConfig(**{"degree": 2, field: value})

    def test_accepts_numpy_integers(self):
        cfg = SolveConfig(degree=np.int64(2), max_iters=np.int32(5))
        assert (cfg.degree, cfg.max_iters) == (2, 5)


class TestSolve:
    def test_gaussian_recovers_brenier_map(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        assert res.converged
        coeffs = coeff_dict(res.phi)
        assert coeffs[(1,)] == pytest.approx(1.0, abs=1e-4)
        assert coeffs[(2,)] == pytest.approx(0.5, abs=1e-4)

    def test_flat_target_stays_at_zero(self, line60, flat_target):
        res = solve(line60, flat_target, SolveConfig(degree=3))
        assert res.converged
        assert res.iterations == 0
        np.testing.assert_allclose(res.phi.coeffs, 0.0, atol=1e-14)
        assert res.objective == pytest.approx(0.0, abs=1e-14)

    def test_quartic_matches_oracle(self):
        from mongelab import monotone_map

        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.02, 0.1)
        res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
        assert res.converged
        xs = np.linspace(-3, 3, 241)
        t_solver = xs + res.phi.grad(xs.reshape(-1, 1))[:, 0]
        sup = np.max(np.abs(t_solver - monotone_map(tgt)(xs)))
        assert sup <= 1e-3

    def test_monotone_descent(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=4))
        hist = np.array(res.objective_history)
        assert np.all(np.diff(hist) <= 0)

    def test_deterministic(self, line60, target_21):
        res1 = solve(line60, target_21, SolveConfig(degree=4))
        res2 = solve(line60, target_21, SolveConfig(degree=4))
        np.testing.assert_array_equal(res1.phi.coeffs, res2.phi.coeffs)

    def test_degree_monotonicity(self):
        # level 16 keeps every nested degree at an interior optimum
        space = GaussianSpace.tensor_hermite(1, 16)
        tgt = quartic_well_target(0.02, 0.1)
        results = [
            solve(space, tgt, SolveConfig(degree=p, max_iters=3000))
            for p in (2, 3, 4, 5, 6, 7, 8)
        ]
        assert all(r.converged for r in results)
        values = [r.objective for r in results]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-10

    def test_pushforward_moments(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        t = line60.nodes + res.phi.grad(line60.nodes)
        mean = float(np.sum(line60.weights * t[:, 0]))
        second = float(np.sum(line60.weights * t[:, 0] ** 2))
        assert mean == pytest.approx(1.0, abs=1e-3)
        assert second == pytest.approx(5.0, abs=1e-3)


class TestWassersteinAndGap:
    def test_gaussian_w2_worked(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        lhs, rhs = wasserstein_check(res, target_21)
        assert rhs == 2.0
        assert lhs == pytest.approx(2.0, abs=1e-6)

    def test_flat_is_zero(self, line60, flat_target):
        res = solve(line60, flat_target, SolveConfig(degree=2))
        lhs, rhs = wasserstein_check(res, flat_target)
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_small_sigma(self, line60):
        tgt = gaussian_target([0.5], 0.5)
        res = solve(line60, tgt, SolveConfig(degree=2))
        lhs, rhs = wasserstein_check(res, tgt)
        assert rhs == pytest.approx(0.5, abs=1e-12)
        assert lhs == pytest.approx(0.5, abs=1e-6)

    def test_quartic_uses_oracle_reference(self):
        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.02, 0.1)
        res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
        lhs, rhs = wasserstein_check(res, tgt)
        assert lhs == pytest.approx(rhs, abs=1e-4)

    def test_gap_small_at_adequate_degree(self, line60, target_21):
        res = solve(line60, target_21, SolveConfig(degree=2))
        assert abs(variational_gap(res)) <= 1e-6

    def test_gap_positive_at_too_low_degree(self, line60, target_21):
        # p=1 fits the mean only; restricted minimum is ln 2 - 3/8
        res = solve(line60, target_21, SolveConfig(degree=1))
        gap = variational_gap(res)
        assert gap == pytest.approx(LN2 - 0.375, abs=1e-6)
        assert gap > 1e-2

    def test_flat_gap_zero(self, line60, flat_target):
        res = solve(line60, flat_target, SolveConfig(degree=2))
        assert variational_gap(res) == pytest.approx(0.0, abs=1e-12)


class TestMultiDim:
    def test_2d_diagonal(self, plane40):
        tgt = gaussian_target([0.5, 0.0], [2.0, 0.5])
        res = solve(plane40, tgt, SolveConfig(degree=2))
        assert res.converged
        lhs, rhs = wasserstein_check(res, tgt)
        assert rhs == pytest.approx(0.25 + 1.0 + 0.25, abs=1e-12)
        assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("degree", [4, 6])
    @pytest.mark.parametrize("a, b", [(0.03, 0.0), (0.02, 0.1), (0.03, -0.1)])
    def test_separable_quartic_reduces_to_1d(self, a, b, degree):
        # f(x) = g(x1) + g(x2) on a tensor rule: the 2d minimizer is two copies
        # of the 1d one, so J and E[|grad phi|^2] double and no cross term enters
        cfg = SolveConfig(degree=degree, max_iters=3000)
        res1 = solve(GaussianSpace.tensor_hermite(1, 12), quartic_well_target(a, b, dim=1), cfg)
        res2 = solve(GaussianSpace.tensor_hermite(2, 12), quartic_well_target(a, b, dim=2), cfg)
        assert res1.converged and res2.converged
        assert abs(res2.objective - 2 * res1.objective) <= 1e-12
        c1, c2 = (dict(zip(r.phi.basis.indices, r.phi.coeffs)) for r in (res1, res2))
        for (k,), value in c1.items():
            assert c2[(k, 0)] == pytest.approx(value, abs=1e-8)
            assert c2[(0, k)] == pytest.approx(value, abs=1e-8)
        assert max(abs(v) for alpha, v in c2.items() if min(alpha) > 0) <= 1e-8
        assert res2.wasserstein2_sq == pytest.approx(2 * res1.wasserstein2_sq, abs=1e-8)

    def test_3d_mean_shift(self):
        space = GaussianSpace.tensor_hermite(3, 8)
        tgt = gaussian_target([0.5, 0.0, 0.0], 1.2, dim=3)
        res = solve(space, tgt, SolveConfig(degree=2))
        assert res.converged
        assert res.wasserstein2_sq == pytest.approx(0.25 + 3 * 0.04, abs=1e-6)

    def test_4d_tensor_rule(self):
        space = GaussianSpace.tensor_hermite(4, 8)
        tgt = gaussian_target([0.3, 0.0, 0.0, -0.2], 1.1, dim=4)
        res = solve(space, tgt, SolveConfig(degree=2))
        assert res.converged
        assert res.wasserstein2_sq == pytest.approx(0.09 + 0.04 + 4 * 0.01, abs=1e-6)

    def test_tabulated_target_pipeline(self):
        from mongelab import monotone_map, tabulated_target_1d

        space = GaussianSpace.tensor_hermite(1, 30)
        xs = np.linspace(-12, 12, 4001)
        base = quartic_well_target(0.03, 0.05)
        tab = tabulated_target_1d(xs, base.eval(xs.reshape(-1, 1)))
        res = solve(space, tab, SolveConfig(degree=6, max_iters=3000))
        assert res.converged
        probe = np.linspace(-3, 3, 121)
        sup = np.max(np.abs(probe + res.phi.grad(probe.reshape(-1, 1))[:, 0]
                            - monotone_map(tab)(probe)))
        assert sup <= 1e-2  # limited by the spline table, not the solver

    def test_5d_monte_carlo_mean_shift(self):
        space = GaussianSpace.monte_carlo(5, 4000, seed=11)
        tgt = gaussian_target([0.3] * 5, 1.0, dim=5)
        res = solve(space, tgt, SolveConfig(degree=1))
        assert res.converged
        assert res.wasserstein2_sq == pytest.approx(0.45, rel=0.05)

    def test_6d_monte_carlo_quadratic(self):
        space = GaussianSpace.monte_carlo(6, 6000, seed=5)
        tgt = gaussian_target([0.2] * 6, 1.2, dim=6)
        res = solve(space, tgt, SolveConfig(degree=2, max_iters=200))
        assert res.converged
        exact = 6 * (0.04 + 0.04)
        assert res.wasserstein2_sq == pytest.approx(exact, rel=0.1)
