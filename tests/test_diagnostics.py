import numpy as np
import pytest

from mongelab import (
    GaussianSpace,
    NodeTables,
    NotApplicableError,
    PotentialField,
    SolveConfig,
    backward_el_residual,
    conjugate,
    control_forward,
    div_second_moment_identity,
    dual_hessian_bound,
    fit_dual,
    forward_el_residual,
    forward_sobolev_bound,
    gaussian_target,
    l2_ou_bound,
    mixture_target,
    quartic_ratio,
    quartic_well_target,
    run_standard_checks,
    solve,
    trace_positivity,
    weighted_div_second_moment_identity,
)
from mongelab.diagnostics import L2_EPS, certify_semiconvexity, hessian_composition_gap
from reference import (
    constant_field,
    default_dual_grid,
    gradient_field,
    linear_field,
    quadratic_phi,
    quadratic_psi,
    zero_field,
)


def on_nodes(xi, space):
    """(values, Jacobians) of the vector field xi on the space's nodes."""
    return xi.value(space.nodes), xi.jacobian(space.nodes)


@pytest.fixture(scope="module")
def flat():
    return gaussian_target([0.0], 1.0)


class TestForwardElResidual:
    def test_gaussian_closed_form(self, line80, target_21):
        # both sides equal (1-sigma)x/sigma symbolically; residual vanishes
        assert forward_el_residual(NodeTables(line80, target_21, quadratic_phi(2.0, 1.0))) <= 1e-8

    def test_flat(self, line60, flat):
        assert forward_el_residual(NodeTables(line60, flat, zero_field(1, 2))) <= 1e-16

    def test_solved_quartic(self):
        space = GaussianSpace.tensor_hermite(1, 30)
        tgt = quartic_well_target(0.02, 0.1)
        res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
        assert forward_el_residual(NodeTables(space, tgt, res.phi)) <= 1e-3


class TestTracePositivity:
    def test_quadratic_exactly_zero(self, line60):
        assert trace_positivity(NodeTables(line60, None, quadratic_phi(2.0, 1.0))) == 0.0

    def test_1d_cubic_worked_value(self):
        # phi with phi''(0) = 1, phi'''(0) = 1: K = 1/2, A = phi''' (K e) = 1/2,
        # trace(KAKA) = K^2 A^2 = 1/16 at the origin
        space = GaussianSpace.tensor_hermite(1, 3)
        phi = PotentialField.from_coeff_dict(1, 3, {(3,): 1.0 / 6.0, (1,): 0.5, (2,): 0.5})
        k = 1.0 / (1.0 + phi.hess(np.zeros((1, 1)))[0, 0, 0])
        assert k == pytest.approx(0.5, abs=1e-14)
        a = phi.third(np.zeros((1, 1)))[0, 0, 0, 0] * k
        val = (k * a) ** 2
        assert val == pytest.approx(1.0 / 16.0, abs=1e-14)
        # the sweep over nodes must sit at or above 0 regardless
        assert trace_positivity(NodeTables(space, None, phi)) >= -1e-12

    def test_random_degree4_sweep(self, line60):
        rng = np.random.default_rng(0)
        for _ in range(10):
            coeffs = {
                (1,): rng.uniform(-0.5, 0.5),
                (2,): rng.uniform(-0.05, 0.2),
                (3,): rng.uniform(-0.02, 0.02),
                (4,): rng.uniform(-0.005, 0.01),
            }
            phi = PotentialField.from_coeff_dict(1, 4, coeffs)
            margin = np.linalg.eigvalsh(
                np.eye(1)[None] + phi.hess(line60.nodes)
            ).min()
            if margin <= 1e-6:
                continue
            assert trace_positivity(NodeTables(line60, None, phi)) >= -1e-12

    def test_2d_directions(self, plane20):
        phi = PotentialField.from_coeff_dict(2, 3, {(2, 1): 0.03, (1, 2): -0.02, (3, 0): 0.01})
        assert trace_positivity(NodeTables(plane20, None, phi)) >= -1e-12


class TestControlForward:
    def test_worked_gaussian(self, line80, target_21):
        lhs, rhs = control_forward(NodeTables(line80, target_21, quadratic_phi(2.0, 1.0)))
        assert lhs == pytest.approx(0.25, abs=1e-8)
        assert rhs == pytest.approx(10.5, abs=1e-5)

    def test_flat(self, line60, flat):
        lhs, rhs = control_forward(NodeTables(line60, flat, zero_field(1, 2)))
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_quartic_sweep(self):
        space = GaussianSpace.tensor_hermite(1, 30)
        for a, b in ((0.02, 0.1), (0.05, 0.0), (0.03, -0.1)):
            tgt = quartic_well_target(a, b)
            res = solve(space, tgt, SolveConfig(degree=10, max_iters=3000))
            lhs, rhs = control_forward(NodeTables(space, tgt, res.phi))
            assert rhs - lhs >= -1e-6


class TestDualHessianBound:
    def test_worked_gaussian(self, line80, target_21):
        phi = quadratic_phi(2.0, 1.0)
        lhs, rhs = dual_hessian_bound(NodeTables(line80, target_21, phi, quadratic_psi(2.0, 1.0)))
        assert lhs == pytest.approx(0.25, abs=1e-8)
        assert rhs == pytest.approx(10.5, abs=1e-5)

    def test_flat(self, line60, flat):
        lhs, rhs = dual_hessian_bound(NodeTables(line60, flat, zero_field(1, 2),
                                                 zero_field(1, 2)))
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert rhs == pytest.approx(0.0, abs=1e-14)

    def test_composition_two_routes(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        via_phi, via_psi = hessian_composition_gap(NodeTables(line80, target_21, res.phi, dual))
        assert abs(via_phi - via_psi) <= 1e-3


class TestSobolevBound:
    def test_worked_gaussian(self, line80, target_21):
        lhs, rhs, eps = forward_sobolev_bound(
            NodeTables(line80, target_21, quadratic_phi(2.0, 1.0)))
        assert eps == pytest.approx(0.25, abs=1e-12)
        assert lhs == pytest.approx(0.25, abs=1e-8)
        assert rhs == pytest.approx(30.0, abs=1e-4)

    def test_flat_full_margin(self, line60, flat):
        lhs, rhs, eps = forward_sobolev_bound(NodeTables(line60, flat, zero_field(1, 2)))
        assert eps == 1.0
        assert lhs == 0.0
        assert rhs == 0.0

    def test_non_semiconvex_mixture_not_applicable(self, line60):
        tgt = mixture_target([0.5, 0.5], [[-2.0], [2.0]], [[0.5], [0.5]])
        with pytest.raises(NotApplicableError):
            certify_semiconvexity(tgt.hess(line60.nodes))
        with pytest.raises(NotApplicableError):
            forward_sobolev_bound(NodeTables(line60, tgt, zero_field(1, 2)))


class TestDivSecondMoment:
    def test_worked_constant_field(self, line80, target_21):
        # lhs = E_nu[((x-1)/4)^2] = 0.25; rhs = 1 + (1/4 - 1) = 0.25
        lhs, rhs = div_second_moment_identity(NodeTables(line80, target_21),
                                              *on_nodes(constant_field([1.0]), line80))
        assert lhs == pytest.approx(0.25, abs=1e-9)
        assert rhs == pytest.approx(0.25, abs=1e-12)
        assert abs(lhs - rhs) <= 1e-8

    def test_flat_constant_field(self, line60, flat):
        h = np.array([0.7])
        lhs, rhs = div_second_moment_identity(NodeTables(line60, flat),
                                              *on_nodes(constant_field(h), line60))
        assert lhs == pytest.approx(float(h @ h), abs=1e-12)
        assert rhs == pytest.approx(float(h @ h), abs=1e-12)

    def test_linear_field(self, line80, target_21):
        lhs, rhs = div_second_moment_identity(NodeTables(line80, target_21),
                                              *on_nodes(linear_field(np.eye(1)), line80))
        assert abs(lhs - rhs) <= 1e-8

    def test_gradient_field_2d(self, plane40):
        tgt = gaussian_target([0.5, -0.5], [1.5, 0.8])
        xi = gradient_field(PotentialField.from_coeff_dict(2, 2, {(1, 1): 0.3, (2, 0): 0.2}))
        lhs, rhs = div_second_moment_identity(NodeTables(plane40, tgt), *on_nodes(xi, plane40))
        assert abs(lhs - rhs) <= 1e-8

    def test_weighted_variant(self, line80, target_21):
        # alpha = x^2 = He_2 + 1: E_nu[alpha (delta_nu h)^2] vs quadratic form
        alpha = PotentialField.from_coeff_dict(1, 2, {(2,): 1.0})

        class Shifted:
            def eval(self, x):
                return alpha.eval(x) + 1.0

            def hess(self, x):
                return alpha.hess(x)

        lhs, rhs = weighted_div_second_moment_identity(
            NodeTables(line80, target_21), np.array([1.0]), Shifted()
        )
        assert abs(lhs - rhs) <= 1e-8

    def test_weighted_worked_value(self, line80, target_21):
        # alpha = x^2, h = 1, nu = N(1,4): both sides equal 13/4
        # lhs: E_nu[x^2 ((x-1)/4)^2] = E[(1+2z)^2 4z^2]/16 = 52/16
        # rhs: E_nu[x^2 + 2 + x^2 (1/4 - 1)] = 5/4 + 2

        class Alpha:
            def eval(self, x):
                return x[:, 0] ** 2

            def hess(self, x):
                out = np.zeros((x.shape[0], 1, 1))
                out[:, 0, 0] = 2.0
                return out

        lhs, rhs = weighted_div_second_moment_identity(
            NodeTables(line80, target_21), np.array([1.0]), Alpha()
        )
        assert lhs == pytest.approx(3.25, abs=1e-7)
        assert rhs == pytest.approx(3.25, abs=1e-7)

    def test_weighted_flat_oracle(self, line60, flat):
        # f = 0, h = e1, alpha = x^2: lhs = E[x^2 x^2] = 3, rhs = E[x^2 + 2] = 3

        class Alpha:
            def eval(self, x):
                return x[:, 0] ** 2

            def hess(self, x):
                out = np.zeros((x.shape[0], 1, 1))
                out[:, 0, 0] = 2.0
                return out

        lhs, rhs = weighted_div_second_moment_identity(NodeTables(line60, flat), np.array([1.0]),
                                                       Alpha())
        assert lhs == pytest.approx(3.0, abs=1e-10)
        assert rhs == pytest.approx(3.0, abs=1e-10)


class TestQuarticRatio:
    def test_flat_degenerate_guard(self, line60, flat):
        lhs, rhs, ratio, degenerate = quartic_ratio(
            NodeTables(line60, flat, zero_field(1, 2)))
        assert degenerate
        assert ratio == 0.0

    def test_worked_gaussian(self, line80, target_21):
        lhs, rhs, ratio, degenerate = quartic_ratio(
            NodeTables(line80, target_21, quadratic_phi(2.0, 1.0)))
        assert not degenerate
        assert lhs == pytest.approx(10.0, abs=1e-7)
        assert rhs == pytest.approx(29.6875, abs=1e-6)
        assert ratio == pytest.approx(10.0 / 29.6875, abs=1e-8)


class TestL2OuBound:
    def test_gaussian_symbolic_lhs(self, line80, target_21):
        # L_nu psi = 5/8 - y^2/8 under nu = N(1,4): E[(L_nu psi)^2] = 0.75
        psi = quadratic_psi(2.0, 1.0)
        lhs, rhs = l2_ou_bound(NodeTables(line80, target_21, dual=psi), eps=0.5)
        assert lhs == pytest.approx(0.5 * 0.75, abs=1e-6)
        assert rhs - lhs >= -1e-6

    def test_flat(self, line60, flat):
        lhs, rhs = l2_ou_bound(NodeTables(line60, flat, dual=zero_field(1, 2)), eps=0.5)
        assert lhs == 0.0
        assert rhs >= 0.0

    @pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
    def test_eps_sweep_gaussian_battery(self, line80, eps):
        for sigma, m in ((0.5, 0.0), (2.0, 1.0), (1.0, -1.0)):
            tgt = gaussian_target([m], sigma)
            psi = quadratic_psi(sigma, m)
            lhs, rhs = l2_ou_bound(NodeTables(line80, tgt, dual=psi), eps=eps)
            assert rhs - lhs >= -1e-6

    def test_eps_validated(self, line60, flat):
        with pytest.raises(ValueError):
            l2_ou_bound(NodeTables(line60, flat, dual=zero_field(1, 2)), eps=0.0)


class TestStandardReport:
    def test_gaussian_report_all_pass(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        report = run_standard_checks(line80, target_21, res, dual,
                                     metadata={"name": "gaussian-21"})
        assert report.all_passed()
        names = {r.name for r in report.records}
        assert "el_forward" in names and "control_forward" in names
        data = report.to_json_dict()
        assert data["metadata"]["name"] == "gaussian-21"

    def test_report_deterministic(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        r1 = run_standard_checks(line80, target_21, res, dual)
        r2 = run_standard_checks(line80, target_21, res, dual)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_checks_on_a_fitted_dual_run_no_conjugacy_solve(self, line80, target_21,
                                                             monkeypatch):
        import mongelab.solver_backward as sb

        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = fit_dual(line80, res.nu_weights, res.phi)

        def no_solve(*args, **kwargs):
            raise AssertionError("a check re-ran the conjugacy solve")

        monkeypatch.setattr(sb, "conjugacy_minimize", no_solve)
        report = run_standard_checks(line80, target_21, res, dual)
        assert report.all_passed()

    def test_hessian_composition_reads_the_bound_left_hand_sides(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = fit_dual(line80, res.nu_weights, res.phi)
        records = {r.name: r for r in run_standard_checks(line80, target_21, res, dual).records}
        composition = records["hessian_composition"]
        assert composition.lhs == records["control_forward"].lhs
        assert composition.rhs == records["dual_hessian_bound"].lhs
        assert (composition.lhs, composition.rhs) == hessian_composition_gap(
            NodeTables(line80, target_21, res.phi, dual))

        # every record equals, bit for bit, its public check on fresh tables:
        # no check writes into a table that a later check of the run reads
        def fresh():
            return NodeTables(line80, target_21, res.phi, dual)

        expected = {
            "variational_gap": (res.objective, res.variational_lhs),
            "el_forward": (forward_el_residual(fresh()), 0.0),
            "el_backward": (backward_el_residual(fresh()), 0.0),
            "div_second_moment": div_second_moment_identity(
                fresh(), *on_nodes(gradient_field(res.phi), line80)),
            "hessian_composition": hessian_composition_gap(fresh()),
            "trace_positivity": (0.0, trace_positivity(fresh())),
            "control_forward": control_forward(fresh()),
            "dual_hessian_bound": dual_hessian_bound(fresh()),
            "forward_sobolev_bound": forward_sobolev_bound(fresh())[:2],
            "quartic_ratio": quartic_ratio(fresh())[:2],
        }
        for eps in L2_EPS:
            expected[f"l2_ou_bound(eps={eps})"] = l2_ou_bound(fresh(), eps)
        assert set(expected) == set(records)
        for name, (lhs, rhs) in expected.items():
            assert (records[name].lhs, records[name].rhs) == (lhs, rhs), name

    def test_one_tabulation_per_run(self, line80, target_21, monkeypatch):
        # a run reads the solve's nu-weights, inverts I + hess phi once on the
        # nodes and once on the nu-mass nodes, evaluates each derivative order
        # of phi on the nodes once, and solves the conjugacy problem once for a
        # dual tabulated off the nu-mass nodes
        import mongelab.diagnostics as di
        import mongelab.gaussian as ga
        import mongelab.potentials as po
        import mongelab.solver_backward as sb
        from mongelab.hermite import HermiteBasis

        res = solve(line80, target_21, SolveConfig(degree=2))
        fitted = fit_dual(line80, res.nu_weights, res.phi)
        grid_dual = conjugate(res.phi, default_dual_grid(1))
        calls = dict.fromkeys(("nu_weights", "floor_checked_inverse", "conjugacy_minimize"), 0)
        for name in calls:
            for module in (ga, po, sb, di):
                if hasattr(module, name):
                    def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
                        calls[_name] += 1
                        return _f(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        node_orders = []
        kernel = HermiteBasis._table

        def on_nodes(basis, x, order, coeffs=None):
            if np.shape(x)[0] == line80.nodes.shape[0]:
                node_orders.append(order)
            return kernel(basis, x, order, coeffs)

        monkeypatch.setattr(HermiteBasis, "_table", on_nodes)

        run_standard_checks(line80, target_21, res, fitted)
        assert calls["nu_weights"] == 0
        assert calls["floor_checked_inverse"] <= 2
        assert sorted(node_orders) == [1, 2, 3]
        calls["conjugacy_minimize"] = 0
        run_standard_checks(line80, target_21, res, grid_dual)
        assert calls["conjugacy_minimize"] == 1

    def test_summary_lines_format(self, line80, target_21):
        res = solve(line80, target_21, SolveConfig(degree=2))
        dual = conjugate(res.phi, default_dual_grid(1))
        report = run_standard_checks(line80, target_21, res, dual)
        lines = report.summary_lines()
        assert all(line.startswith(("PASS", "FAIL", "INFO", "SKIP")) for line in lines)
