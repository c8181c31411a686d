import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mongelab import (
    DegenerateWeightError,
    GaussianSpace,
    HermiteBasis,
    NonFiniteValueError,
    ScalarTarget,
    SolveConfig,
    convergence_study,
    gaussian_target,
    mixture_target,
    quartic_well_target,
    relative_entropy,
    smooth_target,
    solve,
    truncate_density,
)
from mongelab.smoothing import _BLOCK_BYTES
from mongelab.solver_forward import ForwardWorkspace
from reference import condition_first_n, np_sum_mixture, one_pass_smoothed, ou_semigroup


@pytest.fixture(scope="module")
def line30():
    return GaussianSpace.tensor_hermite(1, 30)


@pytest.fixture(scope="module")
def heavy_tail():
    """e^{-f} = e^{0.3 x^2}: nu ~ N(0, 2.5), unbounded density ratio."""
    return ScalarTarget(
        1, "heavy", {},
        eval=lambda x: -0.3 * np.sum(x**2, axis=1),
        grad=lambda x: -0.6 * x,
        hess=lambda x: np.full((x.shape[0], 1, 1), -0.6),
    )


class TestSmoothTarget:
    def test_flat_unchanged(self, line30):
        flat = gaussian_target([0.0], 1.0)
        sm = smooth_target(line30, flat, 4)
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        np.testing.assert_allclose(sm.eval(xs), 0.0, atol=1e-12)
        np.testing.assert_allclose(sm.grad(xs), 0.0, atol=1e-12)

    def test_linear_tilt_closed_form(self, line30):
        # f = beta x: P_t e^{-f} = exp(-beta e^{-t} x + beta^2(1-e^{-2t})/2)
        beta = 0.7
        base = gaussian_target([0.0], 1.0)
        tilted = ScalarTarget(
            1, "linear", {},
            eval=lambda x: beta * x[:, 0],
            grad=lambda x: np.full_like(x, beta),
            hess=lambda x: np.zeros((x.shape[0], 1, 1)),
        )
        for n in (1, 4):
            sm = smooth_target(line30, tilted, n)
            xs = np.linspace(-2, 2, 9).reshape(-1, 1)
            np.testing.assert_allclose(
                sm.grad(xs)[:, 0], beta * math.exp(-1.0 / n), atol=1e-10
            )
            const = sm.eval(np.zeros((1, 1)))[0]
            assert const == pytest.approx(-beta**2 * (1 - math.exp(-2.0 / n)) / 2, abs=1e-10)

    def test_pointwise_convergence(self, line30, target_21):
        xs = np.linspace(-2, 2, 9).reshape(-1, 1)
        raw = target_21.eval(xs)
        gaps = []
        for n in (1, 2, 4, 8, 16):
            sm = smooth_target(line30, target_21, n)
            shift = sm.eval(np.zeros((1, 1)))[0] - target_21.eval(np.zeros((1, 1)))[0]
            gaps.append(np.max(np.abs(sm.eval(xs) - shift - raw)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_positivity_at_nodes(self, line30, target_21):
        sm = smooth_target(line30, target_21, 2)
        assert np.all(np.isfinite(sm.eval(line30.nodes)))

    def test_underflow_at_a_point_is_degenerate(self, line30):
        # e^{-f} = 0 beyond |x| = 50: far out every rule row underflows, which
        # raises the package's error and no numpy warning
        wall = ScalarTarget(
            1, "wall", {},
            eval=lambda x: np.where(np.abs(x[:, 0]) < 50, 0.0, np.inf),
            grad=lambda x: np.zeros_like(x),
            hess=lambda x: np.zeros((x.shape[0], 1, 1)),
        )
        sm = smooth_target(line30, wall, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateWeightError, match="smoothed density underflowed"):
                sm.eval(np.array([[0.0], [1e3]]))

    def test_log_concavity_preserved_gaussian_kinds(self, line30):
        # for N(m, s^2) targets, hess f_n >= min(hess f, 0) at the nodes
        for sigma, m in ((2.0, 1.0), (0.5, -0.5), (1.0, 1.0)):
            tgt = gaussian_target([m], sigma)
            floor = min(float(tgt.hess(np.zeros((1, 1)))[0, 0, 0]), 0.0)
            for n in (1, 4):
                sm = smooth_target(line30, tgt, n)
                h = sm.hess(line30.nodes)[:, 0, 0]
                assert np.all(h >= floor - 1e-8)

    def test_conditioning_block_2d(self, plane20):
        # n = 1 < d: the smoothed target depends on x1 only
        tgt = gaussian_target([0.5, -0.5], [1.5, 0.7])
        sm = smooth_target(plane20, tgt, 1)
        a = sm.eval(np.array([[0.7, 3.0]]))
        b = sm.eval(np.array([[0.7, -2.0]]))
        assert a[0] == pytest.approx(b[0], abs=1e-12)
        assert sm.grad(np.array([[0.7, 3.0]]))[0, 1] == 0.0


    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["quartic", "mixture"])
    def test_matches_semigroup_then_conditioning(self, plane20, kind, n):
        # e^{-f_n} = condition_first_n(ou_semigroup(e^{-f}, 1/n), min(n, d)),
        # each operator with its own quadrature; n = 1 < d conditions on x1
        pts = np.random.default_rng(n).normal(scale=1.5, size=(13, 2))
        if kind == "quartic":
            base = quartic_well_target(0.05, -0.1, dim=2)
        else:
            base = mixture_target([0.3, 0.7], [[-0.8, 0.4], [0.6, -0.2]],
                                  [[0.7, 1.2], [1.1, 0.8]], dim=2)
        sm = smooth_target(plane20, base, n)
        if kind == "quartic" and n < 2:
            # the one d-dimensional rule and the two-operator composition
            # differ by quadrature error (1.9e-6 here), so both are held to
            # the exact separable value P_t e^{-g}(x1) E[e^{-g}] on a 1d
            # level-200 rule: max relative error 3.8e-6 for smooth_target,
            # 5.7e-6 for the composition
            g = quartic_well_target(0.05, -0.1, dim=1)
            line200 = GaussianSpace.tensor_hermite(1, 200)

            def density(x):
                return np.exp(-g.eval(x))

            exact = (ou_semigroup(line200, density, 1.0)(pts[:, :1])
                     * np.sum(line200.weights * density(line200.nodes)))
            np.testing.assert_allclose(np.exp(-sm.eval(pts)), exact, rtol=1e-5)
            return
        density = ou_semigroup(plane20, lambda x: np.exp(-base.eval(x)), 1.0 / n)
        reference = condition_first_n(plane20, density, min(n, 2))
        np.testing.assert_allclose(np.exp(-sm.eval(pts)), reference(pts), rtol=1e-12)

    @pytest.mark.parametrize("level", [10, 20])
    def test_separable_quartic_reduces_to_1d(self, level):
        # f = g(x1) + g(x2) and n = 1: e^{-f_1}(x) = P_1 e^{-g}(x1) E[e^{-g}]
        # with the same rule's nodes on both sides, so f_1 is the 1d smoothed
        # g minus the rule's log E[e^{-g}], and depends on x1 only
        g = quartic_well_target(0.05, -0.1, dim=1)
        line = GaussianSpace.tensor_hermite(1, level)
        sm2 = smooth_target(GaussianSpace.tensor_hermite(2, level),
                            quartic_well_target(0.05, -0.1, dim=2), 1)
        sm1 = smooth_target(line, g, 1)
        pts = np.random.default_rng(level).normal(scale=1.5, size=(13, 2))
        log_mass = np.log(np.sum(line.weights * np.exp(-g.eval(line.nodes))))
        np.testing.assert_allclose(sm2.eval(pts), sm1.eval(pts[:, :1]) - log_mass,
                                   rtol=0, atol=1e-13)
        grad, hess = sm2.grad(pts), sm2.hess(pts)
        np.testing.assert_allclose(grad[:, 0], sm1.grad(pts[:, :1])[:, 0], rtol=1e-13)
        np.testing.assert_allclose(hess[:, 0, 0], sm1.hess(pts[:, :1])[:, 0, 0], rtol=1e-13)
        assert np.all(grad[:, 1] == 0.0)
        assert np.all(hess[:, 1, :] == 0.0) and np.all(hess[:, :, 1] == 0.0)


class TestTruncateDensity:
    def test_constant_density_unchanged(self, line80):
        flat = gaussian_target([0.0], 1.0)  # L = 1 lies inside [1/n, n]
        tr = truncate_density(line80, flat, 2)
        assert tr.params["normalizer"] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(tr.eval(line80.nodes), flat.eval(line80.nodes), atol=1e-12)

    def test_gaussian_normalizer_value(self, line80, target_21):
        # mass beyond L > 2n is substantial for N(1,4); c_n = 1/E_nu[theta] > 1
        tr = truncate_density(line80, target_21, 2)
        # any cutoff vanishing outside [1/4, 4] removes the 32% of nu-mass
        # with L > 4, so c_n >= 1.47; the implemented C2 cutoff gives ~1.78
        assert tr.params["normalizer"] > 1.47
        assert tr.params["normalizer"] == pytest.approx(1.77995, abs=1e-3)

    def test_heavy_tail_mass_gap_decreases(self, line80, heavy_tail):
        gaps = [
            truncate_density(line80, heavy_tail, n).params["mass_gap"]
            for n in (2, 4, 8, 16, 32)
        ]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[0] > 0.05

    def test_density_stays_positive(self, line80, heavy_tail):
        tr = truncate_density(line80, heavy_tail, 2)
        assert np.all(np.isfinite(tr.eval(line80.nodes)))

    def test_derivatives_consistent(self, line80, target_21):
        tr = truncate_density(line80, target_21, 2)
        pts = np.linspace(-2.5, 2.5, 11).reshape(-1, 1)
        h = 1e-6
        fd = (tr.eval(pts + h) - tr.eval(pts - h)) / (2 * h)
        np.testing.assert_allclose(fd, tr.grad(pts)[:, 0], rtol=1e-5, atol=1e-7)


def counting(target):
    """The target with its eval wrapped to record the row count of every call."""
    calls = []

    def counted_eval(x):
        calls.append(len(x))
        return target.eval(x)

    return replace(target, eval=counted_eval), calls


@pytest.fixture(scope="module")
def plane10():
    return GaussianSpace.tensor_hermite(2, 10)


class TestValueAndGrad:
    """value_and_grad(x) is (eval(x), grad(x)) bit for bit, in one target evaluation."""

    @staticmethod
    def assert_fused_exact(target, pts):
        vals, grads = target.value_and_grad(pts)
        assert np.array_equal(vals, target.eval(pts))
        assert np.array_equal(grads, target.grad(pts))

    @pytest.mark.parametrize("n", [1, 2])  # n = 1 < d conditions on x1 only
    def test_smoothed_2d(self, plane10, n):
        sm = smooth_target(plane10, quartic_well_target(0.05, -0.1, dim=2), n)
        pts = np.random.default_rng(n).normal(scale=1.5, size=(13, 2))
        self.assert_fused_exact(sm, pts)

    def test_truncated(self, line80, heavy_tail):
        tr = truncate_density(line80, heavy_tail, 2)
        pts = np.linspace(-4.0, 4.0, 41).reshape(-1, 1)  # crosses both cutoff ramps
        assert tr.fused is not None
        self.assert_fused_exact(tr, pts)

    def test_shifted_smoothed_adds_offset_to_value_only(self, line30, target_21):
        sm = smooth_target(line30, target_21, 2)
        shifted = sm.shifted(0.37)
        pts = np.linspace(-3.0, 3.0, 13).reshape(-1, 1)
        self.assert_fused_exact(shifted, pts)
        vals, grads = shifted.value_and_grad(pts)
        assert np.array_equal(vals, sm.eval(pts) + 0.37)
        assert np.array_equal(grads, sm.grad(pts))

    def test_base_target_falls_back_to_two_calls(self):
        quartic = quartic_well_target(0.03, 0.1, dim=2)
        assert quartic.fused is None
        self.assert_fused_exact(quartic, np.random.default_rng(0).normal(size=(9, 2)))

    def test_forward_gradient_evaluates_base_target_once(self, plane10):
        base, calls = counting(quartic_well_target(0.05, 0.0, dim=2))
        ws = ForwardWorkspace(plane10, smooth_target(plane10, base, 1), HermiteBasis(2, 2))
        calls.clear()
        ws.objective_and_gradient(np.zeros(ws.basis.size))
        # each of the 100 nodes x 100 rows of the one 2d rule evaluated once,
        # in blocks whose (rows, 2) arguments take at most _BLOCK_BYTES
        assert sum(calls) == 10000 and max(calls) * 2 * 8 <= _BLOCK_BYTES

    def test_relative_entropy_evaluates_f_once(self, line30, target_21):
        target, calls = counting(target_21)
        relative_entropy(line30, target)
        assert calls == [line30.nodes.shape[0]]

    def test_solve_evaluates_f_on_the_nodes_once(self, line30, target_21):
        # with a fused evaluator the solver's own trial points bypass eval,
        # so eval sees only the entropy / normalizer pass over the nodes
        fused = replace(target_21, fused=lambda x: (target_21.eval(x), target_21.grad(x)))
        target, calls = counting(fused)
        assert solve(line30, target, SolveConfig(degree=2)).converged
        assert calls == [line30.nodes.shape[0]]

    def test_solve_rejects_non_finite_f(self, line30):
        bad = ScalarTarget(
            1, "bad", {},
            eval=lambda x: np.where(x[:, 0] > 2.0, np.nan, 0.0),
            grad=lambda x: np.zeros_like(x),
            hess=lambda x: np.zeros((x.shape[0], 1, 1)),
        )
        with pytest.raises(NonFiniteValueError, match="target log-density not finite"):
            solve(line30, bad, SolveConfig(degree=2))


class TestBlocks:
    """smooth_target's blocks, (rows, d) rule arguments of at most
    _BLOCK_BYTES each, give the bits of one log-sum-exp over all the points."""

    SIZES = {"empty": lambda b: 0, "1": lambda b: 1, "B-1": lambda b: b - 1, "B": lambda b: b,
             "B+1": lambda b: b + 1, "2B+1": lambda b: 2 * b + 1, "144": lambda b: 144}

    # d = 1 keeps its one coordinate; d = 2 with n = 1 conditions on x1 only
    @pytest.mark.parametrize("d, level, n", [(1, 40, 3), (2, 12, 1), (2, 12, 2)])
    @pytest.mark.parametrize("size", SIZES)
    def test_equals_one_pass(self, d, level, n, size):
        space = GaussianSpace.tensor_hermite(d, level)
        base = quartic_well_target(0.05, -0.1, dim=d)
        sm = smooth_target(space, base, n)
        f, grad, hess = one_pass_smoothed(space, base, n)
        m = self.SIZES[size](max(1, _BLOCK_BYTES // (8 * d * space.nodes.shape[0])))
        pts = np.random.default_rng(m).normal(scale=1.5, size=(m, d))
        vals, grads = sm.value_and_grad(pts)
        assert np.array_equal(vals, f(pts))
        assert np.array_equal(grads, grad(pts))
        assert np.array_equal(sm.eval(pts), vals)
        assert np.array_equal(sm.grad(pts), grads)
        assert np.array_equal(sm.hess(pts), hess(pts))

    def test_block_holds_at_most_rule_rows(self, plane10):
        base, calls = counting(quartic_well_target(0.05, 0.0, dim=2))
        sm = smooth_target(plane10, base, 1)
        calls.clear()
        sm.value_and_grad(np.zeros((250, 2)))
        # 100 rule rows of 2 float64 per point: full blocks of
        # _BLOCK_BYTES // 1600 points, then the rest
        block = _BLOCK_BYTES // (100 * 2 * 8)
        full, rest = divmod(250, block)
        assert calls == [100 * block] * full + [100 * rest] * (rest > 0)


def np_sum_quartic(a, b):
    """Quartic-well f summed over coordinates by np.sum."""
    def f(x):
        p2 = x * x
        return np.sum(p2 * (a * p2 + b), axis=1)
    return f


def broadcast_smoothed(space, n, f, grad, hess, pts):
    """smooth_target's (f_n, grad f_n, hess f_n) with the rule arguments built by broadcasting."""
    d = space.dim
    a = float(np.exp(-1.0 / n))
    b = float(np.sqrt(1.0 - a * a))
    lead = np.arange(d) < min(n, d)
    ca, cb = np.where(lead, a, 0.0), np.where(lead, b, 1.0)
    args = ca * pts[:, None, :] + cb * space.nodes[None]
    m, j, _ = args.shape
    flat = args.reshape(-1, d)
    u = -f(flat).reshape(m, j) + np.log(space.weights)[None, :]
    shift = u.max(axis=1, keepdims=True)
    r = np.exp(u - shift)
    total = r.sum(axis=1, keepdims=True)
    r = r / total
    gf = grad(flat).reshape(args.shape)
    hf = hess(flat).reshape(m, j, d, d)
    mean_g = np.einsum("nj,njd->nd", r, gf)
    h = np.outer(ca, ca) * (
        np.einsum("nj,njde->nde", r, hf)
        - np.einsum("nj,njd,nje->nde", r, gf, gf)
        + np.einsum("nd,ne->nde", mean_g, mean_g)
    )
    return -(shift[:, 0] + np.log(total[:, 0])), ca * mean_g, h


class TestLongAxisArithmetic:
    """Long-axis rule arguments and coordinate sums leave every bit of f_n as it was."""

    MIXTURE = ([0.4, 0.6], [[-0.8, 0.3], [0.9, -0.2]], [[0.8, 1.1], [1.2, 0.9]])

    @pytest.fixture(scope="class")
    def plane12(self):
        return GaussianSpace.tensor_hermite(2, 12)

    @pytest.mark.parametrize("base", ["quartic", "mixture"])
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_equals_broadcast_reference(self, plane12, base, n):
        if base == "quartic":
            target = quartic_well_target(0.03, -0.1, dim=2)
            ref = (np_sum_quartic(0.03, -0.1), target.grad, target.hess)
        else:
            target = mixture_target(*self.MIXTURE, dim=2)
            ref = np_sum_mixture(*self.MIXTURE)
        sm = smooth_target(plane12, target, n)
        pts = np.vstack([plane12.nodes, np.random.default_rng(n).normal(scale=1.5, size=(9, 2))])
        f_ref, g_ref, h_ref = broadcast_smoothed(plane12, n, *ref, pts)
        assert np.array_equal(sm.eval(pts), f_ref)
        assert np.array_equal(sm.grad(pts), g_ref)
        vals, grads = sm.value_and_grad(pts)
        assert np.array_equal(vals, f_ref) and np.array_equal(grads, g_ref)
        assert np.array_equal(sm.hess(pts), h_ref)


class TestConvergenceStudy:
    def test_ou_gaussian_decreasing(self):
        space = GaussianSpace.tensor_hermite(1, 40)
        tgt = gaussian_target([0.3], 1.3)
        table = convergence_study(space, tgt, "ou", [1, 2, 4, 8, 16, 32, 64],
                                  SolveConfig(degree=4))
        errs = table.grad_errors()
        assert len(errs) == 7
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 1e-2
        # both psi comparison columns present for the OU scheme
        assert all(np.isfinite(r.psi_err_smoothed) for r in table.rows)
        # w2 column converges monotonically (within noise) to the raw value
        w2 = [r.w2sq for r in table.rows]
        raw = 0.09 + 0.09
        assert all(b >= a - 1e-3 for a, b in zip(w2, w2[1:]))
        assert abs(w2[-1] - raw) < abs(w2[0] - raw)

    def test_flat_all_rows_zero(self, line30):
        flat = gaussian_target([0.0], 1.0)
        table = convergence_study(line30, flat, "ou", [1, 2], SolveConfig(degree=2))
        for r in table.rows:
            assert r.grad_phi_err <= 1e-10
            assert r.w2sq <= 1e-16

    def test_truncation_cauchy(self, line30):
        tgt = quartic_well_target(0.05, 0.0)
        table = convergence_study(line30, tgt, "truncation", [2, 4, 6, 8, 12],
                                  SolveConfig(degree=6, max_iters=3000))
        errs = table.grad_errors()
        assert len(errs) == 5
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # consecutive-solution distances bounded by the error drops
        assert errs[-1] <= 2 * errs[-2]

    def test_finest_reference_mode(self, line30):
        tgt = quartic_well_target(0.05, 0.0)
        table = convergence_study(line30, tgt, "truncation", [4, 8, 12],
                                  SolveConfig(degree=6, max_iters=3000),
                                  reference="finest")
        assert table.reference == "finest(n=12)"
        assert len(table.rows) == 2
        errs = table.grad_errors()
        assert errs[-1] < errs[0]

    @pytest.mark.parametrize("degree, reference", [(10, "raw"), (10, "finest"), (6, "raw")])
    def test_underdetermined_dual_fit_leaves_psi_columns_nan(self, line30, degree, reference):
        # the truncated quartic's nu-mass sits on 10 of 30 nodes for n = 6 and
        # n = 12: too few for the 11 unknowns of a degree-10 fit, enough for 7
        tgt = quartic_well_target(0.05, 0.0)
        table = convergence_study(line30, tgt, "truncation", [6, 12],
                                  SolveConfig(degree=degree, max_iters=3000),
                                  reference=reference)
        assert all(r.status == "ok" and np.isfinite(r.grad_phi_err) for r in table.rows)
        psi = [r.psi_err for r in table.rows]
        assert np.all(np.isnan(psi)) if degree == 10 else np.all(np.isfinite(psi))

    def test_failed_row_flagged_study_continues(self, line30, monkeypatch):
        import mongelab.smoothing as sm

        tgt = gaussian_target([0.3], 1.3)
        real_solve = sm.solve
        def flaky(space, target, config, initial=None):
            if target.kind.startswith("ou-smoothed") and target.params["n"] == 2:
                raise DegenerateWeightError("injected fault")
            return real_solve(space, target, config, initial=initial)

        monkeypatch.setattr(sm, "solve", flaky)
        table = convergence_study(line30, tgt, "ou", [1, 2, 4], SolveConfig(degree=2))
        statuses = [r.status for r in table.rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("failed")
        assert statuses[2] == "ok"

    def test_csv_header(self, line30):
        flat = gaussian_target([0.0], 1.0)
        table = convergence_study(line30, flat, "ou", [1], SolveConfig(degree=2))
        lines = table.to_csv().splitlines()
        assert lines[0] == "n,grad_phi_err,psi_err,psi_err_smoothed,w2sq,status"
        assert len(lines) == 2
