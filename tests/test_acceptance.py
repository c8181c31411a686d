"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The default experiment battery (gaussian grid, quartic wells,
2d mean-shift and diagonal-covariance targets) is solved once per session
and shared across criteria.
"""
import itertools
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
    div_second_moment_identity,
    expectation,
    forward_el_residual,
    gaussian_target,
    solve,
    trace_positivity,
    variational_gap,
    wasserstein_check,
)
from mongelab.cli import default_battery, main as cli_main, run_entry
from mongelab.diagnostics import CheckThresholds
from mongelab.solver_forward import ForwardWorkspace
from mongelab.hermite import HermiteBasis
from reference import (
    constant_field,
    divergence,
    gaussian_phi,
    grad_errors,
    gradient_field,
    quadratic_phi,
    quadratic_psi,
)

GAUSS_GRID = [(m, s) for m in (0.0, 1.0, -1.0) for s in (0.5, 1.0, 2.0)]


def report_line(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def battery_outcomes():
    """Default battery, solved once; list of run_entry outcome dicts."""
    thresholds = CheckThresholds()
    return [run_entry(entry, 0, thresholds) for entry in default_battery()]


def test_criterion_1_gaussian_exactness():
    worst_l2, worst_w2, worst_gap = 0.0, 0.0, 0.0
    for dim in (1, 2):
        space = GaussianSpace.tensor_hermite(dim, 60)
        for m, s in GAUSS_GRID:
            target = gaussian_target([m] * dim, s, dim=dim)
            result = solve(space, target, SolveConfig(degree=2))
            assert result.converged
            exact = gaussian_phi(dim, s, m)
            diff = result.phi.grad(space.nodes) - exact.grad(space.nodes)
            l2 = math.sqrt(float(np.sum(space.weights * np.sum(diff**2, axis=1))))
            assert l2 <= 1e-4
            lhs, rhs = wasserstein_check(result, target)
            w2_exact = dim * (m**2 + (s - 1) ** 2)
            assert rhs == pytest.approx(w2_exact, abs=1e-12)
            assert abs(lhs - w2_exact) <= 1e-6
            gap = variational_gap(result)
            assert abs(gap) <= 1e-6
            worst_l2 = max(worst_l2, l2)
            worst_w2 = max(worst_w2, abs(lhs - w2_exact))
            worst_gap = max(worst_gap, abs(gap))
    report_line(
        "criterion-1 gaussian exactness",
        f"max grad-L2 err {worst_l2:.2e} (tol 1e-4), max w2 err {worst_w2:.2e} (tol 1e-6), "
        f"max |gap| {worst_gap:.2e} (tol 1e-6)",
    )


def test_criterion_2_forward_el_identity(battery_outcomes):
    space = GaussianSpace.tensor_hermite(1, 80)
    worst_closed = 0.0
    for m, s in GAUSS_GRID:
        target = gaussian_target([m], s)
        residual = forward_el_residual(NodeTables(space, target, quadratic_phi(s, m)))
        assert residual <= 1e-8
        worst_closed = max(worst_closed, residual)
    worst_solved = 0.0
    for outcome in battery_outcomes:
        if outcome["metadata"]["target_kind"] != "quartic-well":
            continue
        rec = [r for r in outcome["report"].records if r.name == "el_forward"][0]
        assert rec.lhs <= 1e-3
        worst_solved = max(worst_solved, rec.lhs)
    report_line(
        "criterion-2 forward EL identity",
        f"closed-form max {worst_closed:.2e} (tol 1e-8), solved quartic max "
        f"{worst_solved:.2e} (tol 1e-3)",
    )


def test_criterion_3_backward_el_identity(battery_outcomes):
    space = GaussianSpace.tensor_hermite(1, 80)
    worst_closed = 0.0
    for m, s in GAUSS_GRID:
        target = gaussian_target([m], s)
        residual = backward_el_residual(NodeTables(space, target, dual=quadratic_psi(s, m)))
        assert residual <= 1e-8
        worst_closed = max(worst_closed, residual)
    worst_solved = 0.0
    for outcome in battery_outcomes:
        if outcome["metadata"]["target_kind"] != "quartic-well":
            continue
        rec = [r for r in outcome["report"].records if r.name == "el_backward"][0]
        assert rec.lhs <= 1e-3
        worst_solved = max(worst_solved, rec.lhs)
    report_line(
        "criterion-3 backward EL identity",
        f"closed-form max {worst_closed:.2e} (tol 1e-8), solved max "
        f"{worst_solved:.2e} (tol 1e-3)",
    )


def test_criterion_4_divergence_identities():
    space = GaussianSpace.tensor_hermite(1, 80)
    target = gaussian_target([1.0], 2.0)
    xi = constant_field([1.0])
    lhs, rhs = div_second_moment_identity(NodeTables(space, target),
                                          xi.value(space.nodes), xi.jacobian(space.nodes))
    assert lhs == pytest.approx(0.25, abs=1e-8)
    assert rhs == pytest.approx(0.25, abs=1e-8)
    worst = abs(lhs - rhs)
    for m, s in GAUSS_GRID:
        tgt = gaussian_target([m], s)
        for xi in (
            constant_field([1.0]),
            gradient_field(PotentialField.from_coeff_dict(1, 2, {(1,): 0.5, (2,): 0.2})),
            gradient_field(PotentialField.from_coeff_dict(1, 3, {(3,): 0.1})),
        ):
            lhs, rhs = div_second_moment_identity(NodeTables(space, tgt),
                                                  xi.value(space.nodes), xi.jacobian(space.nodes))
            assert abs(lhs - rhs) <= 1e-8
            worst = max(worst, abs(lhs - rhs))
    report_line(
        "criterion-4 divergence identities",
        f"worked pair (0.25, 0.25); max |lhs-rhs| {worst:.2e} (tol 1e-8)",
    )


def test_criterion_5_inequality_suite(battery_outcomes):
    # worked Gaussian instance values
    space = GaussianSpace.tensor_hermite(1, 80)
    target = gaussian_target([1.0], 2.0)
    from mongelab import control_forward, dual_hessian_bound, forward_sobolev_bound

    phi = quadratic_phi(2.0, 1.0)
    psi = quadratic_psi(2.0, 1.0)
    pairs = {
        "control_forward": control_forward(NodeTables(space, target, phi)),
        "dual_hessian_bound": dual_hessian_bound(NodeTables(space, target, phi, psi)),
        "forward_sobolev_bound": forward_sobolev_bound(NodeTables(space, target, phi))[:2],
    }
    assert pairs["control_forward"][0] == pytest.approx(0.25, abs=1e-5)
    assert pairs["control_forward"][1] == pytest.approx(10.5, abs=1e-4)
    assert pairs["dual_hessian_bound"][0] == pytest.approx(0.25, abs=1e-5)
    assert pairs["dual_hessian_bound"][1] == pytest.approx(10.5, abs=1e-4)
    assert pairs["forward_sobolev_bound"][0] == pytest.approx(0.25, abs=1e-5)
    assert pairs["forward_sobolev_bound"][1] == pytest.approx(30.0, abs=1e-4)

    min_slack = {}
    for outcome in battery_outcomes:
        for rec in outcome["report"].records:
            if rec.kind != "inequality" or rec.name == "trace_positivity":
                continue
            base = rec.name.split("(")[0]
            cur = min_slack.get(base)
            if cur is None or rec.slack < cur:
                min_slack[base] = rec.slack
    for base in ("control_forward", "dual_hessian_bound", "forward_sobolev_bound",
                 "l2_ou_bound"):
        assert base in min_slack
        assert min_slack[base] >= -1e-6
    report_line(
        "criterion-5 inequality suite",
        "worked (0.25, 10.5), (0.25, 10.5), (0.25, 30); battery min slacks "
        + ", ".join(f"{k}={v:.2e}" for k, v in sorted(min_slack.items()))
        + " (tol -1e-6)",
    )


def test_criterion_6_trace_positivity(battery_outcomes):
    worst = math.inf
    for outcome in battery_outcomes:
        rec = [r for r in outcome["report"].records if r.name == "trace_positivity"][0]
        worst = min(worst, rec.rhs)
    # direct sweep at 100 nodes x d directions on a degree-4 potential
    space = GaussianSpace.tensor_hermite(2, 14)
    phi = PotentialField.from_coeff_dict(
        2, 4, {(2, 1): 0.02, (1, 2): -0.015, (4, 0): 0.004, (0, 3): 0.01}
    )
    direct = trace_positivity(NodeTables(space, None, phi))
    worst = min(worst, direct)
    assert worst >= -1e-12
    report_line("criterion-6 trace positivity", f"battery+sweep min {worst:.2e} (tol -1e-12)")


def test_criterion_7_oracle_equivalence(battery_outcomes):
    worst = 0.0
    n_checked = 0
    references = {}
    for outcome in battery_outcomes:
        if outcome["metadata"]["dim"] != 1:
            continue
        rec = [r for r in outcome["report"].records if r.name == "oracle_map_agreement"][0]
        assert rec.lhs <= 1e-3
        worst = max(worst, rec.lhs)
        n_checked += 1
        # a gaussian's reference is its exact map, which test_oracle1d ties to the oracle
        references[rec.note] = references.get(rec.note, 0) + 1
    assert n_checked == 12  # 9 gaussians + 3 quartic wells
    assert references == {"sup|T_solver - T_exact| on (-3.0, 3.0)": 9,
                          "sup|T_solver - T_oracle| on (-3.0, 3.0)": 3}
    report_line(
        "criterion-7 oracle equivalence",
        f"{n_checked} 1d battery targets, max sup error {worst:.2e} (tol 1e-3)",
    )


def test_criterion_8_smoothing_convergence():
    from mongelab import convergence_study

    space = GaussianSpace.tensor_hermite(1, 40)
    target = gaussian_target([0.3], 1.3)
    table = convergence_study(space, target, "ou", [1, 2, 4, 8, 16, 32, 64],
                              SolveConfig(degree=4))
    errs = grad_errors(table)
    assert len(errs) == 7
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-2

    space_q = GaussianSpace.tensor_hermite(1, 30)
    quartic = __import__("mongelab").quartic_well_target(0.05, 0.0)
    trunc = convergence_study(space_q, quartic, "truncation", [2, 4, 6, 8, 12],
                              SolveConfig(degree=6, max_iters=3000))
    terrs = grad_errors(trunc)
    assert len(terrs) == 5
    assert all(b < a for a, b in zip(terrs, terrs[1:]))
    assert terrs[-1] <= 2 * terrs[-2]  # Cauchy-style decay at the finest rows
    report_line(
        "criterion-8 smoothing convergence",
        f"OU strictly decreasing, final {errs[-1]:.2e} (tol 1e-2); truncation "
        f"decreasing with finest {terrs[-1]:.2e} <= 2 x {terrs[-2]:.2e}",
    )


def test_criterion_9_infrastructure(tmp_path):
    # quadrature adjointness on polynomial pairs
    space = GaussianSpace.tensor_hermite(1, 40)
    worst_adj = 0.0
    for gc, xc in itertools.product((0.3, -0.8), (0.2, 0.7)):
        g_field = PotentialField.from_coeff_dict(1, 3, {(1,): gc, (3,): 0.1 * gc})
        xi = gradient_field(PotentialField.from_coeff_dict(1, 4, {(2,): xc, (4,): 0.05 * xc}))
        lhs = expectation(space, lambda x: np.einsum("ni,ni->n", g_field.grad(x), xi.value(x)))
        div = divergence(space, xi)
        rhs = expectation(space, lambda x: g_field.eval(x) * div(x))
        assert abs(lhs - rhs) <= 1e-10
        worst_adj = max(worst_adj, abs(lhs - rhs))

    # solver gradient vs finite differences at random feasible points
    target = gaussian_target([1.0], 2.0)
    ws = ForwardWorkspace(space, target, HermiteBasis(1, 2))
    rng = np.random.default_rng(0)
    worst_fd = 0.0
    for _ in range(10):
        coeffs = np.array([rng.uniform(-0.5, 0.5), rng.uniform(-0.2, 0.3)])
        _, grad, _ = ws.objective_and_gradient(coeffs)
        for a in range(2):
            h = 1e-6
            cp, cm = coeffs.copy(), coeffs.copy()
            cp[a] += h
            cm[a] -= h
            fd = (ws.objective_and_gradient(cp)[0] - ws.objective_and_gradient(cm)[0]) / (2 * h)
            rel = abs(fd - grad[a]) / max(abs(grad[a]), 1e-6)
            assert rel <= 1e-5
            worst_fd = max(worst_fd, rel)

    # byte-identical reports under a fixed seed
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dim": 1,
        "degree": 2,
        "quadrature": {"kind": "tensor-hermite", "level": 60},
        "target": {"kind": "gaussian", "mean": [1.0], "sigma": 2.0},
        "seed": 7,
    }), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    identical = (out1 / "solve_report.json").read_bytes() == (out2 / "solve_report.json").read_bytes()
    assert identical
    report_line(
        "criterion-9 infrastructure",
        f"adjointness max {worst_adj:.2e} (tol 1e-10), grad/FD max rel {worst_fd:.2e} "
        f"(tol 1e-5), reports byte-identical: {identical}",
    )
