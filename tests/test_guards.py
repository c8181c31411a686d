"""Each input guard of a public function or constructor, and each
computation error that no CLI config provokes, raised once.

The CLI validates a config before it builds anything, so no end-to-end run
reaches these lines; the reach test's ALLOWED table (test_surface.py) names
the tests here for those outside the functions perfbench's tracer pins.
"""
import numpy as np
import pytest

from mongelab import (
    DegenerateWeightError,
    GaussianSpace,
    HermiteBasis,
    NonFiniteValueError,
    PotentialField,
    ScalarTarget,
    SingularJacobianError,
    SolveConfig,
    conjugate,
    convergence_study,
    expectation,
    gaussian_target,
    multi_indices,
    nu_expectation,
    objective,
    smooth_target,
    solve,
    truncate_density,
)
from mongelab.hermite import as_points
from mongelab.oracle1d import quantile_table
from mongelab.solver_forward import ForwardWorkspace
from mongelab.targets import check_consistency

LINE = GaussianSpace.tensor_hermite(1, 20)  # outermost node 7.62
N14 = gaussian_target([1.0], 2.0)
# nu = N(0, 4) with no mass beyond |x| = 8: f is finite on every node of
# LINE, but not where its map T = 2x, from phi = He_2 / 2, takes the outer
# nodes (2 x 7.62 > 8)
CUT = ScalarTarget(1, "cut", {},
                   lambda x: np.where(np.abs(x[:, 0]) <= 8.0, -0.375 * x[:, 0] ** 2, np.inf),
                   lambda x: -0.75 * x, lambda x: np.full((x.shape[0], 1, 1), -0.75))
DOUBLING = PotentialField(HermiteBasis(1, 2), [0.0, 0.5])


def _asymmetric_hessian():
    hess = np.array([[0.0, 1.0], [0.0, 0.0]])
    return ScalarTarget(2, "asymmetric", {}, lambda x: np.zeros(x.shape[0]), np.zeros_like,
                        lambda x: np.broadcast_to(hess, (x.shape[0], 2, 2)))


# (call, error, message)
RAISES = {
    # a rule's arrays and arguments
    "space-shape": (lambda: GaussianSpace(1, np.zeros(2), np.full(2, 0.5), "flat"),
                    ValueError, "nodes must be"),
    "space-length": (lambda: GaussianSpace(1, np.zeros((3, 1)), np.full(2, 0.5), "short"),
                     ValueError, "matching length"),
    "space-negative": (lambda: GaussianSpace(1, np.zeros((2, 1)), np.array([1.5, -0.5]), "neg"),
                       ValueError, "nonnegative"),
    "space-sum": (lambda: GaussianSpace(1, np.zeros((2, 1)), np.array([0.5, 0.4]), "sum"),
                  ValueError, "sum to 1"),
    "tensor-dim": (lambda: GaussianSpace.tensor_hermite(0, 5), ValueError, "dim must be >= 1"),
    "tensor-level": (lambda: GaussianSpace.tensor_hermite(1, 0), ValueError, "level must be >= 1"),
    "monte-carlo-dim": (lambda: GaussianSpace.monte_carlo(0, 5, 0), ValueError, "dim must be >= 1"),
    "monte-carlo-samples": (lambda: GaussianSpace.monte_carlo(1, 0, 0), ValueError,
                            "sample count must be >= 1"),
    # integrands and weights
    "integrand-count": (lambda: expectation(LINE, lambda x: np.ones(3)), ValueError,
                        "one value per node"),
    "weight-non-finite": (lambda: expectation(LINE, np.ones_like,
                                              weight=lambda x: np.full(x.shape[0], np.inf)),
                          NonFiniteValueError, "weight not finite"),
    "weight-negative": (lambda: expectation(LINE, lambda x: x[:, 0],
                                            weight=lambda x: -np.ones(x.shape[0])),
                        ValueError, "weight must be nonnegative"),
    "nu-integrand-non-finite": (lambda: nu_expectation(LINE, N14, np.full(20, np.nan)),
                                NonFiniteValueError, "integrand not finite"),
    # points, bases and potentials
    "points-dim": (lambda: as_points(np.zeros((3, 2)), 1), ValueError, "expected points"),
    "points-scalar": (lambda: as_points(0.5, 1), ValueError, "expected points"),
    "indices": (lambda: multi_indices(0, 2), ValueError, "dim and degree must be >= 1"),
    "coefficients": (lambda: PotentialField(HermiteBasis(1, 2), np.zeros(3)), ValueError,
                     "expected 2 coefficients"),
    "semigroup-time": (lambda: PotentialField(HermiteBasis(1, 2), np.zeros(2)).semigroup(-1.0),
                       ValueError, "t must be >= 0"),
    "dual-without-fit": (lambda: conjugate(PotentialField(HermiteBasis(1, 2), np.zeros(2)),
                                           LINE.nodes).as_field(),
                         ValueError, "no basis fit"),
    # targets and regularizations
    "hessian-symmetry": (lambda: check_consistency(_asymmetric_hessian()), ValueError,
                         "Hessian not symmetric"),
    "oracle-dim": (lambda: quantile_table(gaussian_target([0.0, 0.0], 1.0)), ValueError,
                   "requires a 1d target"),
    "smooth-n": (lambda: smooth_target(LINE, N14, 0), ValueError, "n must be >= 1"),
    "truncate-n": (lambda: truncate_density(LINE, N14, 0), ValueError, "n must be >= 1"),
    # every node's density ratio lies far outside [1/2, 2], so no mass is left
    "truncate-all-mass": (lambda: truncate_density(LINE, gaussian_target([3.0], 0.01), 1),
                          DegenerateWeightError, "removed essentially all mass"),
    "study-scheme": (lambda: convergence_study(LINE, N14, "heat", [1], SolveConfig(2)),
                     ValueError, "unknown scheme"),
    "study-reference": (lambda: convergence_study(LINE, N14, "ou", [1], SolveConfig(2),
                                                  reference="coarsest"),
                        ValueError, "unknown reference"),
    "study-n-list": (lambda: convergence_study(LINE, N14, "ou", [], SolveConfig(2)),
                     ValueError, "n_list must be nonempty"),
    # the forward solve
    "workspace-dim": (lambda: ForwardWorkspace(LINE, N14, HermiteBasis(2, 2)), ValueError,
                      "basis dimension"),
    "initial-degree": (lambda: solve(LINE, N14, SolveConfig(2),
                                     initial=PotentialField(HermiteBasis(1, 3), np.zeros(3))),
                       ValueError, "initial potential must match"),
    # phi = -He_2 / 2 makes I + hess phi = 0 at every node
    "objective-floor": (lambda: objective(LINE, N14, PotentialField(HermiteBasis(1, 2),
                                                                    [0.0, -0.5])),
                        SingularJacobianError, "eigenvalue floor"),
    # a start where f is not finite raises; a trial there is only rejected
    "transported-node": (lambda: solve(LINE, CUT, SolveConfig(2), initial=DOUBLING),
                         NonFiniteValueError, "target not finite at a transported node"),
    "objective-transported-node": (lambda: objective(LINE, CUT, DOUBLING), NonFiniteValueError,
                                   "target not finite at a transported node"),
}


@pytest.mark.parametrize("call, error, message", RAISES.values(), ids=RAISES)
def test_guard_raises(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_relative_entropy_at_the_float_limit_is_not_finite():
    # f = -max float on every node: the nu-weights are finite, but the sum of
    # w * -f overflows; numpy's overflow warning is silenced so that the
    # package's own error is what raises
    top = ScalarTarget(1, "top", {}, lambda x: np.full(x.shape[0], -np.finfo(float).max),
                       np.zeros_like, lambda x: np.zeros((x.shape[0], 1, 1)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError, match="relative entropy"):
        solve(LINE, top, SolveConfig(2))


def test_trial_past_the_support_is_rejected():
    # a line-search trial that moves a node past |x| = 8 is rejected like a
    # floor breach: the solve stops unconverged, every node inside the support
    res = solve(LINE, CUT, SolveConfig(2))
    assert not res.converged
    assert np.max(np.abs(LINE.nodes + res.phi.grad(LINE.nodes))) <= 8.0


def test_finest_study_without_a_raw_solve(monkeypatch):
    # the raw solve raises, so the finest OU solve starts cold
    starts = []

    def solve_smoothed_only(space, target, config, initial=None):
        starts.append(initial)
        if target is N14:
            raise NonFiniteValueError("injected fault")
        return solve(space, target, config, initial=initial)

    monkeypatch.setattr("mongelab.smoothing.solve", solve_smoothed_only)
    table = convergence_study(LINE, N14, "ou", [1, 2], SolveConfig(2), reference="finest")
    assert starts[1] is None
    assert table.reference == "finest(n=2)"
    assert [(row.n, row.status) for row in table.rows] == [(1, "ok")]
