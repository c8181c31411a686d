"""Numerical laboratory for Monge-Brenier transport potentials under a
standard Gaussian reference measure: Hermite-basis potentials, entropy
functionals, forward/backward variational solvers, and a battery of
identity and inequality diagnostics.
"""

from .errors import (
    ConfigError,
    DegenerateWeightError,
    MongelabError,
    NonFiniteValueError,
    NonIntegrableDensityError,
    NotApplicableError,
    SingularJacobianError,
    UnresolvedDensityError,
)
from .gaussian import (
    GaussianSpace,
    expectation,
    log_normalizer,
    nu_expectation,
    nu_weights,
)
from .hermite import HermiteBasis, multi_indices
from .potentials import (
    PotentialField,
    logdet2,
    pushforward_entropy,
    relative_entropy,
)
from .targets import (
    ScalarTarget,
    gaussian_target,
    mixture_target,
    normalized,
    quartic_well_target,
    tabulated_target_1d,
)
from .solver_forward import (
    SolveConfig,
    SolveResult,
    objective,
    solve,
    variational_gap,
    wasserstein_check,
)
from .solver_backward import (
    DualPotential,
    backward_el_residual,
    backward_objective,
    conjugate,
    fit_dual,
    inverse_check,
    young_gap,
)
from .diagnostics import (
    CheckThresholds,
    DiagnosticsReport,
    NodeTables,
    control_forward,
    div_second_moment_identity,
    dual_hessian_bound,
    forward_el_residual,
    forward_sobolev_bound,
    l2_ou_bound,
    quartic_ratio,
    run_standard_checks,
    trace_positivity,
    weighted_div_second_moment_identity,
)
from .smoothing import convergence_study, smooth_target, truncate_density
from .oracle1d import monotone_map, potential_from_map, wasserstein2_sq
from .reports import TOOL_VERSION as __version__

__all__ = [name for name in dir() if not name.startswith("_")]
