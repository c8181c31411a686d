"""Solve the Gaussian target grid and compare against closed forms.

For nu = N(m, s^2 I) the transport is exact in the degree-2 class:
grad phi = (s - 1) x + m, d2^2 = |m|^2 + d (s - 1)^2, and the optimum
value of the objective is -log E[e^{-f}].  This script prints the solver
errors over the (m, s) grid in dimensions 1 and 2.
"""
import math

import numpy as np

from mongelab import (
    GaussianSpace,
    PotentialField,
    SolveConfig,
    gaussian_target,
    solve,
    variational_gap,
    wasserstein_check,
)


def exact_phi(dim, sigma, m):
    coeffs = {}
    for k in range(dim):
        coeffs[tuple(1 if j == k else 0 for j in range(dim))] = m
        coeffs[tuple(2 if j == k else 0 for j in range(dim))] = (sigma - 1) / 2
    return PotentialField.from_coeff_dict(dim, 2, coeffs)


def main():
    print(f"{'dim':>3} {'m':>5} {'sigma':>5} {'grad L2 err':>12} {'w2 err':>10} "
          f"{'|gap|':>10} {'iters':>5}")
    for dim in (1, 2):
        space = GaussianSpace.tensor_hermite(dim, 60)
        for m in (0.0, 1.0, -1.0):
            for s in (0.5, 1.0, 2.0):
                target = gaussian_target([m] * dim, s, dim=dim)
                result = solve(space, target, SolveConfig(degree=2))
                diff = result.phi.grad(space.nodes) - exact_phi(dim, s, m).grad(space.nodes)
                l2 = math.sqrt(float(np.sum(space.weights * np.sum(diff**2, axis=1))))
                lhs, rhs = wasserstein_check(result, target)
                gap = abs(variational_gap(result))
                print(f"{dim:>3} {m:>5.1f} {s:>5.2f} {l2:>12.3e} {abs(lhs - rhs):>10.2e} "
                      f"{gap:>10.2e} {result.iterations:>5}")


if __name__ == "__main__":
    main()
