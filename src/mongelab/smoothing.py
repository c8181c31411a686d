"""Target regularization schemes and their convergence studies.

OU scheme:       e^{-f_n} = E[P_{1/n} e^{-f} | first min(n, d) coordinates],
                 one d-dimensional Mehler rule for both operators,
                 derivatives taken by differentiating that quadrature.
Truncation:      density scaled by a smooth cutoff theta_n(L) of the ratio
                 L = e^{-f}/c, equal to 1 on [1/n, n] and numerically
                 vanishing outside [1/(2n), 2n].

A convergence study re-solves the transport problem for each n and tracks

    n, |grad phi_n - grad phi|_{L2(mu)}, |psi_n - psi|_{L1(nu)},
    |Q_{1/n} psi_n - psi|_{L1(nu)}, E[|grad phi_n|^2]

against a reference solution (raw target, or finest n when the raw
target is not solvable).  Potentials are compared after centering under
nu, since transport potentials are defined up to additive constants.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateWeightError, MongelabError
from .gaussian import GaussianSpace, log_sum_exp, nu_weights, shifted_nu_weights
from .hermite import as_points
from .solver_forward import SolveConfig, solve
from .solver_backward import fit_dual
from .targets import ScalarTarget, check_consistency

_RAMP_EDGE = 40.0      # theta at the outer band edge is e^{-40} ~ 4e-18
_RAMP_CAP = 4000.0     # penalty plateau far outside the band
_RAMP_WIDTH = float(np.log(2.0))
# Bytes of one (rows, d) float64 temporary in a block of the smoothed target's
# log-sum-exp.  96 KiB stays under glibc's default 128 KiB mmap and trim
# thresholds: 6144 rule rows at d = 2 (42 points of a level-12 rule, J = 144),
# 4096 at d = 3.  Without scipy loaded (its import happens to raise those
# thresholds), on a 2-vCPU VM:
# - the seed-0 study-ou-2d took 5,170-5,836 minor page faults per operation
#   in blocks of 8192 rows, about 100 per fused call on its 144 nodes (50
#   calls an operation), and 0-14 in blocks of 6144 (six processes each);
#   5120, 4096 and 3072 rows also stay at 0-14;
# - a 3d OU study (level 7, J = 343, n = 1, 2, 4) took 34,750-48,330 faults
#   and 0.30-0.37 s per operation in blocks of 6144 rows, and 2-450 faults
#   and 0.22-0.28 s in blocks of 4096 (five processes each).
# Block size does not move bits.
_BLOCK_BYTES = 96 * 1024


def smooth_target(space: GaussianSpace, target: ScalarTarget, n: int) -> ScalarTarget:
    """OU-regularized target: e^{-f_n} = E[P_{1/n} e^{-f} | V_{min(n,d)}].

    With a = e^{-1/n} and b = sqrt(1 - a^2), the trailing a z + b y is
    standard normal under mu, so one d-dimensional rule Y gives
    E[P_{1/n} g | x_lead] = E_Y[g(a x_lead + b Y_lead, Y_trail)].  f_n and
    its derivatives come from one log-sum-exp over that rule, so grad/hess
    are exact derivatives of the evaluated f_n; value_and_grad shares that
    one log-sum-exp between f_n and grad f_n.  The rule arguments are built
    along the long axis: ca x repeated J times per point, plus the row cb Y
    (fixed per target) added over the points, which gives the same bits as
    broadcasting ca x[:, None] + cb Y[None].

    Points go through in blocks of max(1, _BLOCK_BYTES // (8 d J)), each
    block's results written into preallocated outputs, so the temporaries
    stay small however many points are asked for.  Every row is still the
    base target's once, and the bits equal one log-sum-exp over all the
    points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = space.dim
    keep = min(n, d)
    t = 1.0 / n
    a = float(np.exp(-t))
    b = float(np.sqrt(1.0 - a * a))

    y_rule = space.subspace(d)
    n_rule = y_rule.nodes.shape[0]
    log_omega = np.log(y_rule.weights)
    # args = ca x + cb y: trailing coordinates come from the rule alone, so
    # the chain rule through ca zeroes them in grad and hess
    lead = np.arange(d) < keep
    ca = np.where(lead, a, 0.0)
    cb = np.where(lead, b, 1.0)
    y_row = (cb * y_rule.nodes).reshape(1, -1)

    def _args(pts):
        m = pts.shape[0]
        args = np.repeat(ca * pts, n_rule, axis=0).reshape(m, n_rule * d)
        args += y_row
        return args.reshape(m, n_rule, d)

    block = max(1, _BLOCK_BYTES // (8 * d * n_rule))

    def _log_mix(pts):
        args = _args(pts)
        m, j, _ = args.shape
        u = -np.asarray(target.eval(args.reshape(-1, d))).reshape(m, j) + log_omega[None, :]
        r, log_s = log_sum_exp(u)
        if not np.all(np.isfinite(log_s)):
            raise DegenerateWeightError("smoothed density underflowed at a point")
        return args, r, log_s

    def _value(args, r, log_s):
        return -log_s

    def _grad(args, r, log_s):
        gf = np.asarray(target.grad(args.reshape(-1, d))).reshape(args.shape)
        return ca * np.einsum("nj,njd->nd", r, gf)

    def _hess(args, r, log_s):
        flat = args.reshape(-1, d)
        gf = np.asarray(target.grad(flat)).reshape(args.shape)
        hf = np.asarray(target.hess(flat)).reshape(args.shape[:2] + (d, d))
        mean_g = np.einsum("nj,njd->nd", r, gf)
        return np.outer(ca, ca) * (
            np.einsum("nj,njde->nde", r, hf)
            - np.einsum("nj,njd,nje->nde", r, gf, gf)
            + np.einsum("nd,ne->nde", mean_g, mean_g)
        )

    def _blocked(x, *parts):
        """Each part, a (function of one block's log-sum-exp, per-point
        shape) pair, evaluated at x one block of points at a time."""
        pts = as_points(x, d)
        m = pts.shape[0]
        outs = [np.empty((m,) + shape) for _, shape in parts]
        for lo in range(0, m, block):
            mix = _log_mix(pts[lo:lo + block])
            for out, (part, _) in zip(outs, parts):
                out[lo:lo + block] = part(*mix)
        return outs

    value, gradient, hessian = (_value, ()), (_grad, (d,)), (_hess, (d, d))

    def f(x):
        return _blocked(x, value)[0]

    def grad(x):
        return _blocked(x, gradient)[0]

    def value_and_grad(x):
        return tuple(_blocked(x, value, gradient))

    def hess(x):
        return _blocked(x, hessian)[0]

    smoothed = ScalarTarget(
        d,
        f"ou-smoothed({target.kind})",
        {"n": n, "base": target.params},
        f,
        grad,
        hess,
        value_and_grad,
    )
    check_consistency(smoothed)
    return smoothed


def _ramp(s: np.ndarray):
    """C2 capped cubic hinge: 0 on s <= 0, ~_RAMP_EDGE one band-width out.

    rho = C tanh(q / C) with q the cubic hinge reaching _RAMP_EDGE at
    s = _RAMP_WIDTH, plateauing at C = _RAMP_CAP far outside the band:
    the cutoff density is ~e^{-40} at the outer edge (numerically
    vanishing) while the penalty's slope stays shallow enough for the
    solver to traverse and saturates instead of dominating nodes that
    carry no mass.  Returns (rho, rho', rho'').
    """
    h = np.maximum(s, 0.0)
    cap = _RAMP_CAP
    scale = _RAMP_EDGE / _RAMP_WIDTH**3
    q = scale * h**3
    q1 = 3 * scale * h**2
    q2 = 6 * scale * h
    u = np.tanh(q / cap)
    sech2 = 1.0 - u**2
    rho = cap * u
    rho1 = sech2 * q1
    rho2 = sech2 * q2 - (2.0 / cap) * sech2 * u * q1**2
    return rho, rho1, rho2


def truncate_density(space: GaussianSpace, target: ScalarTarget, n: int) -> ScalarTarget:
    """Density L theta_n(L) (renormalized), theta_n a C2 cutoff of L = e^{-f}/c.

    theta_n = exp(-rho(log L)) with a cubic-hinge rho: exactly 1 on
    [1/n, n], about e^{-600} at the edges 1/(2n) and 2n.  The resulting
    f_n = f + rho stays finite, so truncated targets remain solvable.
    Params record the normalizer c_n = 1/E_nu[theta_n(L)] and the
    truncated mass gap 1 - E_nu[theta_n(L)].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = space.dim
    fvals, w, log_c = shifted_nu_weights(space, target)  # the one evaluation of f on the nodes
    edge = float(np.log(n))

    def _penalty(s):
        up_v, up_d1, up_d2 = _ramp(s - edge)
        dn_v, dn_d1, dn_d2 = _ramp(-s - edge)
        return up_v + dn_v, up_d1 - dn_d1, up_d2 + dn_d2

    def _s(fvals):
        return -np.asarray(fvals).reshape(-1) - log_c

    def f(x):
        fvals = target.eval(as_points(x, d))
        v, _, _ = _penalty(_s(fvals))
        return fvals + v

    def grad(x):
        pts = as_points(x, d)
        _, p1, _ = _penalty(_s(target.eval(pts)))
        return (1.0 - p1)[:, None] * target.grad(pts)

    def value_and_grad(x):
        pts = as_points(x, d)
        fvals = target.eval(pts)
        v, p1, _ = _penalty(_s(fvals))
        return fvals + v, (1.0 - p1)[:, None] * target.grad(pts)

    def hess(x):
        pts = as_points(x, d)
        _, p1, p2 = _penalty(_s(target.eval(pts)))
        gf = target.grad(pts)
        return (1.0 - p1)[:, None, None] * target.hess(pts) + p2[:, None, None] * np.einsum(
            "nd,ne->nde", gf, gf
        )

    truncated = ScalarTarget(
        d,
        f"truncated({target.kind})",
        {"n": n, "base": target.params},
        f,
        grad,
        hess,
        value_and_grad,
    )
    v, _, _ = _penalty(_s(fvals))
    theta_mass = float(np.sum(w * np.exp(-v)))
    if theta_mass < 1e-300:
        raise DegenerateWeightError("truncation removed essentially all mass")
    truncated.params["normalizer"] = 1.0 / theta_mass
    truncated.params["mass_gap"] = 1.0 - theta_mass
    check_consistency(truncated)
    return truncated


@dataclass
class StudyRow:
    n: int
    grad_phi_err: float
    psi_err: float
    psi_err_smoothed: float
    w2sq: float
    status: str = "ok"


@dataclass
class StudyTable:
    scheme: str
    reference: str
    rows: list = field(default_factory=list)

    HEADER = "n,grad_phi_err,psi_err,psi_err_smoothed,w2sq,status"

    def to_csv(self) -> str:
        lines = [self.HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.grad_phi_err!r},{r.psi_err!r},{r.psi_err_smoothed!r},"
                f"{r.w2sq!r},{r.status}"
            )
        return "\n".join(lines) + "\n"


def convergence_study(space: GaussianSpace, target: ScalarTarget, scheme: str,
                      n_list, config: SolveConfig,
                      reference: str = "raw") -> StudyTable:
    """Solve the regularized problems along n_list and tabulate errors.

    scheme: "ou" or "truncation"; reference: "raw" (solve the raw target)
    or "finest" (solve at max(n_list) and compare the remaining rows to it).
    Rows whose solve fails are flagged and the study continues.  A dual
    whose fit is underdetermined (fewer nu-mass nodes than unknowns, see
    fit_dual) leaves the psi columns NaN that depend on it.
    """
    if scheme not in ("ou", "truncation"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if reference not in ("raw", "finest"):
        raise ValueError(f"unknown reference {reference!r}")
    n_list = sorted(int(n) for n in n_list)
    if not n_list:
        raise ValueError("n_list must be nonempty")

    def regularize(n):
        if scheme == "ou":
            return smooth_target(space, target, n)
        return truncate_density(space, target, n)

    def solve_pair(tgt, warm=None):
        res = solve(space, tgt, config, initial=warm)
        if not res.converged:
            raise MongelabError("solver did not converge")
        try:
            return res, fit_dual(space, res.nu_weights, res.phi)
        except DegenerateWeightError:
            return res, None

    # rows warm-start from the reference: regularized targets are small
    # perturbations of it, and cold starts can stall on cutoff ramps
    if reference == "raw":
        ref_res, ref_dual = solve_pair(target)
        ref_label = "raw"
        row_ns = n_list
        w_nu = ref_res.nu_weights  # the raw target's nu-weights, from its solve
    else:
        # the raw solution, when obtainable, warms the finest solve too
        try:
            raw_phi = solve(space, target, config).phi
        except MongelabError:
            raw_phi = None
        ref_res, ref_dual = solve_pair(regularize(n_list[-1]), warm=raw_phi)
        ref_label = f"finest(n={n_list[-1]})"
        row_ns = n_list[:-1]
        w_nu = nu_weights(space, target)

    def centered_psi(dual, t=0.0):
        """Q_t psi (Q_0 psi = psi) at the nodes, centered under nu."""
        vals = dual.as_field().semigroup(t).eval(space.nodes) + dual.fit_offset
        return vals - np.sum(w_nu * vals)

    ref_grad = ref_res.phi.grad(space.nodes)
    ref_psi = None if ref_dual is None else centered_psi(ref_dual)

    table = StudyTable(scheme=scheme, reference=ref_label)
    for n in sorted(row_ns, reverse=True):
        try:
            tgt_n = regularize(n)
            res_n, dual_n = solve_pair(tgt_n, warm=ref_res.phi)
            g = res_n.phi.grad(space.nodes)
            grad_err = float(np.sqrt(np.sum(space.weights * np.sum((g - ref_grad) ** 2, axis=1))))
            psi_err = psi_err_sm = float("nan")
            if ref_psi is not None and dual_n is not None:
                psi_err = float(np.sum(w_nu * np.abs(centered_psi(dual_n) - ref_psi)))
                if scheme == "ou":
                    sm = centered_psi(dual_n, 1.0 / n)
                    psi_err_sm = float(np.sum(w_nu * np.abs(sm - ref_psi)))
            table.rows.append(StudyRow(n, grad_err, psi_err, psi_err_sm,
                                       res_n.wasserstein2_sq))
        except MongelabError as exc:
            table.rows.append(StudyRow(n, float("nan"), float("nan"), float("nan"),
                                       float("nan"), status=f"failed: {exc}"))
    table.rows.sort(key=lambda r: r.n)
    return table
