import numpy as np
import pytest
from scipy.integrate import cumulative_simpson
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.special import ndtr

from mongelab import (
    NonIntegrableDensityError,
    ScalarTarget,
    UnresolvedDensityError,
    gaussian_target,
    mixture_target,
    monotone_map,
    potential_from_map,
    quartic_well_target,
    tabulated_target_1d,
    wasserstein2_sq,
)
import mongelab.oracle1d as oracle1d
from mongelab.cli import ORACLE_WINDOW, build_target, default_battery
from mongelab._cubics import evaluate, pchip
from mongelab.oracle1d import (
    GRID,
    _DENSITY_STEP,
    _cumulative_simpson,
    _invert_cubics,
    _lower_tail,
    _nu_density_table,
    quantile_table,
)
from reference import bisect_cubics, scipy_monotone_map


def scalar_reference_map(target):
    """T on GRID by one brentq call per point on the CDF/SF interpolants."""
    ys, dens = _nu_density_table(target)
    cdf = cumulative_simpson(dens, x=ys, initial=0.0)
    total = cdf[-1]
    cdf = cdf / total
    sf = cumulative_simpson(dens[::-1], x=-ys[::-1], initial=0.0)[::-1] / total
    cdf_interp = PchipInterpolator(ys, cdf)
    sf_interp = PchipInterpolator(ys, sf)

    def invert(table, interp, qi, increasing):
        if increasing:
            k = int(np.searchsorted(table, qi))
        else:
            k = len(table) - int(np.searchsorted(table[::-1], qi))
        k = min(max(k, 1), len(ys) - 1)
        sign = 1.0 if increasing else -1.0
        return brentq(lambda y: sign * float(interp(y) - qi), ys[k - 1], ys[k], xtol=1e-12)

    t = np.empty_like(GRID)
    for i, x in enumerate(GRID):
        if x <= 0:
            t[i] = invert(cdf, cdf_interp, float(np.clip(ndtr(x), cdf[1], cdf[-2])), True)
        else:
            t[i] = invert(sf, sf_interp, float(np.clip(ndtr(-x), sf[-2], sf[1])), False)
    return t


BATTERY_1D = [(e["name"], build_target(e["target"], 1))
              for e in default_battery() if e["dim"] == 1]
KNOTS = np.linspace(-5.0, 5.0, 41)
REFERENCE_TARGETS = [
    *(pytest.param(target, id=name) for name, target in BATTERY_1D),
    pytest.param(mixture_target([0.3, 0.7], [[-1.0], [1.5]], [[0.5], [0.8]]), id="mixture"),
    pytest.param(tabulated_target_1d(KNOTS, 0.05 * KNOTS**4 - 0.1 * KNOTS**2), id="tabulated-1d"),
]


class TestMonotoneMap:
    def test_identity_for_flat(self):
        m = monotone_map(gaussian_target([0.0], 1.0))
        np.testing.assert_allclose(m.t, m.x, atol=1e-9)

    def test_gaussian_quantile_identity(self):
        m = monotone_map(gaussian_target([1.0], 2.0))
        xs = np.linspace(-4, 4, 81)
        np.testing.assert_allclose(m(xs), 2 * xs + 1, atol=1e-8)

    def test_strictly_increasing_quartic(self):
        m = monotone_map(quartic_well_target(0.05, -0.2))
        assert np.all(np.diff(m.t) > 0)

    def test_pushforward_cdf_match(self):
        # F_nu(T(x)) = Phi(x) on the grid
        tgt = quartic_well_target(0.03, 0.1)
        m = monotone_map(tgt)
        ys, dens = _nu_density_table(tgt)
        cdf = _cumulative_simpson(dens, ys)
        f_at_t = np.interp(m.t, ys, cdf / cdf[-1])
        assert np.max(np.abs(f_at_t - ndtr(m.x))) <= 1e-6

    def test_battery_has_twelve_1d_targets(self):
        kinds = [target.kind for _, target in BATTERY_1D]
        assert kinds.count("gaussian") == 9 and kinds.count("quartic-well") == 3

    @pytest.mark.parametrize("name, target",
                             [(n, t) for n, t in BATTERY_1D if t.kind == "gaussian"])
    def test_battery_gaussians_match_exact_map(self, name, target):
        # the battery checks its gaussian solves against m + sigma x, so the
        # oracle's own agreement with that map is pinned here
        xs = np.linspace(-3.0, 3.0, 241)
        exact = target.params["mean"][0] + target.params["sigma"][0] * xs
        assert np.max(np.abs(monotone_map(target, xs).t - exact)) <= 1e-7

    @pytest.mark.parametrize("target", REFERENCE_TARGETS)
    def test_matches_scalar_reference(self, target):
        t_ref = scalar_reference_map(target)
        assert np.max(np.abs(monotone_map(target).t - t_ref)) <= 1e-10

    def test_gaussian_tails_relative(self):
        # T(+-8) = m + s * (+-8): the right tail is only resolved through
        # the survival function, the left through the CDF
        m, s = 1.0, 2.0
        x = np.array([-8.0, -6.0, 6.0, 8.0])
        t = monotone_map(gaussian_target([m], s), x).t
        np.testing.assert_allclose(t, m + s * x, rtol=1e-10, atol=0.0)

    def test_interpolant_built_once(self, monkeypatch):
        m = monotone_map(quartic_well_target(0.05, 0.0))
        builds = []
        monkeypatch.setattr("mongelab.oracle1d.pchip",
                            lambda *a: builds.append(a) or pchip(*a))
        pot = potential_from_map(m)
        # the potential integrates the tabulated map values: no interpolant
        assert builds == []
        assert pot.phi.shape == m.x.shape
        # a map evaluation builds its interpolant once
        m(0.5)
        assert len(builds) == 1

    def test_far_tail_grid_is_unresolved(self):
        # Phi(-40) underflows below every CDF value of the table: once clipped
        # onto one segment, such points came out "not strictly increasing"
        grid = np.linspace(-40.0, 40.0, 2001)
        with pytest.raises(UnresolvedDensityError, match=r"grid point -40\.0 lies beyond"):
            monotone_map(gaussian_target([0.0], 1.0), grid)

    def test_non_integrable_detected(self):
        # e^{-f} = e^{x^4} grows faster than the Gaussian decays
        bad = ScalarTarget(
            1, "explosive", {},
            eval=lambda x: -np.sum(x**4, axis=1),
            grad=lambda x: -4 * x**3,
            hess=lambda x: (-12 * x**2).reshape(-1, 1, 1),
        )
        with pytest.raises(NonIntegrableDensityError):
            monotone_map(bad)

    @pytest.mark.parametrize("log_density, kind, error", [
        (lambda y: np.where(y > 7, np.nan, -0.5 * y**2), NonIntegrableDensityError,
         "log-density not finite on the base range"),
        (lambda y: np.where(y > 0, 0.0, -0.5 * y**2), NonIntegrableDensityError,
         "density does not decay on the right"),
        (lambda y: np.where(y < 0, 0.0, -0.5 * y**2), NonIntegrableDensityError,
         "density does not decay on the left"),
        # a bump at 12, 728 above the peak on [-8, 8]: exp overflowed while the
        # table was scaled by that peak; scaled by its own, the bump is too narrow
        (lambda y: 800 * np.exp(-(y - 12) ** 2) - 0.5 * y**2, UnresolvedDensityError,
         "density too narrow for the table step 0.004: the log-density changes by more "
         "than 1.0 between neighbouring points"),
        # NaN between the range scan's points 8 and 10
        (lambda y: np.where((y > 8.5) & (y < 9.0), np.nan, -0.5 * y**2),
         NonIntegrableDensityError, "log-density not finite on the working range"),
    ], ids=["nan", "right", "left", "overflow", "nan-inside"])
    def test_density_table_errors_are_named(self, log_density, kind, error):
        # built by hand, past check_consistency: f makes -f - y^2/2 the log-density
        target = ScalarTarget(1, "hand-built", {},
                              eval=lambda x: -log_density(x[:, 0]) - 0.5 * x[:, 0] ** 2,
                              grad=None, hess=None)
        with pytest.raises(kind, match=f"^{error}$"):
            monotone_map(target)

    def test_repeated_grid_point_is_not_increasing(self):
        # on a strictly increasing grid no target was found that reaches this
        with pytest.raises(NonIntegrableDensityError,
                           match="^rearrangement map is not strictly increasing$"):
            monotone_map(gaussian_target([0.0], 1.0), np.array([-1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("grid", [None, np.linspace(-3.0, 3.0, 241)])
    def test_prebuilt_table_gives_the_same_map(self, grid):
        target = quartic_well_target(0.05, -0.2)
        table = quantile_table(target)
        np.testing.assert_array_equal(monotone_map(target, grid, table).t,
                                      monotone_map(target, grid).t)

    @pytest.mark.parametrize("m", [0.0, 0.013])
    @pytest.mark.parametrize("sigma", [0.001, 0.002, 0.005, 0.01, 0.02])
    def test_narrow_density_is_exact_or_unresolved(self, m, sigma):
        # a density a few table steps wide once came out off by up to 0.02 with
        # no error; the map must be m + sigma x or refuse the density by name
        try:
            t = monotone_map(gaussian_target([m], sigma)).t
        except UnresolvedDensityError:
            return
        np.testing.assert_allclose(t, m + sigma * GRID, rtol=0.0, atol=1e-6)


class TestRootSolve:
    """_invert_cubics, the safeguarded Newton solve, against bisection."""

    @pytest.mark.parametrize("grid", [GRID, np.linspace(*ORACLE_WINDOW, 241)],
                             ids=["GRID", "map-check"])
    @pytest.mark.parametrize("target", [
        *(pytest.param(t, id=n) for n, t in BATTERY_1D if t.kind == "quartic-well"),
        pytest.param(gaussian_target([1.0], 0.05), id="gaussian-0.05"),
    ])
    def test_newton_matches_bisection(self, count_calls, target, grid):
        table = quantile_table(target)
        solves = count_calls(oracle1d, "_invert_cubics")
        cubics = count_calls(oracle1d, "_cubic")
        t = monotone_map(target, grid, table).t
        (coef, width, q), = solves
        iterations = len(cubics) - 1  # one call evaluates p(width) for the secant start
        assert iterations <= 6
        s = _invert_cubics(coef, width, q)
        assert np.all((0.0 <= s) & (s <= width))
        ulps = np.spacing(np.maximum(np.abs(t), 1.0))
        assert np.max(np.abs(s - bisect_cubics(coef, width, q)) / ulps) <= 16
        p, slope = oracle1d._cubic(coef, s)
        newton_step = np.abs((p - q) / slope)
        assert np.all((np.abs(p - q) <= 4 * np.spacing(np.abs(q)))
                      | (newton_step <= 2 * np.spacing(s)))

    def test_zero_slope_converges_by_midpoints(self, count_calls):
        # p(s) = s^3 has slope 0 at the secant start's side: Newton's first
        # step leaves the bracket, and the midpoint takes over
        cubics = count_calls(oracle1d, "_cubic")
        coef = np.array([[1.0], [0.0], [0.0], [0.0]])
        s = _invert_cubics(coef, np.array([_DENSITY_STEP]), np.array([1e-30]))
        assert len(cubics) - 1 < oracle1d._BISECTIONS
        np.testing.assert_allclose(s, 1e-10, rtol=1e-15)


class TestPotentialFromMap:
    def test_identity_gives_zero(self):
        m = monotone_map(gaussian_target([0.0], 1.0))
        pot = potential_from_map(m)
        np.testing.assert_allclose(pot.phi, 0.0, atol=1e-8)

    def test_gaussian_antiderivative(self):
        # T = 2x + 1: phi = x^2/2 + x
        m = monotone_map(gaussian_target([1.0], 2.0))
        pot = potential_from_map(m)
        np.testing.assert_allclose(pot.phi, m.x**2 / 2 + m.x, atol=1e-8)

    def test_anchored_at_origin(self):
        pot = potential_from_map(monotone_map(quartic_well_target(0.05, 0.0)))
        assert np.interp(0.0, pot.x, pot.phi) == pytest.approx(0.0, abs=1e-12)

    def test_jacobian_positive(self):
        m = monotone_map(quartic_well_target(0.05, -0.2))
        pot = potential_from_map(m)
        second = np.gradient(np.gradient(pot.phi, pot.x), pot.x)
        # 1 + phi'' = T' > 0 away from the grid edges
        inner = slice(50, -50)
        assert np.all(1 + second[inner] > 0)


class TestWasserstein:
    def test_flat_zero(self):
        flat = monotone_map(gaussian_target([0.0], 1.0))
        assert wasserstein2_sq(flat) == pytest.approx(0.0, abs=1e-10)

    def test_worked_gaussians(self):
        shifted = monotone_map(gaussian_target([1.0], 2.0))
        narrowed = monotone_map(gaussian_target([0.5], 0.5))
        assert wasserstein2_sq(shifted) == pytest.approx(2.0, abs=1e-6)
        assert wasserstein2_sq(narrowed) == pytest.approx(0.5, abs=1e-6)

    def test_grid_default(self):
        assert GRID.shape == (2001,)
        assert GRID[0] == -8.0 and GRID[-1] == 8.0


class TestScipyParity:
    """The oracle's numpy kernels against the scipy functions they replace."""

    @pytest.mark.parametrize("target", REFERENCE_TARGETS)
    def test_simpson_and_pchip_bit_equal(self, target):
        ys, dens = _nu_density_table(target)
        cdf = _cumulative_simpson(dens, ys)
        sf = _cumulative_simpson(dens[::-1], -ys[::-1])
        assert np.array_equal(cdf, cumulative_simpson(dens, x=ys, initial=0.0))
        assert np.array_equal(sf, cumulative_simpson(dens[::-1], x=-ys[::-1], initial=0.0))
        table = np.column_stack([cdf / cdf[-1], -sf[::-1] / cdf[-1]])
        assert np.array_equal(pchip(ys, table), PchipInterpolator(ys, table).c)

    @pytest.mark.parametrize("n", [2, 3, 4, 9])
    def test_short_tables_bit_equal(self, n):
        # two points are a line; three and more take the one-sided end slopes
        x = np.sort(np.random.default_rng(n).uniform(-2.0, 2.0, n))
        y = np.array([0.3, -1.0, 2.0, 2.0, 0.5, -0.2, 4.0, 1.0, 1.5])[:n]
        assert np.array_equal(pchip(x, y), PchipInterpolator(x, y).c)

    def test_evaluation_bit_equal(self):
        m = monotone_map(quartic_well_target(0.05, -0.2))
        x = m.x
        v = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), x[:-1] + 0.1 * np.diff(x),
                            [x[0] - 3.0, x[0] - 1e-3, x[-1] + 1e-3, x[-1] + 3.0]])
        assert np.array_equal(m(v), PchipInterpolator(m.x, m.t)(v))
        assert np.array_equal(evaluate(x, pchip(x, m.t), v), m(v))

    def test_lower_tail_matches_ndtr(self):
        ref = ndtr(-np.abs(GRID))
        assert np.max(np.abs(_lower_tail(GRID) - ref) / ref) <= 3e-15

    @pytest.mark.parametrize("target", REFERENCE_TARGETS)
    def test_map_matches_scipy_path(self, target):
        assert np.max(np.abs(monotone_map(target).t - scipy_monotone_map(target))) <= 1e-14
