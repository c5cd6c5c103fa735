import numpy as np
import pytest
from scipy.special import ellipj, ellipk

from gordon import profiles
from gordon.acceptance import RATIO_BAND
from gordon.families import residual_sinh_gordon, residual_sine_gordon, sign_probe
from gordon.grid import NumericalError, laplacian, make_grid, rect_grid
from gordon.profiles import (
    QuarticProfile,
    assemble_tan_family,
    assemble_tanh_family,
    integrate_profile,
    tan_family_profiles,
    tanh_family_profiles,
)

SQRT2 = np.sqrt(2.0)


def axis(a, b, h):
    return np.linspace(a, b, int(round((b - a) / h)) + 1)


class TestQuarticProfile:
    def test_inconsistent_initial_data_rejected(self):
        with pytest.raises(ValueError):
            QuarticProfile(-1.0, 4.0, 0.0, 2.0, 1.0)  # slope^2 = 1 but quartic(2) = 0

    @pytest.mark.parametrize("q0,dp_init", [(1.0, np.nan), (np.inf, np.inf), (np.nan, 1.0)])
    def test_non_finite_initial_data_rejected(self, q0, dp_init):
        # unchecked, a nan slope assembles a field that is valid on its x = 0 line
        with pytest.raises(ValueError, match="inconsistent initial data"):
            QuarticProfile(1.0, -4.0, q0, 0.0, dp_init)


class TestIntegrateProfile:
    def test_sech_closed_form(self):
        spec = QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0)
        t = axis(-1.0, 1.0, 1 / 400)
        sp = integrate_profile(spec, t)
        assert np.abs(sp.p - 2 / np.cosh(2 * t)).max() < 1e-8

    def test_equilibrium(self):
        spec = QuarticProfile(-1.0, 3.0, 0.0, 0.0, 0.0)
        sp = integrate_profile(spec, axis(-1, 1, 0.01))
        assert np.all(sp.p == 0.0) and np.all(sp.P == 0.0)

    def test_sqrt2_tanh_closed_form(self):
        spec = QuarticProfile(1.0, -4.0, 4.0, 0.0, 2.0)
        t = axis(-1.0, 1.0, 1 / 400)
        sp = integrate_profile(spec, t)
        assert np.abs(sp.p - SQRT2 * np.tanh(SQRT2 * t)).max() < 1e-8

    def test_axis_not_containing_origin(self):
        # initial data lives at t = 0 even when the axis window starts later
        spec = QuarticProfile(1.0, -4.0, 4.0, 0.0, 2.0)
        t = axis(0.2, 1.0, 1 / 400)
        sp = integrate_profile(spec, t)
        assert np.abs(sp.p - SQRT2 * np.tanh(SQRT2 * t)).max() < 1e-8
        # P(t) = ln(cosh(sqrt2 t)) anchored at the true origin
        assert np.abs(sp.P - np.log(np.cosh(SQRT2 * t))).max() < 1e-12

    def test_first_integral_drift(self):
        for spec in (
            QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0),
            QuarticProfile(1.0, -4.0, 4.0, 0.0, 2.0),
            QuarticProfile(-1.0, 4.0, 4.0, 0.0, 2.0),
        ):
            sp = integrate_profile(spec, axis(-1, 1, 1 / 100))
            assert sp.first_integral_drift() < 1e-9

    @pytest.mark.parametrize(
        "spec,P",
        [
            (QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0), lambda t: 2 * np.arctan(np.tanh(t))),
            (QuarticProfile(1.0, -4.0, 4.0, 0.0, 2.0), lambda t: np.log(np.cosh(SQRT2 * t))),
        ],
        ids=["sech", "sqrt2-tanh"],
    )
    def test_antiderivative_closed_form(self, spec, P):
        t = axis(-1.0, 1.0, 1 / 400)
        sp = integrate_profile(spec, t)
        assert sp.P[np.argmin(np.abs(t))] == 0.0
        assert np.abs(sp.P - P(t)).max() < 1e-12

    @pytest.mark.parametrize("n", [201, 401, 801, 1601])
    def test_generic_coefficients_elliptic_closed_form(self, n):
        # the tan family's b-profile at (4, 4, 4) solves (p')^2 = -p^4 + 4p^2 + 4
        # = (alpha^2 - p^2)(p^2 + beta^2): p = -alpha cn(lam t - K | m) (DLMF 22)
        _, spec = tan_family_profiles(4.0, 4.0, 4.0, 2.0, -2.0)
        alpha, lam = np.sqrt(2 + 2 * SQRT2), np.sqrt(4 * SQRT2)
        m = alpha**2 / lam**2
        K = ellipk(m)
        t = np.linspace(-0.5, 0.5, n)
        sn, cn, _, _ = ellipj(lam * t - K, m)
        sn0 = ellipj(-K, m)[0]
        P = -alpha / (lam * np.sqrt(m)) * (np.arcsin(np.sqrt(m) * sn) - np.arcsin(np.sqrt(m) * sn0))
        sp = integrate_profile(spec, t)
        assert np.abs(sp.p - -alpha * cn).max() < 1e-13
        assert np.abs(sp.P - P).max() < 1e-13

    def test_rk4_convergence(self):
        # halving the axis step (hence the substep) cuts the ODE error ~16x
        spec = QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0)

        def err(h):
            t = axis(-1.0, 1.0, h)
            sp = integrate_profile(spec, t)
            return np.abs(sp.p - 2 / np.cosh(2 * t)).max()

        assert err(0.2) / err(0.1) >= 12

    def test_blow_up_masks_tail(self):
        # (p')^2 = p^4 + 4 has no turning point; p escapes in finite time
        spec = QuarticProfile(1.0, 0.0, 4.0, 0.0, 2.0)
        sp = integrate_profile(spec, axis(0.0, 4.0, 0.01))
        assert not sp.valid[-1] and sp.valid[0]
        assert sp.p[~sp.valid].max() == 0.0

    def test_nonuniform_axis_rejected(self):
        spec = QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            integrate_profile(spec, np.array([0.0, 0.1, 0.3]))

    def test_blow_up_before_the_axis_is_a_numerical_error(self):
        spec = QuarticProfile(1.0, 0.0, 4.0, 0.0, 2.0)  # blows up near t = 1.31
        with pytest.raises(NumericalError, match="blew up"):
            integrate_profile(spec, axis(1.5, 2.0, 0.01))


def reference_march(spec, t_from, p, dp, P, t_to, nsub):
    """The profile RK4 on numpy state arrays [p, p', P], in the march's operation order."""

    def f(s):
        return np.array([s[1], spec.acceleration(s[0]), s[0]])

    h = (t_to - t_from) / nsub
    for _ in range(nsub):
        s = np.array([p, dp, P])
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = f(s)
            k2 = f(s + h / 2 * k1)
            k3 = f(s + h / 2 * k2)
            k4 = f(s + h * k3)
            p, dp, P = s + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.isfinite(p) or abs(p) > profiles.BLOWUP_LIMIT:
            return p, dp, P, True
    return p, dp, P, False


class TestPlainFloatRK4:
    @pytest.mark.parametrize(
        "spec,ends",
        [
            (QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0), (-1.0, 1.0)),  # 2 sech(2t)
            (QuarticProfile(1.0, -4.0, 4.0, 0.0, 2.0), (0.2, 1.0)),  # sqrt2 tanh(sqrt2 t), lead-in march
            (QuarticProfile(1.0, 0.0, 4.0, 0.0, 2.0), (-2.0, 2.0)),  # blows up near |t| = 1.31
            # p**3 overflows within the first substep on either side
            (QuarticProfile(1e100, 0.0, 0.0, 1.0, 1e50), (-1.0, 1.0)),
        ],
        ids=["sech", "sqrt2-tanh", "blow-up", "overflow"],
    )
    def test_bit_identical_to_array_rk4(self, spec, ends, monkeypatch):
        t = axis(*ends, 0.01)
        got = integrate_profile(spec, t)
        monkeypatch.setattr(profiles, "_march", reference_march)
        want = integrate_profile(spec, t)
        for name in ("p", "dp", "P", "valid"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_blow_up_freezes_at_the_same_sample(self):
        spec = QuarticProfile(1.0, 0.0, 4.0, 0.0, 2.0)
        t = axis(-2.0, 2.0, 0.01)
        valid = np.flatnonzero(integrate_profile(spec, t).valid)
        assert (valid[0], valid[-1]) == (69, 331)  # t = -1.31 and 1.31
        assert len(valid) == 331 - 69 + 1


class TestCoefficientConstraints:
    def test_tan_family_violation_rejected(self):
        with pytest.raises(ValueError):
            tan_family_profiles(1.0, 0.0, 0.0, 0.0, 0.0)

    def test_tanh_family_violation_rejected(self):
        with pytest.raises(ValueError):
            tanh_family_profiles(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_tan_family_accepts_consistent_set(self):
        a_spec, b_spec = tan_family_profiles(4.0, 0.0, 0.0, 0.0, 0.0, a_init=2.0, b_init=2.0)
        assert a_spec.q2 == 4.0 and b_spec.q2 == 4.0

    def test_negative_quartic_slope_rejected(self):
        # the set satisfies the constraint, but quartic(0) = c2 = -4 has no real slope
        with pytest.raises(ValueError, match="inconsistent initial data"):
            tan_family_profiles(4.0, -4.0, -4.0, 0.0, 0.0)


class TestAssembly:
    def test_tan_family_zero_profiles(self):
        g = make_grid(-0.5, 0.5, -0.5, 0.5, 11, 11)
        zero = QuarticProfile(-1.0, 4.0, 0.0, 0.0, 0.0)
        w = assemble_tan_family(zero, zero, g)
        assert np.all(w.values == 0.0)

    def test_tan_family_sech_profiles_match_special_solution(self):
        # a = b = 2 sech(2t) gives A = arctan(sinh 2x), so
        # sinh w = (sinh2x + sinh2y)/(1 - sinh2x sinh2y)
        g = make_grid(-0.25, 0.25, -0.25, 0.25, 101, 101)
        w = assemble_tan_family(*tan_family_profiles(4.0, 0.0, 0.0, 0.0, 0.0, a_init=2.0, b_init=2.0), g)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        expect = np.arcsinh(
            (np.sinh(2 * X) + np.sinh(2 * Y)) / (1 - np.sinh(2 * X) * np.sinh(2 * Y))
        )
        assert np.abs(w.values - expect)[w.mask].max() < 1e-12

    def test_tan_family_generic_coefficients_solve_pde(self):
        # alpha = beta = 1/2: a truly elliptic-function profile pair.  The
        # constructor enforces only 4c1 = 16 + c3 - c2; for this set only
        # opposite slopes assemble a solution (ROADMAP item 11)
        g = make_grid(-0.3, 0.3, -0.3, 0.3, 121, 121)
        w = assemble_tan_family(*tan_family_profiles(4.0, 4.0, 4.0, 2.0, -2.0), g)
        sup, n = residual_sinh_gordon(w, laplacian(w)).sup_norm()
        assert n > 0 and sup < 16 * 1e-3  # h = 1/200 floor

    def test_tanh_family_zero(self):
        g = make_grid(-0.5, 0.5, -0.5, 0.5, 11, 11)
        zero = QuarticProfile(1.0, -4.0, 0.0, 0.0, 0.0)
        th = assemble_tanh_family(zero, zero, g)
        assert np.all(th.values == 0.0)

    def test_tanh_family_sqrt2_matches_half_angle_form(self):
        g = make_grid(0.2, 1.0, -0.35, 0.35, 161, 141)
        th = assemble_tanh_family(*tanh_family_profiles(-4.0, 4.0, 4.0, 2.0, -2.0), g)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        cx, cy = np.cosh(SQRT2 * X), np.cosh(SQRT2 * Y)
        expect = 2 * np.arctan((cx - cy) / (cx + cy))
        assert np.abs(th.values - expect)[th.mask].max() < 1e-13

    def test_tanh_family_solves_pde(self):
        g = make_grid(0.2, 1.0, -0.35, 0.35, 161, 141)
        th = assemble_tanh_family(*tanh_family_profiles(-4.0, 4.0, 4.0, 2.0, -2.0), g)
        sup, _ = residual_sine_gordon(th, -1, laplacian(th)).sup_norm()
        assert sup < 16 * 1e-3

    @pytest.mark.parametrize("k,sup_1_400", [(1, 2.7e-7), (2, 2.5e-7), (9, 1.4e-6)])
    def test_admitted_sets_without_closed_form_solve_pde(self, k, sup_1_400):
        # (-4, k, k) with opposite slopes +-sqrt(k) and zero data: no closed form
        # for k != 4, yet second order, with sigma = -1 probed at each spacing
        sups = []
        for h in (1 / 200, 1 / 400):
            g = rect_grid((-0.3, 0.3, -0.3, 0.3), h)
            th = assemble_tanh_family(*tanh_family_profiles(-4.0, k, k, np.sqrt(k), -np.sqrt(k)), g)
            lap = laplacian(th)
            assert sign_probe(th, lap) == -1
            sup, n = residual_sine_gordon(th, -1, lap).sup_norm()
            assert n == (g.nx - 2) * (g.ny - 2)
            sups.append(sup)
        assert sups[1] < 100 * sup_1_400
        assert RATIO_BAND[0] <= sups[0] / sups[1] <= RATIO_BAND[1]

    def test_same_sign_slopes_build_no_solution(self):
        # why the slopes are stated: k = 1 with both slopes +1 reads 2.0 at
        # either spacing, for either sign, and does not converge
        sups = []
        for h in (1 / 200, 1 / 400):
            g = rect_grid((-0.3, 0.3, -0.3, 0.3), h)
            th = assemble_tanh_family(*tanh_family_profiles(-4.0, 1.0, 1.0, 1.0, 1.0), g)
            lap = laplacian(th)
            assert sign_probe(th, lap) == 0
            sups.append(min(residual_sine_gordon(th, sigma, lap).sup_norm()[0] for sigma in (1, -1)))
        assert min(sups) > 1.9 and 0.9 < sups[0] / sups[1] < 1.1
