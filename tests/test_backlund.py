import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from gordon import backlund
from gordon.acceptance import MARCH_RECT_SQRT2, RATIO_BAND
from gordon.backlund import (
    W_CAP,
    BacklundPair,
    backlund_residuals,
    closed_form_w_tanh,
    theta_to_w,
    w_to_theta,
)
from gordon.families import (
    eval_family,
    get_family,
    residual_sine_gordon,
    residual_sinh_gordon,
    scalar_callable,
    sign_probe,
)
from gordon.grid import ScalarField, cumulative_integral_x, field, laplacian, make_grid, rect_grid

SQRT2 = np.sqrt(2.0)
H = 1 / 100
TOL = 16 * 1e-3


def grid(x0, x1, y0, y1, h=H):
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    return make_grid(x0, x1, y0, y1, max(nx, 5), max(ny, 5))


def const_field(g, v):
    return field(g, np.full((g.nx, g.ny), v))


class TestResiduals:
    def test_trivial_pair(self):
        # w = 0, theta = -pi/2: every term of both equations vanishes
        g = grid(-0.5, 0.5, -0.5, 0.5)
        r1, r2 = backlund_residuals(BacklundPair(const_field(g, 0.0), const_field(g, -np.pi / 2), "constants"))
        assert r1.sup_norm()[0] < 1e-12 and r2.sup_norm()[0] < 1e-12

    @pytest.mark.parametrize("pair", [("W_SQRT2", "THETA_SQRT2"), ("W_EX2", "THETA_EX2")])
    def test_printed_pairs(self, pair):
        fid_w, fid_t = pair
        x0, x1, y0, y1 = get_family(fid_w).rectangle
        g = grid(x0, x1, y0, y1)
        r1, r2 = backlund_residuals(BacklundPair(eval_family(fid_w, g), eval_family(fid_t, g), "closed forms"))
        assert r1.sup_norm()[0] < TOL and r2.sup_norm()[0] < TOL

    def test_mismatched_grids_rejected(self):
        g1 = grid(-0.5, 0.5, -0.5, 0.5)
        g2 = grid(-0.4, 0.4, -0.4, 0.4)
        with pytest.raises(ValueError):
            BacklundPair(const_field(g1, 0.0), const_field(g2, 0.0), "bad")


class TestThetaToW:
    def test_constant_theta_minus_half_pi(self):
        # sin(theta) = -1 makes the seed equation w_x = 2 sinh w, whose
        # solution has tanh(w/2) = tanh(w00/2) e^{2x}; cos(theta) = 0 makes
        # the columns constant
        g = grid(-1.0, 0.2, -0.3, 0.3)
        th = const_field(g, -np.pi / 2)
        w = theta_to_w(th, np.log(3.0), analytic=lambda x, y: -np.pi / 2 * np.ones(np.shape(x * y)))
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        expect_t = 0.5 * np.exp(2 * X)  # tanh(w00/2) = 1/2
        ok = w.mask & (np.abs(expect_t) < 1 - 1e-8)
        got_t = np.tanh(w.values / 2)
        assert np.abs(got_t - expect_t)[ok].max() < 1e-9
        r1, r2 = backlund_residuals(BacklundPair(w, th, "march"))
        assert max(r1.sup_norm()[0], r2.sup_norm()[0]) < TOL

    def test_constant_theta_half_pi_settles_decay_direction(self):
        # for theta = pi/2 the transform gives tanh(w/2) = tanh(w00/2) e^{-2x},
        # i.e. the *decaying* one-soliton variant, not the growing printed one
        g = grid(-0.5, 1.0, -0.2, 0.2)
        th = const_field(g, np.pi / 2)
        w00 = -np.log(3.0)
        w = theta_to_w(th, w00, analytic=lambda x, y: np.pi / 2 * np.ones(np.shape(x * y)))
        assert np.abs(np.diff(w.values, axis=1)).max() < 1e-12  # independent of y
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        t0 = np.tanh(w00 / 2)
        err_decay = np.abs(np.tanh(w.values / 2) - t0 * np.exp(-2 * X))[w.mask].max()
        err_grow = np.abs(np.tanh(w.values / 2) - t0 * np.exp(+2 * X))[w.mask].max()
        assert err_decay < 1e-7
        assert err_grow > 0.1

    @pytest.mark.parametrize(
        "fid_t,fid_w,rect",
        [
            ("THETA_SQRT2", "W_SQRT2", (0.0, 0.6, -0.35, 0.35)),
            ("THETA_EX2", "W_EX2", (-0.15, 0.15, -0.15, 0.15)),
        ],
    )
    def test_reproduces_printed_w(self, fid_t, fid_w, rect):
        g = grid(*rect)
        th = eval_family(fid_t, g)
        w = theta_to_w(th, 0.0, analytic=scalar_callable(fid_t))
        wp = eval_family(fid_w, g)
        ok = w.mask & wp.mask
        assert np.abs(w.values - wp.values)[ok].max() < 1e-6

    def test_requires_axis_lines(self):
        g = grid(0.2, 1.0, -0.3, 0.3)  # no x = 0 line
        with pytest.raises(ValueError):
            theta_to_w(const_field(g, 0.5), 0.0)

    def test_requires_a_valid_seed_point(self):
        g = grid(-0.3, 0.3, -0.3, 0.3)
        mask = np.ones((g.nx, g.ny), dtype=bool)
        mask[g.index_of_x(0.0), g.index_of_y(0.0)] = False
        with pytest.raises(ValueError, match="seed point"):
            theta_to_w(field(g, np.full((g.nx, g.ny), 0.5), mask), 0.0)


@pytest.mark.parametrize("march", [theta_to_w, w_to_theta])
def test_non_finite_value_at_a_masked_point_rejected(march):
    # a direct construction may leave a nan at a masked point (a container is
    # finite only at its valid points); the node slopes would read it as data
    g = grid(-0.3, 0.3, -0.3, 0.3)
    values, mask = np.full((g.nx, g.ny), 0.5), np.ones((g.nx, g.ny), dtype=bool)
    values[1, 2], mask[1, 2] = np.nan, False
    with pytest.raises(ValueError, match=f"1 of {mask.size} are masked"):
        march(ScalarField(g, values, mask), 0.0)


@pytest.mark.parametrize("march,fid", [(theta_to_w, "THETA_SQRT2"), (w_to_theta, "W_SQRT2")],
                         ids=["theta_to_w", "w_to_theta"])
def test_masked_point_in_sampled_data_rejected(march, fid):
    # a container stores 0.0 at a masked point, and the node slopes would
    # read it as data
    g = make_grid(0.0, 0.6, -0.35, 0.35, 121, 141)
    f = eval_family(fid, g)
    assert march(f, 0.0).mask.any()  # fully valid: accepted
    mask = f.mask.copy()
    mask[90, 100] = False
    with pytest.raises(ValueError, match="1 of 17061 are masked"):
        march(ScalarField.masked(g, f.values, ok=mask), 0.0)


class TestWToTheta:
    def test_zero_w(self):
        g = grid(-0.5, 0.5, -0.5, 0.5)
        w = const_field(g, 0.0)
        th = w_to_theta(w, np.pi / 2, analytic=lambda x, y: np.zeros(np.shape(x * y)))
        r1, r2 = backlund_residuals(BacklundPair(w, th, "march"))
        assert max(r1.sup_norm()[0], r2.sup_norm()[0]) < TOL

    def test_generates_new_sine_gordon_solution(self):
        g = grid(-0.25, 0.25, -0.25, 0.25)
        w = eval_family("W_TAN_SPECIAL", g)
        th = w_to_theta(w, np.pi, analytic=scalar_callable("W_TAN_SPECIAL"))
        sigma = sign_probe(th, laplacian(th))
        assert sigma != 0
        assert residual_sine_gordon(th, sigma, laplacian(th)).sup_norm()[0] < TOL

    def test_singular_seed_point_rejected(self):
        # W_ONE_SOLITON's w = 2 artanh(e^{2x}) is infinite on x = 0: a march
        # from there would return a field with every point masked
        g = grid(-0.5, 0.0, -0.2, 0.2)
        with pytest.raises(ValueError, match="seed point"):
            w_to_theta(eval_family("W_ONE_SOLITON", g), 0.0,
                       analytic=scalar_callable("W_ONE_SOLITON"))

    def test_from_theta00_pi_matches_an_ode_solver(self):
        # theta00 = pi is the state (p, q) = (1, 0), where tan(theta/2) is
        # infinite; the oracle integrates theta itself, the seed line and then
        # every row, with the march's central-difference derivative of w
        g = grid(-0.25, 0.25, -0.25, 0.25)
        fn, d = scalar_callable("W_TAN_SPECIAL"), 1e-5
        th = w_to_theta(eval_family("W_TAN_SPECIAL", g), np.pi, analytic=fn)
        x, y = g.x(), g.y()

        def both_ways(rhs, axis, k0, u0):
            out = np.empty((len(axis),) + np.shape(u0))
            for side in (np.s_[k0:], np.s_[k0::-1]):
                t = axis[side]
                sol = solve_ivp(rhs, (t[0], t[-1]), np.atleast_1d(u0), method="DOP853",
                                t_eval=t, rtol=1e-13, atol=1e-13)
                out[side] = sol.y.T.reshape(out[side].shape)
            return out

        seed = both_ways(lambda t, u: (fn(d, t) - fn(-d, t)) / (2 * d) + 2 * np.sinh(fn(0.0, t)) * np.sin(u),
                         y, g.index_of_y(0.0), np.pi)
        want = both_ways(lambda t, u: -(fn(t, y + d) - fn(t, y - d)) / (2 * d) - 2 * np.cosh(fn(t, y)) * np.cos(u),
                         x, g.index_of_x(0.0), seed)
        assert th.mask.all()
        assert th.values[g.index_of_x(0.0), g.index_of_y(0.0)] == np.pi
        assert np.abs(th.values - want).max() < 3e-9  # 3.1e-10 measured

    def test_round_trip(self):
        g = grid(-0.25, 0.25, -0.25, 0.25)
        w = eval_family("W_TAN_SPECIAL", g)
        th = w_to_theta(w, np.pi, analytic=scalar_callable("W_TAN_SPECIAL"))
        w2 = theta_to_w(th, 0.0)  # sampled-field path: Hermite cells, no analytics
        ok = w.mask & w2.mask
        assert np.abs(w.values - w2.values)[ok].max() < 5e-4


# ---------------------------------------------------------------------------
# cell-by-cell oracle for the tabulated marches

GAUSS = (0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6)


def _reference_cell(h, A1, A2):
    """exp(Omega) of one cell as its entries (E11, E12, E21, E22).

    Omega = h/2 (A1 + A2) + (sqrt(3) h^2/12) [A2, A1] for A = [[b/2, a],
    [-c, -b/2]] at the two Gauss points; exp of a traceless 2x2 matrix is
    C I + S Omega, with C and S the even series of cosh(mu) and
    sinh(mu)/mu in mu^2 = -det(Omega) where |mu^2| < 1e-2.
    """
    (a1, b1, c1), (a2, b2, c2) = A1, A2
    k = np.sqrt(3) / 12 * h * h
    o1 = h / 4 * (b1 + b2) + k * (a1 * c2 - a2 * c1)
    o2 = h / 2 * (a1 + a2) + k * (a1 * b2 - a2 * b1)
    o3 = k * (b2 * c1 - b1 * c2) - h / 2 * (c1 + c2)
    mu2 = o1 * o1 + o2 * o3
    r = np.sqrt(np.abs(mu2))
    with np.errstate(invalid="ignore", divide="ignore"):
        C = np.where(mu2 > 0, np.cosh(r), np.cos(r))
        S = np.where(mu2 > 0, np.sinh(r), np.sin(r)) / r
    small = np.abs(mu2) < 1e-2
    C = np.where(small, 1 + mu2 * (1 / 2 + mu2 * (1 / 24 + mu2 * (1 / 720 + mu2 * (1 / 40320 + mu2 / 3628800)))), C)
    S = np.where(small, 1 + mu2 * (1 / 6 + mu2 * (1 / 120 + mu2 * (1 / 5040 + mu2 * (1 / 362880 + mu2 / 39916800)))), S)
    return C + S * o1, S * o2, S * o3, C - S * o1


def _reference_sweep(axis, k0, u0, coeffs, periodic):
    """Cell-by-cell Magnus march of v = p/q, v' = a + b v + c v^2, (a, b, c) = coeffs(t).

    v = tan(u/2) if periodic, else tanh(u/2); every cell evaluates coeffs
    at its own two Gauss points, and a cell below k0 is crossed backwards
    by the inverse of its matrix.  A point is valid while |u| <= W_CAP at
    it and at every point between it and k0.
    """
    n, m = len(axis), len(u0)
    p, q = np.zeros((n, m)), np.zeros((n, m))
    p[k0], q[k0] = (np.sin(u0 / 2), np.cos(u0 / 2)) if periodic else (np.tanh(u0 / 2), 1.0)
    u = np.zeros((n, m))
    valid = np.zeros((n, m), dtype=bool)
    u[k0], valid[k0] = u0, np.abs(u0) <= W_CAP
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in (1, -1):
            for k in range(k0 + step, n if step == 1 else -1, step):
                lo = min(k, k - step)  # the cell between k - step and k
                t, h = axis[lo], axis[lo + 1] - axis[lo]
                e11, e12, e21, e22 = _reference_cell(h, coeffs(t + h * GAUSS[0]), coeffs(t + h * GAUSS[1]))
                pk, qk = p[k - step], q[k - step]
                if step == 1:
                    pn, qn = e11 * pk + e12 * qk, e21 * pk + e22 * qk
                else:
                    pn, qn = e22 * pk - e12 * qk, e11 * qk - e21 * pk
                s = np.abs(pn) + np.abs(qn)
                p[k], q[k] = pn / s, qn / s
                u[k] = 2 * np.arctan2(p[k], q[k]) if periodic else 2 * np.arctanh(p[k] / q[k])
            side = np.s_[k0:] if step == 1 else np.s_[k0::-1]
            if periodic:  # the change of 2 atan2(p, q), made continuous from k0
                turn = np.unwrap(u[side], axis=0)
                u[side] = u0 + (turn - turn[0])
            for k in range(k0 + step, n if step == 1 else -1, step):
                valid[k] = valid[k - step] & (np.abs(u[k]) <= W_CAP)
    return np.where(valid, u, 0.0), valid


# five-point derivative weights, times 12h, by node offset (Fornberg, Math. Comp. 51, 1988)
FIVE_POINT = {
    "first": ((-25, 0), (48, 1), (-36, 2), (16, 3), (-3, 4)),
    "second": ((-3, -1), (-10, 0), (18, 1), (-6, 2), (1, 3)),
    "central": ((1, -2), (-8, -1), (8, 1), (-1, 2)),
    "next to last": ((-1, -3), (6, -2), (-18, -1), (10, 0), (3, 1)),
    "last": ((3, -4), (-16, -3), (36, -2), (-48, -1), (25, 0)),
}


def reference_slopes(v, h, axis):
    """Node slopes of v along `axis` with spacing h, node by node from FIVE_POINT."""
    v = np.moveaxis(v, axis, 0)
    n = len(v)
    rules = ["first", "second"] + ["central"] * (n - 4) + ["next to last", "last"]
    s = [sum(w * v[k + o] for w, o in FIVE_POINT[rule]) / (12 * h) for k, rule in enumerate(rules)]
    return np.moveaxis(np.array(s), 0, axis)


def reference_march(f, u00, direction, analytic=None):
    """(values, mask) of theta_to_w ("t2w") or w_to_theta ("w2t"), cell by cell.

    Each Gauss point evaluates the callable, or scipy's cubic Hermite
    splines of f and of its cross derivative, with five-point node slopes
    (the slopes across the lines are the cross derivative), at its own
    time; the seed line is evaluated at its grid coordinate, like every
    other line.
    """
    g = f.grid
    x, y = g.x(), g.y()
    i0, j0 = g.index_of_x(0.0), g.index_of_y(0.0)
    if analytic is not None:
        d = 1e-5
        along_y = lambda xs, t: (analytic(xs, t), (analytic(xs + d, t) - analytic(xs - d, t)) / (2 * d))
        along_x = lambda t, ys: (analytic(t, ys), (analytic(t, ys + d) - analytic(t, ys - d)) / (2 * d))
        col, row = (lambda t: along_y(x, t)), (lambda t: along_x(t, y))
        col0, row0 = (lambda t: along_y(x[i0:i0 + 1], t)), (lambda t: along_x(t, y[j0:j0 + 1]))
    else:
        v = f.values
        dx, dy = reference_slopes(v, g.hx, 0), reference_slopes(v, g.hy, 1)
        sy, sy_dx = CubicHermiteSpline(y, v, dy, axis=1), CubicHermiteSpline(y, dx, reference_slopes(dx, g.hy, 1), axis=1)
        sx, sx_dy = CubicHermiteSpline(x, v, dx, axis=0), CubicHermiteSpline(x, dy, reference_slopes(dy, g.hx, 0), axis=0)
        col, row = (lambda t: (sy(t), sy_dx(t))), (lambda t: (sx(t), sx_dy(t)))
        col0, row0 = (lambda t: (sy(t)[i0:i0 + 1], sy_dx(t)[i0:i0 + 1])), (lambda t: (sx(t)[j0:j0 + 1], sx_dy(t)[j0:j0 + 1]))

    u00 = np.array([u00], dtype=float)
    if direction == "t2w":
        def seed_coeffs(t):
            th, th_y = row0(t)
            return th_y / 2, -2 * np.sin(th), -th_y / 2

        def line_coeffs(t):
            th, th_x = col(t)
            return -th_x / 2 - np.cos(th), 0.0, th_x / 2 - np.cos(th)

        seed, seed_ok = _reference_sweep(x, i0, u00, seed_coeffs, periodic=False)
        seed, seed_ok = seed[:, 0], seed_ok[:, 0]
        vals, ok = _reference_sweep(y, j0, seed, line_coeffs, periodic=False)
        vals, ok, seed_ok = vals.T, ok.T, seed_ok[:, None]
    else:
        def seed_coeffs(t):
            wv, w_x = col0(t)
            return w_x / 2, 2 * np.sinh(wv), w_x / 2

        def line_coeffs(t):
            wv, w_y = row(t)
            return -w_y / 2 - np.cosh(wv), 0.0, np.cosh(wv) - w_y / 2

        seed, seed_ok = _reference_sweep(y, j0, u00, seed_coeffs, periodic=True)
        seed, seed_ok = seed[:, 0], seed_ok[:, 0]
        vals, ok = _reference_sweep(x, i0, seed, line_coeffs, periodic=True)
        seed_ok = seed_ok[None, :]
    ok = ok & seed_ok & f.mask
    return np.where(ok, vals, 0.0), ok


def _const(v):
    return lambda x, y: np.full(np.shape(x * y), v)


MARCH_CASES = [
    # (direction, source family or constant, rectangle, initial value)
    ("t2w", "THETA_SQRT2", (0.0, 0.6, -0.3, 0.3), 0.0),
    ("w2t", "W_SQRT2", (0.0, 0.6, -0.3, 0.3), 1.3),
    ("t2w", "THETA_EX2", (-0.16, 0.16, -0.16, 0.16), 0.2),
    ("w2t", "W_EX2", (-0.16, 0.16, -0.16, 0.16), np.pi),
    # w = 2 artanh(e^{2x}/2) passes W_CAP inside the grid: the rest of each row is masked
    ("t2w", -np.pi / 2, (-0.3, 0.6, -0.2, 0.2), np.log(3.0)),
    # linspace puts the seed line y = 0 at 2.8e-17, and THETA_EX2 is odd in y
    ("t2w", "THETA_EX2", (-0.16, 0.16, -0.16, 0.14), 0.2),
    # origin off-centre on the line-sweep axis (y for t2w, x for w2t): one
    # side of the seed line is longer than the other
    ("t2w", "THETA_SQRT2", (-0.1, 0.5, -0.3, 0.1), 0.0),
    ("t2w", "THETA_SQRT2", (-0.1, 0.5, -0.1, 0.3), 0.0),
    ("w2t", "W_SQRT2", (-0.4, 0.1, -0.1, 0.3), 1.3),
    ("w2t", "W_SQRT2", (-0.1, 0.4, -0.3, 0.1), 1.3),
]


def _case_id(case):
    direction, src, rect, _ = case
    lo, hi = rect[2:] if direction == "t2w" else rect[:2]  # the line-sweep axis
    tail = "" if lo == 0 or lo == -hi else ("-tail+" if hi > -lo else "-tail-")
    return f"{direction}-{src if isinstance(src, str) else 'freeze'}{tail}"


def _march_case(case, sampled):
    """(march output, source field, analytic callable or None) of a MARCH_CASES entry."""
    direction, src, rect, u00 = case
    g = grid(*rect, h=1 / 50)
    if isinstance(src, str):
        f, fn = eval_family(src, g), scalar_callable(src)
    else:
        f, fn = const_field(g, src), _const(src)
    analytic = None if sampled else fn
    march = theta_to_w if direction == "t2w" else w_to_theta
    return march(f, u00, analytic=analytic), f, analytic


class TestTabulatedMarch:
    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("case", MARCH_CASES, ids=_case_id)
    def test_bit_identical_to_stage_by_stage_rk4(self, case, sampled):
        direction, src, _, u00 = case
        got, f, analytic = _march_case(case, sampled)
        vals, ok = reference_march(f, u00, direction, analytic)
        assert np.array_equal(got.mask, ok)
        assert np.array_equal(got.values, vals)
        if not isinstance(src, str):
            assert not ok.all() and ok[0].all()  # the freeze case really masked points

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    def test_constant_coefficients_are_exact(self, sampled):
        # theta = -pi/2 makes every cell's Riccati coefficients constant, where
        # a Magnus cell is the exact exponential: w = 2 artanh(e^{2x}/2) up to
        # rounding, until the mask cuts each row short of e^{2x}/2 = 1
        got, _, _ = _march_case(MARCH_CASES[4], sampled)
        X, _ = np.meshgrid(got.grid.x(), got.grid.y(), indexing="ij")
        want = 2 * np.arctanh(np.exp(2 * X[got.mask]) / 2)
        assert got.mask[X < 0.3].all() and not got.mask[X > np.log(2) / 2].any()
        assert (np.abs(got.values[got.mask] - want) / np.abs(want)).max() <= 1e-12

    @pytest.mark.parametrize("direction,fid,oracle", [("t2w", "THETA_SQRT2", "W_SQRT2"),
                                                      ("w2t", "W_SQRT2", "THETA_SQRT2")])
    def test_fourth_order(self, direction, fid, oracle):
        # analytic marches against the printed partner; below h = 1/40 the
        # _FD_STEP derivative's error floor takes over
        march = theta_to_w if direction == "t2w" else w_to_theta
        u00 = float(scalar_callable(oracle)(0.0, 0.0))
        errs = []
        for h in (1 / 10, 1 / 20, 1 / 40):
            g = grid(0.0, 0.6, -0.3, 0.3, h)
            got = march(eval_family(fid, g), u00, analytic=scalar_callable(fid))
            want = eval_family(oracle, g)
            assert got.mask.all()
            errs.append(np.abs(got.values - want.values)[want.mask].max())
        assert 12 <= errs[0] / errs[1] <= 20 and 12 <= errs[1] / errs[2] <= 20

    @staticmethod
    def sampled_t2w(g):
        """(sup against the printed w, sinh-Gordon residual sup) of THETA_SQRT2's sampled t2w on g."""
        w = theta_to_w(eval_family("THETA_SQRT2", g), 0.0)
        wp = eval_family("W_SQRT2", g)
        assert w.mask.all()
        return np.abs(w.values - wp.values).max(), residual_sinh_gordon(w, laplacian(w)).sup_norm()[0]

    def test_sampled_fourth_order(self):
        # hx = 1/100 and hy = 1/140, then both halved: a march that swapped
        # hx and hy in its node slopes would read 0.18 at both
        errs = [self.sampled_t2w(make_grid(0.0, 0.6, -0.35, 0.35, nx, ny))[0] for nx, ny in ((61, 99), (121, 197))]
        assert errs[0] / errs[1] >= 12  # 15.9 measured; a third-order march reads 8

    def test_sampled_output_solves_sinh_gordon(self):
        # the marched w is as smooth as the printed one: its residual is the
        # Laplacian's second-order truncation (5.6e-4 at 1/400); a march whose
        # residual converges at first order reads 2.2e-3 there
        res = [self.sampled_t2w(rect_grid(MARCH_RECT_SQRT2, h))[1] for h in (1 / 200, 1 / 400)]
        assert res[1] < 1e-3
        assert RATIO_BAND[0] <= res[0] / res[1] <= RATIO_BAND[1]

    @pytest.mark.parametrize("sampled", [False, True], ids=["analytic", "sampled"])
    @pytest.mark.parametrize("case", MARCH_CASES[-4:], ids=_case_id)  # the off-centre cases
    def test_block_bound_leaves_bits(self, case, sampled, monkeypatch):
        # one cell per coefficient call, or a whole sweep in one call
        want, _, _ = _march_case(case, sampled)
        for block in (1, 1 << 40):
            monkeypatch.setattr(backlund, "MARCH_BLOCK", block)
            got, _, _ = _march_case(case, sampled)
            assert np.array_equal(got.mask, want.mask)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("direction,fid", [("t2w", "THETA_SQRT2"), ("w2t", "W_SQRT2")])
    def test_callable_calls_linear_in_cells(self, direction, fid):
        # tabulation calls the callable a fixed number of times per block of
        # cells, never once per cell
        g = grid(0.0, 0.6, -0.3, 0.3, h=1 / 50)
        inner = scalar_callable(fid)
        calls = []

        def counted(x, y):
            calls.append(1)
            return inner(x, y)

        march = theta_to_w if direction == "t2w" else w_to_theta
        march(eval_family(fid, g), 0.5, analytic=counted)
        assert 0 < len(calls) <= 3 * ((g.nx - 1) + (g.ny - 1))


class TestClosedFormTanh:
    def grid_and_theta(self, h=H):
        g = grid(0.0, 0.6, -0.35, 0.35, h)
        return g, eval_family("THETA_SQRT2", g)

    def test_matches_printed_w(self):
        g, th = self.grid_and_theta()
        c = SQRT2 * np.tanh(SQRT2 * g.x())
        w = closed_form_w_tanh(th, c, 0.0)
        wp = eval_family("W_SQRT2", g)
        ok = w.mask & wp.mask
        assert np.abs(w.values - wp.values)[ok].max() < 1e-4

    def test_y_zero_slice_decay_identity(self):
        # along y = 0: tanh(w/2) = tanh(w00/2) e^{-2X(x)}
        g, th = self.grid_and_theta()
        c = SQRT2 * np.tanh(SQRT2 * g.x())
        w00 = 0.8
        w = closed_form_w_tanh(th, c, w00)
        j0 = g.index_of_y(0.0)
        X = cumulative_integral_x(field(g, np.sin(th.values), th.mask), 0.0).values[:, j0]
        expect = np.tanh(w00 / 2) * np.exp(-2 * X)
        got = np.tanh(w.values[:, j0] / 2)
        ok = w.mask[:, j0]
        assert np.abs(got - expect)[ok].max() < 1e-6

    def test_real_output_for_subcritical_c(self):
        g, th = self.grid_and_theta()
        c = SQRT2 * np.tanh(SQRT2 * g.x())  # |c| < 2 everywhere
        w = closed_form_w_tanh(th, c, 0.0)
        assert np.all(np.isfinite(w.values[w.mask]))

    def test_wrong_axis_length_rejected(self):
        g, th = self.grid_and_theta()
        with pytest.raises(ValueError):
            closed_form_w_tanh(th, np.zeros(g.nx + 1), 0.0)

    def test_singular_c_masked(self):
        g, th = self.grid_and_theta()
        c = np.full(g.nx, 2.0)  # L blows up at c = 2
        w = closed_form_w_tanh(th, c, 0.0)
        assert not w.mask.any()
