import numpy as np
import pytest

from gordon import acceptance
from gordon.backlund import BacklundPair
from gordon.families import eval_family, get_family, hopf_weight
from gordon.grid import SECOND_ORDER, complex_field, field, make_grid, make_metric, rect_grid, wirtinger
from gordon.harmonic import (
    correspondence_check,
    gaussian_curvature,
    hopf_residual,
    ppfd_construct,
    pullback_metric,
)

SQRT2 = np.sqrt(2.0)
H = 1 / 100
TOL = 16 * 1e-3


def grid(x0, x1, y0, y1, h=H):
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    return make_grid(x0, x1, y0, y1, max(nx, 5), max(ny, 5))


def sqrt2_pair(h=H):
    g = grid(0.0, 0.6, -0.35, 0.35, h)
    return BacklundPair(eval_family("W_SQRT2", g), eval_family("THETA_SQRT2", g), "closed forms")


class TestConstruction:
    def test_axis_row_identities(self):
        # along y = 0 both y-quadratures vanish, so S and R reduce to the
        # x-quadratures alone
        pair = sqrt2_pair()
        g = pair.grid
        res = ppfd_construct(pair, R0=1.5, S0=0.5)
        j0 = g.index_of_y(0.0)
        ok = res.u.mask[:, j0]
        assert np.abs(res.I2.values[:, j0][ok]).max() == 0.0
        assert np.abs(res.I4.values[:, j0][ok]).max() == 0.0
        S_row = 0.5 * np.exp(2 * res.I1.values[:, j0])
        R_row = 1.5 + 2 * 0.5 * res.I3.values[:, j0]
        assert np.abs(res.u.im[:, j0] - S_row)[ok].max() < 1e-14
        assert np.abs(res.u.re[:, j0] - R_row)[ok].max() < 1e-14

    def test_axis_quadrature_closed_form(self):
        # I1(x) = x - artanh(tanh(sqrt2 x)/sqrt2) for the tanh-profile pair
        pair = sqrt2_pair()
        g = pair.grid
        res = ppfd_construct(pair, R0=0.0, S0=0.5)
        j0 = g.index_of_y(0.0)
        x = g.x()
        expect = x - np.arctanh(np.tanh(SQRT2 * x) / SQRT2)
        ok = res.u.mask[:, j0]
        assert np.abs(res.I1.values[:, j0] - expect)[ok].max() < 1e-5

    def test_base_point_and_positivity(self):
        pair = sqrt2_pair()
        g = pair.grid
        res = ppfd_construct(pair, R0=-2.0, S0=0.25)
        i0, j0 = g.index_of_x(0.0), g.index_of_y(0.0)
        assert res.u.re[i0, j0] == -2.0
        assert res.u.im[i0, j0] == 0.25
        assert np.all(res.u.im[res.u.mask] > 0)

    @pytest.mark.parametrize("S0", [0.0, -1.0])
    def test_nonpositive_S0_rejected(self, S0):
        with pytest.raises(ValueError):
            ppfd_construct(sqrt2_pair(), R0=0.0, S0=S0)

    def test_missing_axis_line_rejected(self):
        g = grid(0.1, 0.6, -0.2, 0.2)  # no x = 0 line
        pair = BacklundPair(eval_family("W_SQRT2", g), eval_family("THETA_SQRT2", g), "closed forms")
        with pytest.raises(ValueError):
            ppfd_construct(pair, R0=0.0, S0=0.5)

    def test_result_is_harmonic(self):
        pair = sqrt2_pair()
        res = ppfd_construct(pair, R0=0.0, S0=0.5)
        assert hopf_residual(res.u, None, wirtinger(res.u)).sup_norm()[0] < TOL
        conv, r = correspondence_check(res.u, pair.w, wirtinger(res.u))
        assert conv == "exp(-2w)" and r.sup_norm()[0] < 0.1


class TestHopfResidual:
    def test_known_harmonic_map(self):
        # u = y + i sinh(2x)/2 satisfies the condition with the 1/S^2 weight
        g = grid(0.1, 0.9, -0.5, 0.5)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, Y, np.sinh(2 * X) / 2)
        assert hopf_residual(u, None, wirtinger(u)).sup_norm()[0] < TOL

    def test_negative_control(self):
        # u = x + i: dz_u dzbar_u = 1/4 and S = 1, so the defect is 3/4
        g = grid(-0.5, 0.5, -0.5, 0.5)
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, np.ones_like(X))
        r = hopf_residual(u, None, wirtinger(u))
        assert r.sup_norm()[0] == pytest.approx(0.75, abs=1e-12)

    def test_explicit_weight(self):
        # same defect detected through an explicit constant weight field
        g = grid(-0.5, 0.5, -0.5, 0.5)
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, np.ones_like(X))
        wgt = field(g, np.full((g.nx, g.ny), 4.0))
        assert hopf_residual(u, wgt, wirtinger(u)).sup_norm()[0] < 1e-12

    @pytest.mark.parametrize("fid", ["U_EX_SECTION3", "U_EX1", "U_EX2", "U_SQRT2"])
    def test_catalog_maps(self, fid):
        x0, x1, y0, y1 = get_family(fid).rectangle
        g = grid(x0, x1, y0, y1)
        u = eval_family(fid, g)
        sup, n = hopf_residual(u, hopf_weight(fid, g), wirtinger(u)).sup_norm()
        assert n > 100 and sup < TOL


class TestCorrespondence:
    def test_detects_positive_convention(self):
        # for u = y + i sinh(2x)/2 the derivative ratio is coth(x)^2, which is
        # e^{2w} for the decaying soliton w = 2 artanh(e^{-2x}); keep x away
        # from 0 so the ratio stays O(1)
        g = grid(0.4, 1.2, -0.5, 0.5)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, Y, np.sinh(2 * X) / 2)
        w = field(g, 2 * np.arctanh(np.exp(-2 * X)))
        conv, r = correspondence_check(u, w, wirtinger(u))
        assert conv == "exp(+2w)"
        assert r.sup_norm()[0] < 0.1

    def test_no_convention_for_unrelated_fields(self):
        g = grid(-0.5, 0.5, -0.5, 0.5)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, Y + 2.0)  # u = z + 2i: dzbar_u = 0
        w = field(g, np.zeros_like(X))
        conv, _ = correspondence_check(u, w, wirtinger(u))
        assert conv == "none"

    def test_grid_mismatch_rejected(self):
        g1 = grid(-0.5, 0.5, -0.5, 0.5)
        g2 = grid(-0.4, 0.4, -0.4, 0.4)
        X, Y = np.meshgrid(g1.x(), g1.y(), indexing="ij")
        u = complex_field(g1, X, Y + 2)
        with pytest.raises(ValueError):
            correspondence_check(u, field(g2, np.zeros((g2.nx, g2.ny))), wirtinger(u))


class TestGaussianCurvature:
    def poincare(self, scale=1.0, h=H):
        g = grid(0.0, 1.0, 8.0, 12.0, h)
        _, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        return g, make_metric(g, scale / Y**2, np.zeros_like(Y), scale / Y**2)

    def test_poincare_is_minus_one(self):
        _, m = self.poincare()
        K, orthogonal = gaussian_curvature(m, SECOND_ORDER)
        sup, n = field(m.grid, K.values + 1.0, K.mask).sup_norm()
        assert n > 100 and sup < 1e-4
        assert orthogonal

    def test_scaling_law(self):
        # K(c g) = K(g)/c for a constant conformal rescaling
        _, m4 = self.poincare(scale=4.0)
        K = gaussian_curvature(m4, SECOND_ORDER)[0]
        sup, _ = field(m4.grid, K.values + 0.25, K.mask).sup_norm()
        assert sup < 1e-4

    @pytest.mark.parametrize("fid,expect_rect", [("METRIC_SECTION3", None), ("METRIC_EX2", None)])
    def test_catalog_metrics(self, fid, expect_rect):
        x0, x1, y0, y1 = get_family(fid).rectangle
        g = grid(x0, x1, y0, y1)
        K = gaussian_curvature(eval_family(fid, g), SECOND_ORDER)[0]
        sup, n = field(g, K.values + 1.0, K.mask).sup_norm()
        assert n > 100 and sup < TOL

    def test_cross_term_fails_its_check(self):
        # shear the Poincare metric by a constant linear change of variables:
        # curvature is still -1, but Fc is genuinely nonzero, so the formula of
        # orthogonal coordinates does not apply and the check fails on its
        # orthogonality rule, with the sup below the tolerance
        g = grid(0.0, 1.0, 8.0, 12.0)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        lam = 1.0 / (X + Y) ** 2  # conformal factor evaluated at v = x + y
        # pullback of lam (du^2 + dv^2) under (u, v) = (x, x + y)
        m = make_metric(g, 2 * lam, lam, lam)
        check = acceptance._curvature_check("sheared", "sheared Poincare metric", m, 10.0)
        assert check.count > 100 and check.sup < check.tol and not check.passed
        assert not gaussian_curvature(m, SECOND_ORDER)[1]


class TestPullback:
    def test_degenerate_map_fully_masked(self):
        g = grid(-0.5, 0.5, -0.5, 0.5)
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, np.ones_like(X))  # rank-one differential
        m = pullback_metric(u, None, SECOND_ORDER)
        assert not m.mask.any()

    def test_matches_printed_target_metric(self):
        # the pullback of u (with its printed conformal weight) reproduces the
        # printed target metric coefficients
        g = grid(0.1, 0.5, -0.2, 0.2)
        u = eval_family("U_EX_SECTION3", g)
        m = pullback_metric(u, hopf_weight("U_EX_SECTION3", g), SECOND_ORDER)
        t = eval_family("METRIC_SECTION3", g)
        ok = m.mask & t.mask
        relE = np.abs(m.E[ok] - t.E[ok]) / np.abs(t.E[ok])
        relG = np.abs(m.G[ok] - t.G[ok]) / np.maximum(np.abs(t.G[ok]), 1.0)
        assert relE.max() < 1e-3 and relG.max() < 1e-3

    # U_EX2's curvature window is small, so it needs a finer grid to have a
    # usable interior; its tolerance scales with h^2 accordingly
    @pytest.mark.parametrize(
        "fid,h,tol",
        [
            ("U_EX_SECTION3", H, TOL),
            ("U_EX1", H, TOL),
            ("U_EX2", 1 / 400, 1e-3),
            ("U_SQRT2", H, TOL),
        ],
    )
    def test_pullback_curvature_minus_one(self, fid, h, tol):
        fam = get_family(fid)
        x0, x1, y0, y1 = fam.curvature_rect or fam.rectangle
        g = grid(x0, x1, y0, y1, h)
        u = eval_family(fid, g)
        K = gaussian_curvature(pullback_metric(u, hopf_weight(fid, g), SECOND_ORDER), SECOND_ORDER)[0]
        sup, n = field(g, K.values + 1.0, K.mask).sup_norm()
        assert n > 100 and sup < tol

    def test_coarse_pullback_with_a_cross_term_fails(self):
        # at h = 1/50 the discrete pullback of U_EX_SECTION3 has |Fc| up to
        # 1.29e-3 sqrt(det), past the orthogonality rule: its check fails
        # although the sup is below the tolerance
        fam = get_family("U_EX_SECTION3")
        g = rect_grid(fam.curvature_rect, 1 / 50)
        check = acceptance.pullback_check("coarse", fam.id, g, 1.0)
        assert check.count > 0 and check.sup < check.tol and not check.passed
