import dataclasses

import numpy as np
import pytest

from gordon.families import (
    CATALOG,
    eval_family,
    get_family,
    hopf_weight,
    residual_sine_gordon,
    residual_sinh_gordon,
    scalar_callable,
    sign_probe,
    u_ex1,
    u_ex_section3,
    w_one_soliton,
)
from gordon.grid import (
    MAGNITUDE_CAP,
    ComplexField,
    MetricSample,
    ScalarField,
    _capped,
    complex_field,
    field,
    laplacian,
    make_grid,
    make_metric,
)

H = 1 / 100  # unit tests run coarse; acceptance re-checks at 1/400
TOL = 16 * 1e-3  # second-order scaling of the 1e-3 floor from h = 1/400


def family_grid(fid, h=H):
    x0, x1, y0, y1 = get_family(fid).rectangle
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    return make_grid(x0, x1, y0, y1, max(nx, 5), max(ny, 5))


class TestCatalog:
    def test_thirteen_families(self):
        assert len(CATALOG) == 13

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown family id: W_UNKNOWN"):
            get_family("W_UNKNOWN")

    def test_kinds(self):
        kinds = {f.kind for f in CATALOG.values()}
        assert kinds == {"sinh_solution", "sine_solution", "harmonic_map", "target_metric"}

    def test_sine_signs_recorded(self):
        assert get_family("THETA_EX2").sign == -1
        assert get_family("THETA_SQRT2").sign == -1
        assert get_family("THETA_CONST_HALFPI").sign == 0


class TestEvalPointValues:
    def test_w_tan_special_origin(self):
        g = make_grid(-0.1, 0.1, -0.1, 0.1, 5, 5)
        w = eval_family("W_TAN_SPECIAL", g)
        assert w.values[2, 2] == 0.0 and w.mask[2, 2]

    def test_one_soliton_value(self):
        # at exp(2x) = 1/3 the solution equals 2 artanh(1/3) = ln 2
        x = -0.5 * np.log(3.0)
        v, ok = w_one_soliton(np.array(x), 0.0)
        assert ok and v == pytest.approx(np.log(2.0), abs=1e-14)

    def test_one_soliton_domain(self):
        g = make_grid(-1, 1, -1, 1, 21, 21)
        w = eval_family("W_ONE_SOLITON", g)
        i0, _ = g.origin()
        assert not w.mask[i0 + 5, 0]  # x = 0.5: artanh leaves its domain for x >= 0
        assert w.mask[i0 - 5, 0]  # x = -0.5

    def test_u_section3_origin_on_boundary(self):
        R, S, ok = u_ex_section3(np.array(0.0), np.array(0.0))
        assert R == 1.0 and S == 0.0 and not ok  # S = 0 is the half-plane boundary

    def test_u_families_upper_half_plane(self):
        for fid in ("U_EX_SECTION3", "U_EX1", "U_EX2", "U_SQRT2"):
            u = eval_family(fid, family_grid(fid))
            assert np.all(u.im[u.mask] > 0), fid


class TestResiduals:
    def test_zero_field_sinh(self):
        g = make_grid(-1, 1, -1, 1, 9, 9)
        z = field(g, np.zeros((9, 9)))
        r = residual_sinh_gordon(z, laplacian(z))
        assert r.sup_norm()[0] == 0.0

    def test_zero_field_sine_both_signs(self):
        g = make_grid(-1, 1, -1, 1, 9, 9)
        z = field(g, np.zeros((9, 9)))
        assert residual_sine_gordon(z, +1, laplacian(z)).sup_norm()[0] == 0.0
        assert residual_sine_gordon(z, -1, laplacian(z)).sup_norm()[0] == 0.0

    def test_bad_sigma_rejected(self):
        g = make_grid(-1, 1, -1, 1, 9, 9)
        with pytest.raises(ValueError):
            z = field(g, np.zeros((9, 9)))
            residual_sine_gordon(z, 2, laplacian(z))

    @pytest.mark.parametrize("fid", ["W_TAN_SPECIAL", "W_ONE_SOLITON", "W_EX2", "W_SQRT2"])
    def test_sinh_families(self, fid):
        w = eval_family(fid, family_grid(fid))
        sup, n = residual_sinh_gordon(w, laplacian(w)).sup_norm()
        assert n > 100 and sup < TOL

    @pytest.mark.parametrize("fid", ["THETA_EX2", "THETA_SQRT2"])
    def test_sine_families(self, fid):
        fam = get_family(fid)
        th = eval_family(fid, family_grid(fid))
        sup, n = residual_sine_gordon(th, fam.sign, laplacian(th)).sup_norm()
        assert n > 100 and sup < TOL

    def test_tan_special_symmetry(self):
        # the formula is symmetric in (x, y): mask and residual transpose-invariant
        g = make_grid(-0.3, 0.3, -0.3, 0.3, 61, 61)
        w = eval_family("W_TAN_SPECIAL", g)
        assert np.array_equal(w.mask, w.mask.T)
        r = residual_sinh_gordon(w, laplacian(w))
        assert np.abs(r.values - r.values.T).max() < 1e-12


class TestSignProbe:
    def test_constant_half_pi_undetermined(self):
        th = eval_family("THETA_CONST_HALFPI", family_grid("THETA_CONST_HALFPI"))
        assert sign_probe(th, laplacian(th)) == 0

    def test_theta_ex2_definite(self):
        th = eval_family("THETA_EX2", family_grid("THETA_EX2"))
        assert sign_probe(th, laplacian(th)) == -1

    def test_theta_sqrt2_definite(self):
        th = eval_family("THETA_SQRT2", family_grid("THETA_SQRT2"))
        assert sign_probe(th, laplacian(th)) == -1

    def test_too_few_points(self):
        g = make_grid(-1, 1, -1, 1, 5, 5)
        with pytest.raises(ValueError):
            z = field(g, np.zeros((5, 5)))
            sign_probe(z, laplacian(z))


class TestHopfWeight:
    def test_poincare_families_have_none(self):
        g = family_grid("U_EX1")
        assert hopf_weight("U_EX1", g) is None
        assert hopf_weight("U_SQRT2", g) is None

    def test_explicit_weights_positive(self):
        for fid in ("U_EX_SECTION3", "U_EX2"):
            g = family_grid(fid)
            wgt = hopf_weight(fid, g)
            assert wgt is not None and np.all(wgt.values[wgt.mask] > 0)


SCALAR_KINDS = ("sinh_solution", "sine_solution")
CONTAINERS = {
    "sinh_solution": ScalarField,
    "sine_solution": ScalarField,
    "harmonic_map": ComplexField,
    "target_metric": MetricSample,
}


class TestCatalogRecords:
    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_record_is_complete(self, fid):
        fam = CATALOG[fid]
        g = make_grid(*fam.rectangle, 9, 9)
        assert isinstance(eval_family(fid, g), CONTAINERS[fam.kind])
        assert (scalar_callable(fid) is not None) == (fam.kind in SCALAR_KINDS)
        if fam.kind in SCALAR_KINDS:  # the marches call it on a column of x and a row of y
            assert scalar_callable(fid)(g.x()[:, None], g.y()).shape == (g.nx, g.ny)
        if fam.kind == "harmonic_map":
            partner = CATALOG[fam.partner]
            assert partner.kind == "sinh_solution"
            assert set(fam.partner_params) <= set(partner.params)
            assert isinstance(eval_family(fam.partner, g, fam.partner_params), ScalarField)
        else:
            assert fam.weight is None and hopf_weight(fid, g) is None

    def test_unknown_id_has_no_weight_or_callable(self):
        g = make_grid(-1, 1, -1, 1, 9, 9)
        with pytest.raises(ValueError, match="unknown family id: U_NOPE"):
            hopf_weight("U_NOPE", g)
        assert scalar_callable("U_NOPE") is None


class TestParams:
    def test_declared_params_are_used(self):
        g = make_grid(0.3, 1.0, -0.5, 0.5, 9, 9)
        assert CATALOG["U_EX1"].params == {"eps": 1.0}
        flipped = eval_family("U_EX1", g, {"eps": -1.0})
        assert not flipped.mask.any()  # S = -sinh(2x)/2 < 0 leaves the half-plane
        w = eval_family("W_ONE_SOLITON", make_grid(0.3, 1.2, -0.5, 0.5, 9, 9), {"exponent_sign": -1})
        assert w.mask.all()

    @pytest.mark.parametrize("params", [{"bogus": 1}, {"eps": 1.0, "exponent_sign": 1.0}])
    def test_undeclared_key_rejected(self, params):
        g = make_grid(0.3, 1.0, -0.5, 0.5, 9, 9)
        with pytest.raises(ValueError, match="does not declare"):
            eval_family("U_EX1", g, params)

    @pytest.mark.parametrize("value", ["a", None, True, [1.0], float("nan"), float("inf"), 1j])
    def test_non_real_value_rejected(self, value):
        g = make_grid(0.3, 1.0, -0.5, 0.5, 9, 9)
        with pytest.raises(ValueError, match="finite real number"):
            eval_family("U_EX1", g, {"eps": value})

    def test_params_must_be_a_mapping(self):
        g = make_grid(0.2, 1.0, -0.35, 0.35, 9, 9)
        with pytest.raises(ValueError, match="JSON object"):
            eval_family("W_SQRT2", g, [1])


OFF_CENTRE = make_grid(-0.31, 0.97, -0.43, 0.52, 97, 131)  # nx != ny, no symmetry about 0
BUILD = {"harmonic_map": complex_field, "target_metric": make_metric}


def arrays(container):
    return [getattr(container, f.name) for f in dataclasses.fields(container)[1:]]


def assert_same_bits(got, want, g):
    assert type(got) is type(want)
    for a, b in zip(arrays(got), arrays(want), strict=True):
        assert a.shape == (g.nx, g.ny) and a.dtype == b.dtype
        assert not a.flags.writeable
        assert a.tobytes() == b.tobytes()  # bits, so -0.0 and 0.0 differ


class TestOpenGrid:
    """eval_family and hopf_weight call the evaluators on a column of x and a row
    of y; the result must be that of the full mesh, bit for bit."""

    @staticmethod
    def mesh(g):
        return np.meshgrid(g.x(), g.y(), indexing="ij")

    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_family_equals_mesh(self, fid):
        fam, g = CATALOG[fid], OFF_CENTRE
        with np.errstate(all="ignore"):  # the window leaves some rectangles' smooth regions
            got = eval_family(fid, g)
            want = BUILD.get(fam.kind, field)(g, *fam.evaluate(*self.mesh(g), **fam.params))
        assert_same_bits(got, want, g)

    @pytest.mark.parametrize("fid", sorted(f.id for f in CATALOG.values() if f.kind == "harmonic_map"))
    def test_weight_equals_mesh(self, fid):
        fam, g = CATALOG[fid], OFF_CENTRE
        if fam.weight is None:
            assert hopf_weight(fid, g) is None
            return
        with np.errstate(all="ignore"):
            got, want = hopf_weight(fid, g), field(g, *fam.weight(*self.mesh(g)))
        assert_same_bits(got, want, g)

    def test_evaluator_gets_a_column_and_a_row(self, monkeypatch):
        # U_EX1's S = sinh(2x)/2 and its mask come back with the shape of the x axis
        g, seen = OFF_CENTRE, []

        def spy(x, y, **params):
            out = u_ex1(x, y, **params)
            seen.append((x.shape, y.shape) + tuple(a.shape for a in out))
            return out

        monkeypatch.setitem(CATALOG, "U_EX1", dataclasses.replace(CATALOG["U_EX1"], evaluate=spy))
        u = eval_family("U_EX1", g)
        assert seen == [((g.nx, 1), (1, g.ny), (g.nx, g.ny), (g.nx, 1), (g.nx, 1))]
        assert u.im.shape == (g.nx, g.ny) and np.all(u.im == u.im[:, :1])

    def test_capped_equals_finite_and_bounded(self):
        cap = MAGNITUDE_CAP
        a = np.array([np.nan, np.inf, -np.inf, cap, -cap, np.nextafter(cap, np.inf),
                      np.nextafter(cap, 0), -np.nextafter(cap, np.inf), -np.nextafter(cap, 0),
                      0.0, -0.0, 1.0, 5e-324, np.finfo(float).max])
        assert np.array_equal(_capped(a), np.isfinite(a) & (np.abs(a) <= cap))
        assert _capped(a).tolist()[:7] == [False, False, False, True, True, False, True]
