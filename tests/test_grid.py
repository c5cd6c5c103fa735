import contextlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gordon import grid
from gordon.grid import (
    MAX_POINTS,
    ComplexField,
    Grid2D,
    ScalarField,
    cumulative_integral_x,
    cumulative_integral_y,
    dump_complex_csv,
    dump_grid_sidecar,
    dump_scalar_csv,
    field,
    complex_field,
    laplacian,
    load_complex_csv,
    load_scalar_csv,
    make_grid,
    partial_x,
    partial_y,
    rect_grid,
    wirtinger,
)


def csv_oracle(g, names, columns, mask):
    """The documented format, point by point: header, y-major rows, `%.17g`, valid as 0/1."""
    x, y = g.x(), g.y()
    return ",".join(("x", "y", *names, "valid")) + "\n" + "".join(
        ",".join([f"{x[i]:.17g}", f"{y[j]:.17g}", *(f"{c[i, j]:.17g}" for c in columns),
                  str(int(mask[i, j]))]) + "\n"
        for j in range(g.ny) for i in range(g.nx)
    )


def sampled(g, fn):
    X, Y = g.mesh()
    return field(g, fn(X, Y))


class TestMakeGrid:
    def test_spacing(self):
        g = make_grid(0, 1, 0, 1, 5, 5)
        assert g.hx == 0.25 and g.hy == 0.25

    def test_spacing_fine(self):
        g = make_grid(-0.4, 0.4, -0.4, 0.4, 81, 81)
        assert g.hx == pytest.approx(0.01) and g.hy == pytest.approx(0.01)

    @pytest.mark.parametrize("nx,ny", [(4, 5), (5, 4), (1, 1)])
    def test_counts_too_small(self, nx, ny):
        with pytest.raises(ValueError):
            make_grid(0, 1, 0, 1, nx, ny)

    def test_unordered_bounds(self):
        with pytest.raises(ValueError):
            make_grid(1, 0, 0, 1, 5, 5)

    def test_index_lookup(self):
        g = make_grid(-1, 1, -1, 1, 21, 21)
        assert g.index_of_x(0.0) == 10
        assert g.index_of_y(-1.0) == 0
        with pytest.raises(ValueError):
            g.index_of_x(0.05)  # between grid lines


class TestLaplacian:
    def test_exact_on_quadratic(self):
        g = make_grid(0, 1, 0, 1, 21, 21)
        lap = laplacian(sampled(g, lambda x, y: x**2 + y**2))
        assert np.allclose(lap.values[lap.mask], 4.0, atol=1e-11)

    def test_zero_field(self):
        g = make_grid(0, 1, 0, 1, 9, 9)
        lap = laplacian(sampled(g, lambda x, y: 0 * x))
        assert np.all(lap.values == 0)

    def test_sin_accuracy(self):
        g = make_grid(0, 1, 0, 1, 101, 101)
        lap = laplacian(sampled(g, lambda x, y: np.sin(x)))
        X, _ = g.mesh()
        err = np.abs(lap.values + np.sin(X))[lap.mask]
        assert err.max() < 0.01**2 / 4  # fourth-derivative bound / 12 has margin

    def test_convergence_order(self):
        def err(n):
            g = make_grid(0, 1, 0, 1, n, n)
            lap = laplacian(sampled(g, lambda x, y: np.sin(x) * np.cos(y)))
            X, Y = g.mesh()
            return np.abs(lap.values + 2 * np.sin(X) * np.cos(Y))[lap.mask].max()

        ratio = err(51) / err(101)
        assert 3.5 <= ratio <= 4.5

    def test_mask_propagates(self):
        g = make_grid(0, 1, 0, 1, 9, 9)
        mask = np.ones((9, 9), dtype=bool)
        mask[4, 4] = False
        lap = laplacian(field(g, np.ones((9, 9)), mask))
        # the invalid point and its four neighbors are invalid in the output
        for i, j in [(4, 4), (3, 4), (5, 4), (4, 3), (4, 5)]:
            assert not lap.mask[i, j]
        assert lap.mask[2, 2]


class TestPartials:
    def test_exact_linear(self):
        g = make_grid(0, 1, 0, 1, 11, 11)
        px = partial_x(sampled(g, lambda x, y: x))
        assert np.allclose(px.values[px.mask], 1.0, atol=1e-13)

    def test_exact_bilinear(self):
        g = make_grid(0, 1, 0, 1, 11, 11)
        px = partial_x(sampled(g, lambda x, y: x * y))
        _, Y = g.mesh()
        assert np.allclose(px.values[px.mask], Y[px.mask], atol=1e-13)

    def test_exp_relative_accuracy(self):
        g = make_grid(0, 1, 0, 1, 101, 101)
        px = partial_x(sampled(g, lambda x, y: np.exp(x)))
        X, _ = g.mesh()
        rel = (np.abs(px.values - np.exp(X)) / np.exp(X))[px.mask]
        assert rel.max() < 2e-5

    def test_partial_y_boundary_mask(self):
        g = make_grid(0, 1, 0, 1, 9, 9)
        py = partial_y(sampled(g, lambda x, y: y))
        assert not py.mask[:, 0].any() and not py.mask[:, -1].any()
        assert py.mask[0, 1]  # x-boundary rows stay valid for a y-derivative


class TestWirtinger:
    def test_holomorphic_z(self):
        g = make_grid(-1, 1, -1, 1, 41, 41)
        X, Y = g.mesh()
        u = complex_field(g, X, Y)
        dz, dzb = wirtinger(u)
        assert np.allclose(dz.complex_values()[dz.mask], 1.0, atol=1e-12)
        assert np.allclose(dzb.complex_values()[dzb.mask], 0.0, atol=1e-12)

    def test_antiholomorphic_zbar(self):
        g = make_grid(-1, 1, -1, 1, 41, 41)
        X, Y = g.mesh()
        u = complex_field(g, X, -Y)
        dz, dzb = wirtinger(u)
        assert np.allclose(dz.complex_values()[dz.mask], 0.0, atol=1e-12)
        assert np.allclose(dzb.complex_values()[dzb.mask], 1.0, atol=1e-12)

    def test_half_plane_example(self):
        # u = y + i sinh(2x)/2 has dz_u = i (cosh(2x) - 1)/2
        g = make_grid(0.1, 0.9, -0.5, 0.5, 161, 161)
        X, Y = g.mesh()
        u = complex_field(g, Y, np.sinh(2 * X) / 2)
        dz, _ = wirtinger(u)
        expect = 1j * (np.cosh(2 * X) - 1) / 2
        err = np.abs(dz.complex_values() - expect)[dz.mask]
        assert err.max() < 5e-4  # stencil error at h = 1/200


class TestCumulativeIntegral:
    def test_constant_exact(self):
        g = make_grid(0, 1, 0, 1, 21, 21)
        c = cumulative_integral_x(sampled(g, lambda x, y: 1 + 0 * x), 0.0)
        X, _ = g.mesh()
        assert np.allclose(c.values, X, atol=1e-14)

    def test_linear_exact(self):
        g = make_grid(0, 1, 0, 1, 21, 21)
        c = cumulative_integral_x(sampled(g, lambda x, y: x), 0.0)
        X, _ = g.mesh()
        assert np.allclose(c.values, X**2 / 2, atol=1e-14)

    def test_cos_accuracy(self):
        g = make_grid(0, 1, 0, 1, 101, 101)
        c = cumulative_integral_x(sampled(g, lambda x, y: np.cos(x)), 0.0)
        X, _ = g.mesh()
        assert np.abs(c.values - np.sin(X)).max() < 1e-5

    def test_interior_anchor_and_y_direction(self):
        g = make_grid(0, 1, -1, 1, 11, 21)
        c = cumulative_integral_y(sampled(g, lambda x, y: y), 0.0)
        _, Y = g.mesh()
        assert np.allclose(c.values, Y**2 / 2, atol=1e-14)

    def test_off_grid_start_rejected(self):
        g = make_grid(0, 1, 0, 1, 11, 11)
        with pytest.raises(ValueError):
            cumulative_integral_x(sampled(g, lambda x, y: x), 0.123)

    def test_mask_blocks_integration_past_invalid(self):
        g = make_grid(0, 1, 0, 1, 11, 11)
        mask = np.ones((11, 11), dtype=bool)
        mask[5, :] = False
        c = cumulative_integral_x(field(g, np.ones((11, 11)), mask), 0.0)
        assert c.mask[4, 3] and not c.mask[5, 3] and not c.mask[7, 3]


class TestFieldNorms:
    def test_sup_norm_over_valid_points(self):
        g = make_grid(0, 1, 0, 1, 5, 5)
        v = np.zeros((5, 5))
        v[0, 0] = -100.0  # a valid frame point counts like any other
        v[2, 2] = 300.0
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        assert field(g, v, mask).sup_norm() == (100.0, 24)
        sup, n = field(g, v, np.zeros((5, 5), dtype=bool)).sup_norm()
        assert np.isnan(sup) and n == 0

    def test_nonfinite_masked(self):
        g = make_grid(0, 1, 0, 1, 5, 5)
        v = np.ones((5, 5))
        v[1, 1] = np.inf
        f = field(g, v)
        assert not f.mask[1, 1] and f.values[1, 1] == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_direct_construction_checks_valid_points_only(self, bad):
        g = make_grid(0, 1, 0, 1, 5, 5)
        v = np.ones((5, 5))
        v[1, 1] = bad
        mask = np.ones((5, 5), dtype=bool)
        with pytest.raises(ValueError, match="non-finite"):
            grid.ScalarField(g, v.copy(), mask.copy())
        with pytest.raises(ValueError, match="non-finite"):
            grid.ComplexField(g, np.ones((5, 5)), v.copy(), mask.copy())
        mask[1, 1] = False
        assert grid.ScalarField(g, v.copy(), mask.copy()).sup_norm() == (1.0, 24)
        c = grid.ComplexField(g, v.copy(), v.copy(), mask.copy())
        assert not c.mask[1, 1]


class TestCsvRoundTrip:
    def test_scalar(self, tmp_path):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = g.mesh()
        f = field(g, np.sin(X) + Y, np.abs(X + Y) > 0.3)
        p = tmp_path / "f.csv"
        dump_scalar_csv(f, str(p))
        back = load_scalar_csv(str(p))
        assert back.grid == g
        assert np.array_equal(back.mask, f.mask)
        assert np.array_equal(back.values, f.values)

    def test_complex(self, tmp_path):
        g = make_grid(0, 1, 0, 1, 6, 5)
        X, Y = g.mesh()
        u = complex_field(g, X, Y + 1)
        p = tmp_path / "u.csv"
        dump_complex_csv(u, str(p))
        back = load_complex_csv(str(p))
        assert back.grid == g
        assert np.array_equal(back.re, u.re) and np.array_equal(back.im, u.im)

    def test_bytes(self, tmp_path):
        g = make_grid(-0.3, 0.7, -1, 0, 5, 6)
        X, Y = g.mesh()
        u = complex_field(g, np.exp(X) * np.cos(Y), Y**3 / 3 - X, np.abs(X + Y) > 0.4)
        f = field(g, u.re, u.mask)
        p = tmp_path / "u.csv"
        dump_complex_csv(u, str(p))
        assert p.read_text() == csv_oracle(g, ("re", "im"), (u.re, u.im), u.mask)
        dump_scalar_csv(f, str(p))
        assert p.read_text() == csv_oracle(g, ("value",), (f.values,), f.mask)

    def test_special_values(self, tmp_path):
        # signed zero, the least subnormal and magnitudes beyond the cap at
        # valid points, nan and infinities where the mask is False; nx != ny
        g = make_grid(-1.5, 2.25, 1e-3, 0.5, 7, 5)
        mask = np.ones((7, 5), dtype=bool)
        mask[[1, 3, 6], [4, 0, 2]] = False
        re = np.linspace(-3, 3, 35).reshape(7, 5) ** 3
        im = re[::-1].copy()
        re[0, :4], im[2, 1:] = [-0.0, 5e-324, 1e300, -1e300], [-1e300, -0.0, 5e-324, 1e300]
        re[~mask], im[~mask] = [np.nan, np.inf, -np.inf], [-np.inf, np.nan, np.inf]
        p = tmp_path / "u.csv"
        for fld, names, cols, dump, load in [
            (ScalarField(g, re, mask), ("value",), (re,), dump_scalar_csv, load_scalar_csv),
            (ComplexField(g, re, im, mask), ("re", "im"), (re, im), dump_complex_csv, load_complex_csv),
        ]:
            dump(fld, str(p))
            assert p.read_text() == csv_oracle(g, names, cols, mask)
            back = load(str(p))
            assert back.grid == g and np.array_equal(back.mask, mask)
            for a, b in zip(cols, (back.values,) if len(cols) == 1 else (back.re, back.im)):
                assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("edit", ["swap", "drop", "shift"])
    def test_rows_off_the_grid_rejected(self, edit, tmp_path):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = g.mesh()
        p = tmp_path / "f.csv"
        dump_scalar_csv(field(g, X + Y), str(p))
        lines = p.read_text().splitlines(True)
        if edit == "swap":
            lines[3], lines[4] = lines[4], lines[3]
        elif edit == "drop":
            del lines[10]
        else:  # an x that misses its grid line by more than the tolerance
            row = lines[3].split(",")
            lines[3] = ",".join([repr(float(row[0]) + 1e-6)] + row[1:])
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match="y-major"):
            load_scalar_csv(str(p))

    @pytest.mark.parametrize("dump,load", [(dump_scalar_csv, load_scalar_csv),
                                           (dump_complex_csv, load_complex_csv)],
                             ids=["scalar", "complex"])
    @pytest.mark.parametrize("bad", ["0.5", "7", "-1", "nan"])
    def test_valid_column_is_0_or_1(self, dump, load, bad, tmp_path):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = g.mesh()
        p = tmp_path / "f.csv"
        dump(complex_field(g, X, Y + 2) if dump is dump_complex_csv else field(g, X + Y), str(p))
        lines = p.read_text().splitlines(True)
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{bad}\n"
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match="valid column"):
            load(str(p))

    def test_sidecar(self, tmp_path):
        import json

        g = make_grid(0, 2, -1, 1, 9, 11)
        p = tmp_path / "g.json"
        dump_grid_sidecar(g, str(p))
        assert Grid2D.from_json(json.loads(p.read_text())) == g

    def test_rows_must_be_the_sidecar_grid(self, tmp_path):
        # a file cut at a whole grid row is still a grid, just not the dumped one
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = g.mesh()
        p = tmp_path / "f.csv"
        dump_scalar_csv(field(g, X + Y), str(p))
        dump_grid_sidecar(g, str(p) + ".grid.json")
        assert load_scalar_csv(str(p)).grid == g
        p.write_text("".join(p.read_text().splitlines(True)[:-g.nx]))
        with pytest.raises(ValueError, match="sidecar"):
            load_scalar_csv(str(p))

    def test_interrupted_dump_keeps_old_file(self, tmp_path, monkeypatch):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = g.mesh()
        p = tmp_path / "f.csv"
        dump_scalar_csv(field(g, X + Y), str(p))
        old = p.read_bytes()
        written = []
        real_open = grid.atomic_open

        class Interrupted:
            """The real handle, whose writes fail once the header and one grid line are in."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, s):
                if len(written) == 2:
                    raise RuntimeError("interrupted")
                written.append(s)
                return self.fh.write(s)

        @contextlib.contextmanager
        def interrupted_open(path):
            with real_open(path) as fh:
                yield Interrupted(fh)

        monkeypatch.setattr(grid, "atomic_open", interrupted_open)
        with pytest.raises(RuntimeError, match="interrupted"):
            dump_scalar_csv(field(g, X - Y), str(p))
        assert "".join(written).count("\n") == 1 + g.nx  # failed partway: header and one grid line
        assert p.read_bytes() == old
        assert sorted(f.name for f in tmp_path.iterdir()) == ["f.csv"]


class TestRectGrid:
    def test_spacing_and_minimum_points(self):
        g = rect_grid((0.0, 1.0, -0.5, 0.5), 0.01)
        assert (g.nx, g.ny) == (101, 101)
        g = rect_grid((0.0, 1.0, -0.5, 0.5), 10.0)
        assert (g.nx, g.ny) == (5, 5)

    @pytest.mark.parametrize("h", [0.0, -0.01, float("nan"), float("inf"), float("-inf")])
    def test_bad_spacing_rejected(self, h):
        with pytest.raises(ValueError, match="spacing"):
            rect_grid((0.0, 1.0, 0.0, 1.0), h)

    def test_symmetric_axis_has_even_cell_count(self):
        # 0.7 / 0.003 = 233.3 cells would put no grid line on y = 0
        g = rect_grid((0.0, 0.6, -0.35, 0.35), 0.003)
        assert (g.nx, g.ny) == (201, 235)
        assert g.y()[g.index_of_y(0.0)] == 0.0
        assert rect_grid((-0.25, 0.25, -0.3, 0.3), 0.01).nx == 51  # already even

    @pytest.mark.parametrize("h", [1e-320, 5e-324])
    def test_non_finite_point_count_rejected(self, h):
        with pytest.raises(ValueError, match="finite point count"):
            rect_grid((0.0, 1.0, 0.0, 1.0), h)

    def test_point_limit(self):
        make_grid(0, 1, 0, 1, 10**4, 10**4)  # exactly MAX_POINTS; nothing is allocated
        with pytest.raises(ValueError, match="exceeds"):
            make_grid(0, 1, 0, 1, MAX_POINTS // 5 + 1, 5)
        with pytest.raises(ValueError, match="exceeds"):
            rect_grid((0.0, 1.0, 0.0, 1.0), 1e-7)

    def test_refined_halves_the_spacing(self):
        g = make_grid(0, 1, -1, 1, 5, 9)
        r = g.refined()
        assert (r.x0, r.x1, r.y0, r.y1, r.nx, r.ny) == (0, 1, -1, 1, 9, 17)
        assert r.hx == g.hx / 2 and r.hy == g.hy / 2


# ---------------------------------------------------------------------------
# properties of the mask propagation and the anchored quadrature

FAST = settings(max_examples=40, deadline=None)
# a grid has at least five points per axis
grid_masks = st.tuples(st.integers(5, 9), st.integers(5, 9)).flatmap(
    lambda shape: arrays(bool, shape)
)


def contiguous_valid_oracle(mask, k0, axis):
    """Two loops outward from k0, each carrying the running AND."""
    m = np.moveaxis(mask, axis, 0)
    out = np.zeros_like(m)
    out[k0] = m[k0]
    acc = m[k0].copy()
    for k in range(k0 + 1, m.shape[0]):
        acc = acc & m[k]
        out[k] = acc
    acc = m[k0].copy()
    for k in range(k0 - 1, -1, -1):
        acc = acc & m[k]
        out[k] = acc
    return np.moveaxis(out, 0, axis)


# values the text format must carry exactly: signed zeros, subnormals, and
# magnitudes far beyond the magnitude cap
special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                           1e300, -1e300])
values64 = st.one_of(special, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def grids(draw):
    x0, y0 = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
    wx, wy = draw(st.floats(0.01, 10)), draw(st.floats(0.01, 10))
    return Grid2D(x0, x0 + wx, y0, y0 + wy, draw(st.integers(5, 12)), draw(st.integers(5, 12)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestCsvRoundTripProperty:
    """dump, sidecar, load: grid, mask and every value come back bit for bit."""

    @FAST
    @given(grids(), st.data())
    def test_scalar(self, g, data):
        shape = (g.nx, g.ny)
        f = ScalarField(g, data.draw(arrays(float, shape, elements=values64)),
                        data.draw(arrays(bool, shape)))
        back = self._round_trip(f, g, dump_scalar_csv, load_scalar_csv)
        assert np.array_equal(_bits(back.values), _bits(f.values))
        assert np.array_equal(back.mask, f.mask)

    @FAST
    @given(grids(), st.data())
    def test_complex(self, g, data):
        shape = (g.nx, g.ny)
        u = ComplexField(g, data.draw(arrays(float, shape, elements=values64)),
                         data.draw(arrays(float, shape, elements=values64)),
                         data.draw(arrays(bool, shape)))
        back = self._round_trip(u, g, dump_complex_csv, load_complex_csv)
        assert np.array_equal(_bits(back.re), _bits(u.re))
        assert np.array_equal(_bits(back.im), _bits(u.im))
        assert np.array_equal(back.mask, u.mask)

    @staticmethod
    def _round_trip(f, g, dump, load):
        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/f.csv"
            dump(f, p)
            dump_grid_sidecar(g, p + ".grid.json")
            back = load(p)
        assert back.grid == g
        return back


class TestMaskProperties:
    """The stencil frame and the anchored quadrature, through the public operators."""

    @staticmethod
    def on_grid(values, mask):
        nx, ny = mask.shape
        return ScalarField(Grid2D(-1.0, 2.0, -1.0, 2.0, nx, ny), values, mask)

    @staticmethod
    def integral(f, k0, axis):
        g = f.grid
        return cumulative_integral_x(f, g.x()[k0]) if axis == 0 else cumulative_integral_y(f, g.y()[k0])

    @FAST
    @given(grid_masks, st.integers(0, 1), st.data())
    def test_contiguous_valid_matches_loops(self, mask, axis, data):
        k0 = data.draw(st.integers(0, mask.shape[axis] - 1))
        c = self.integral(self.on_grid(np.zeros(mask.shape), mask), k0, axis)
        assert np.array_equal(c.mask, contiguous_valid_oracle(mask, k0, axis))

    @FAST
    @given(grid_masks)
    def test_stencil_masks_per_point(self, mask):
        nx, ny = mask.shape
        along_x, along_y, expect = (np.zeros_like(mask) for _ in range(3))
        for i in range(nx):
            for j in range(ny):
                along_x[i, j] = 0 < i < nx - 1 and all(mask[i + d, j] for d in (-1, 0, 1))
                along_y[i, j] = 0 < j < ny - 1 and all(mask[i, j + d] for d in (-1, 0, 1))
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                expect[i, j] = all(mask[i + di, j + dj] for di, dj in
                                   ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
        f = self.on_grid(np.zeros(mask.shape), mask)
        assert np.array_equal(partial_x(f).mask, along_x)
        assert np.array_equal(partial_y(f).mask, along_y)
        assert np.array_equal(laplacian(f).mask, expect)

    @FAST
    @given(grid_masks.flatmap(lambda m: arrays(float, m.shape, elements=st.floats(-1e6, 1e6))),
           st.integers(0, 1), st.data())
    def test_cumtrapz_zero_at_anchor(self, values, axis, data):
        n = values.shape[axis]
        k0 = data.draw(st.integers(0, n - 1))
        f = self.on_grid(values, np.ones(values.shape, bool))
        c = self.integral(f, k0, axis)
        assert np.all(np.take(c.values, k0, axis=axis) == 0.0)
        # the trapezoid summed in ascending index order from index 0, less its value at k0
        t, v = (f.grid.x(), f.grid.y())[axis], np.moveaxis(values, axis, 0)
        acc = [np.zeros(v.shape[1:])]
        for k in range(n - 1):
            acc.append(acc[-1] + (v[k + 1] + v[k]) / 2 * (t[k + 1] - t[k]))
        assert np.array_equal(_bits(c.values), _bits(np.moveaxis(np.array(acc) - acc[k0], 0, axis)))
