import contextlib
import dataclasses
import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gordon import grid
from gordon.families import CATALOG, eval_family
from gordon.grid import (
    MAX_POINTS,
    SECOND_ORDER,
    ComplexField,
    Grid2D,
    MetricSample,
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
    make_metric,
    node_slopes,
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
    X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
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
        assert make_grid(-1, 1, -1, 1, 21, 21).origin() == (10, 10)
        assert make_grid(0, 1, -1, 0, 11, 11).origin() == (0, 10)
        with pytest.raises(ValueError, match="x = 0.0 does not coincide"):
            make_grid(-1, 1, -1, 1, 20, 21).origin()  # 0 between grid lines
        with pytest.raises(ValueError, match="y = 0.0 does not coincide"):
            make_grid(-1, 1, 0.5, 1, 21, 21).origin()  # 0 outside the grid


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
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        err = np.abs(lap.values + np.sin(X))[lap.mask]
        assert err.max() < 0.01**2 / 4  # fourth-derivative bound / 12 has margin

    def test_convergence_order(self):
        def err(n):
            g = make_grid(0, 1, 0, 1, n, n)
            lap = laplacian(sampled(g, lambda x, y: np.sin(x) * np.cos(y)))
            X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
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
        _, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        assert np.allclose(px.values[px.mask], Y[px.mask], atol=1e-13)

    def test_exp_relative_accuracy(self):
        g = make_grid(0, 1, 0, 1, 101, 101)
        px = partial_x(sampled(g, lambda x, y: np.exp(x)))
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        rel = (np.abs(px.values - np.exp(X)) / np.exp(X))[px.mask]
        assert rel.max() < 2e-5

    def test_partial_y_boundary_mask(self):
        g = make_grid(0, 1, 0, 1, 9, 9)
        py = partial_y(sampled(g, lambda x, y: y))
        assert not py.mask[:, 0].any() and not py.mask[:, -1].any()
        assert py.mask[0, 1]  # x-boundary rows stay valid for a y-derivative


class TestNodeSlopes:
    @pytest.mark.parametrize("n", [5, 40])
    def test_exact_on_a_quartic(self, n):
        # every rule, the one-sided ones at the two nodes nearest each end
        # too, differentiates a quartic exactly: only rounding is left
        c = np.random.default_rng(n).standard_normal((5, 3))  # three quartics, one per column
        x = np.linspace(-0.4, 0.7, n)
        v = np.polynomial.polynomial.polyval(x, c).T
        want = np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(c)).T
        got = node_slopes(v, 1.1 / (n - 1))
        assert got.shape == (n, 3)
        assert np.abs(got - want).max() < 1e-13 * n  # 2.2e-15 and 5.8e-14 measured


class TestWirtinger:
    def test_holomorphic_z(self):
        g = make_grid(-1, 1, -1, 1, 41, 41)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, Y)
        dz, dzb = wirtinger(u)
        assert np.allclose(dz.complex_values()[dz.mask], 1.0, atol=1e-12)
        assert np.allclose(dzb.complex_values()[dzb.mask], 0.0, atol=1e-12)

    def test_antiholomorphic_zbar(self):
        g = make_grid(-1, 1, -1, 1, 41, 41)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, -Y)
        dz, dzb = wirtinger(u)
        assert np.allclose(dz.complex_values()[dz.mask], 0.0, atol=1e-12)
        assert np.allclose(dzb.complex_values()[dzb.mask], 1.0, atol=1e-12)

    def test_half_plane_example(self):
        # u = y + i sinh(2x)/2 has dz_u = i (cosh(2x) - 1)/2
        g = make_grid(0.1, 0.9, -0.5, 0.5, 161, 161)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, Y, np.sinh(2 * X) / 2)
        dz, _ = wirtinger(u)
        expect = 1j * (np.cosh(2 * X) - 1) / 2
        err = np.abs(dz.complex_values() - expect)[dz.mask]
        assert err.max() < 5e-4  # stencil error at h = 1/200


class TestSecondOrder:
    """SECOND_ORDER holds the module's stencils and looks each up by name when called."""

    G = make_grid(0.1, 0.9, -0.5, 0.5, 17, 21)

    def fields(self):
        X, Y = np.meshgrid(self.G.x(), self.G.y(), indexing="ij")
        return field(self.G, np.sin(X) * Y**2), complex_field(self.G, Y, np.sinh(2 * X) / 2)

    def test_the_module_stencils_bit_for_bit(self):
        f, u = self.fields()
        pairs = [(SECOND_ORDER.d(f, 0), partial_x(f)), (SECOND_ORDER.d(f, 1), partial_y(f)),
                 (SECOND_ORDER.lap(f), laplacian(f)),
                 *zip(SECOND_ORDER.partials(u), grid.partials(u)), *zip(SECOND_ORDER.wirtinger(u), wirtinger(u))]
        for got, want in pairs:
            assert type(got) is type(want)
            assert all(np.array_equal(getattr(got, k.name), getattr(want, k.name))
                       for k in dataclasses.fields(want)[1:])

    # a tracer wraps a stencil by rebinding its module attribute; every check
    # takes its derivatives through SECOND_ORDER, so it must see the wrapper
    @pytest.mark.parametrize("name,call", [
        ("partial_x", lambda f, u: SECOND_ORDER.d(f, 0)),
        ("partial_y", lambda f, u: SECOND_ORDER.d(f, 1)),
        ("laplacian", lambda f, u: SECOND_ORDER.lap(f)),
        ("partials", lambda f, u: SECOND_ORDER.partials(u)),
        ("wirtinger", lambda f, u: SECOND_ORDER.wirtinger(u)),
    ])
    def test_a_rebound_stencil_is_seen(self, name, call, monkeypatch):
        sentinel = object()
        monkeypatch.setattr(grid, name, lambda *args: sentinel)
        assert call(*self.fields()) is sentinel


class TestCumulativeIntegral:
    def test_constant_exact(self):
        g = make_grid(0, 1, 0, 1, 21, 21)
        c = cumulative_integral_x(sampled(g, lambda x, y: 1 + 0 * x))
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        assert np.allclose(c.values, X, atol=1e-14)

    def test_linear_exact(self):
        g = make_grid(0, 1, 0, 1, 21, 21)
        c = cumulative_integral_x(sampled(g, lambda x, y: x))
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        assert np.allclose(c.values, X**2 / 2, atol=1e-14)

    def test_cos_accuracy(self):
        g = make_grid(0, 1, 0, 1, 101, 101)
        c = cumulative_integral_x(sampled(g, lambda x, y: np.cos(x)))
        X, _ = np.meshgrid(g.x(), g.y(), indexing="ij")
        assert np.abs(c.values - np.sin(X)).max() < 1e-5

    def test_interior_anchor_and_y_direction(self):
        g = make_grid(0, 1, -1, 1, 11, 21)
        c = cumulative_integral_y(sampled(g, lambda x, y: y))
        _, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        assert np.allclose(c.values, Y**2 / 2, atol=1e-14)

    def test_off_grid_start_rejected(self):
        g = make_grid(-0.05, 0.95, 0, 1, 11, 11)  # x = 0 falls between grid lines
        with pytest.raises(ValueError, match="x = 0.0 does not coincide"):
            cumulative_integral_x(sampled(g, lambda x, y: x))

    def test_mask_blocks_integration_past_invalid(self):
        g = make_grid(0, 1, 0, 1, 11, 11)
        mask = np.ones((11, 11), dtype=bool)
        mask[5, :] = False
        c = cumulative_integral_x(field(g, np.ones((11, 11)), mask))
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
        one = np.ones((5, 5))
        builds = (lambda v, m: ScalarField(g, v, m), lambda v, m: ComplexField(g, one, v, m),
                  lambda v, m: MetricSample(g, one, v, one, m))
        mask = np.ones((5, 5), dtype=bool)
        for build in builds:
            with pytest.raises(ValueError, match="field has non-finite values at valid points"):
                build(v.copy(), mask.copy())
        mask[1, 1] = False
        for build in builds:
            assert not build(v.copy(), mask.copy()).mask[1, 1]
        assert grid.ScalarField(g, v.copy(), mask.copy()).sup_norm() == (1.0, 24)

    def test_built_arrays_are_read_only(self):
        g = make_grid(0, 1, 0, 1, 5, 5)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        f, u, m = field(g, X), complex_field(g, X, Y), make_metric(g, 1 + X, Y / 10, 1 + Y**2)
        one = np.ones((5, 5))
        d = MetricSample(g, one.copy(), 0 * one, one.copy(), one > 0)
        for a in (f.values, f.mask, u.re, u.im, u.mask, m.E, m.Fc, m.G, m.mask, d.E, d.Fc, d.G, d.mask):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 2.0


class TestCsvRoundTrip:
    def test_scalar(self, tmp_path):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        f = field(g, np.sin(X) + Y, np.abs(X + Y) > 0.3)
        p = tmp_path / "f.csv"
        dump_scalar_csv(f, str(p))
        back = load_scalar_csv(str(p))
        assert back.grid == g
        assert np.array_equal(back.mask, f.mask)
        assert np.array_equal(back.values, f.values)

    def test_complex(self, tmp_path):
        g = make_grid(0, 1, 0, 1, 6, 5)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        u = complex_field(g, X, Y + 1)
        p = tmp_path / "u.csv"
        dump_complex_csv(u, str(p))
        back, family = load_complex_csv(str(p))
        assert back.grid == g and family is None
        assert np.array_equal(back.re, u.re) and np.array_equal(back.im, u.im)

    def test_bytes(self, tmp_path):
        g = make_grid(-0.3, 0.7, -1, 0, 5, 6)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
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
            (ComplexField(g, re, im, mask), ("re", "im"), (re, im), dump_complex_csv, load_map),
        ]:
            dump(fld, str(p))
            assert p.read_text() == csv_oracle(g, names, cols, mask)
            for companion in (grid._read_companion, lambda *read: None):  # its read, then the parsing read
                with mock.patch.object(grid, "_read_companion", companion):
                    back = load(str(p))
                assert back.grid == g and np.array_equal(back.mask, mask)
                for a, b in zip(cols, (back.values,) if len(cols) == 1 else (back.re, back.im)):
                    assert np.array_equal(_bits(a), _bits(b))

    @pytest.mark.parametrize("edit", ["swap", "drop", "shift"])
    def test_rows_off_the_grid_rejected(self, edit, tmp_path):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
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
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "f.csv"
        dump(complex_field(g, X, Y + 2) if dump is dump_complex_csv else field(g, X + Y), str(p))
        lines = p.read_text().splitlines(True)
        lines[3] = lines[3].rsplit(",", 1)[0] + f",{bad}\n"
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match="valid column"):
            load(str(p))

    def test_sidecar(self, tmp_path):
        g = make_grid(0, 2, -1, 1, 9, 11)
        p = tmp_path / "g.json"
        dump_grid_sidecar(g, str(p))
        assert Grid2D.from_json(json.loads(p.read_text())) == g

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_json_files_hold_no_nan_or_infinity(self, bad, tmp_path):
        # strict JSON has no literal for them: the write fails, and leaves no file
        with pytest.raises(ValueError, match="not JSON compliant"):
            grid.dump_json({"sup_norm": bad}, str(tmp_path / "r.json"))
        assert list(tmp_path.iterdir()) == []

    def test_dump_writes_the_sidecar_and_load_requires_it(self, tmp_path):
        g = make_grid(0, 2, -1, 1, 9, 11)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "u.csv"
        dump_complex_csv(complex_field(g, X, Y), str(p), "U_EX2")
        sidecar = tmp_path / "u.csv.grid.json"
        digest = json.loads(sidecar.read_text())["data_sha256"]
        assert json.loads(sidecar.read_text()) == g.to_json() | {"family": "U_EX2", "data_sha256": digest}
        assert (tmp_path / "u.csv.npy").is_file()
        dump_complex_csv(complex_field(g, X, Y), str(p))  # no family: none in the sidecar
        assert json.loads(sidecar.read_text()) == g.to_json() | {"data_sha256": digest}
        sidecar.unlink()
        with pytest.raises(ValueError) as e:
            load_complex_csv(str(p))
        assert str(e.value) == f"{p}: its grid sidecar {sidecar} is missing"

    def test_rows_must_be_the_sidecar_grid(self, tmp_path):
        # a file cut at a whole grid row is still a grid, just not the dumped one
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "f.csv"
        dump_scalar_csv(field(g, X + Y), str(p))
        assert load_scalar_csv(str(p)).grid == g
        p.write_text("".join(p.read_text().splitlines(True)[:-g.nx]))
        with pytest.raises(ValueError, match="sidecar"):
            load_scalar_csv(str(p))

    def test_interrupted_dump_keeps_old_file(self, tmp_path, monkeypatch):
        g = make_grid(0, 1, -1, 0, 7, 9)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "f.csv"
        dump_scalar_csv(field(g, X + Y), str(p))
        old = p.read_bytes()
        whole = TestCsvWriterOracle.rows(g, ("value",), (X - Y,), np.ones((7, 9), bool)).encode()
        written = []
        real_open = grid.atomic_open

        class Interrupted:
            """The real handle, whose writes fail once the header and one block are in."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, s):
                if len(written) == 2:
                    raise RuntimeError("interrupted")
                written.append(bytes(s))
                return self.fh.write(s)

        @contextlib.contextmanager
        def interrupted_open(path):
            with real_open(path) as fh:
                yield Interrupted(fh)

        monkeypatch.setattr(grid, "_CSV_BLOCK", 2 * g.nx)  # blocks of two grid lines
        monkeypatch.setattr(grid, "atomic_open", interrupted_open)
        with pytest.raises(RuntimeError, match="interrupted"):
            dump_scalar_csv(field(g, X - Y), str(p))
        part = b"".join(written)  # failed partway: the header is written, the file is not whole
        assert written[0] == b"x,y,value,valid\n" and whole.startswith(part) and len(part) < len(whole)
        assert p.read_bytes() == old
        assert sorted(f.name for f in tmp_path.iterdir()) == ["f.csv", "f.csv.grid.json", "f.csv.npy"]
        assert np.array_equal(load_scalar_csv(str(p)).values, X + Y)  # the old dump, still whole


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
        assert g.y()[g.origin()[1]] == 0.0
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


def load_map(path):
    """The map of load_complex_csv, without the family its sidecar names."""
    return load_complex_csv(path)[0]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestCsvRoundTripProperty:
    """dump (CSV and sidecar), load: grid, mask and every value come back bit for bit."""

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
        back = self._round_trip(u, g, dump_complex_csv, load_map)
        assert np.array_equal(_bits(back.re), _bits(u.re))
        assert np.array_equal(_bits(back.im), _bits(u.im))
        assert np.array_equal(back.mask, u.mask)

    @staticmethod
    def _round_trip(f, g, dump, load):
        with tempfile.TemporaryDirectory() as d:
            p = f"{d}/f.csv"
            dump(f, p)
            back = load(p)
        assert back.grid == g
        return back


class TestCsvWriterOracle:
    """The writer's bytes against a plain loop that formats every number and flag of every row."""

    @staticmethod
    def rows(g, names, columns, mask):
        x, y = g.x(), g.y()
        out = [",".join(("x", "y", *names, "valid")) + "\n"]
        for j in range(g.ny):
            for i in range(g.nx):
                out.append(f"{x[i]:.17g},{y[j]:.17g}," + "".join(f"{c[i, j]:.17g}," for c in columns)
                           + f"{int(mask[i, j])}\n")
        return "".join(out)

    def test_scalar_and_complex(self, tmp_path):
        # off-centre, nx != ny, scattered masked points, a fully masked y line
        # and a fully masked x line, and the values the text must carry exactly
        g = make_grid(-0.37, 1.21, 0.13, 0.9, 11, 7)
        rng = np.random.default_rng(28)
        re, im = rng.normal(size=(2, 11, 7)) * 10.0 ** rng.integers(-5, 6, size=(2, 11, 7))
        re[1, :4], im[5, 2:6] = [-0.0, 5e-324, 1e12, -1e12], [1e12, -0.0, -1e12, 5e-324]
        # exponent forms on both sides of every format change, and zeros
        re[3], im[9] = [3e-5, -7.25e-6, 0.0, 1e-7, 2.5e17, 1e16, 9.999999999999999e-5], [1e-4, -0.0, 0.0, 1e-6,
                                                                                        -1e17, 123.5, 1e-5]
        mask = rng.random((11, 7)) > 0.3
        mask[1, :4] = mask[5, 2:6] = mask[3] = mask[9] = True
        mask[:, 6] = mask[8, :] = False
        p = tmp_path / "f.csv"
        dump_scalar_csv(ScalarField(g, re, mask), str(p))
        assert p.read_text() == self.rows(g, ("value",), (re,), mask)
        dump_complex_csv(ComplexField(g, re, im, mask), str(p))
        assert p.read_text() == self.rows(g, ("re", "im"), (re, im), mask)

    # blocks of two grid lines, so the 7 lines end in a short block; a block
    # smaller than one 11-point grid line, which then takes one line
    @pytest.mark.parametrize("block", [22, 5])
    def test_block_boundaries(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(grid, "_CSV_BLOCK", block)
        self.test_scalar_and_complex(tmp_path)


def format17_text(x):
    """grid._format17's text of each value of x, its NULs dropped."""
    return [bytes(row[row != 0]) for row in grid._format17(np.asarray(x, dtype=float))]


def printf_text(x):
    return [b"%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


class TestFormat17:
    """grid._format17 writes the bytes of b"%.17g" % v for every float64 v."""

    def test_digit_lanes(self):
        # n = k * 10001 puts k in both 4-digit lanes: every lane value once
        n = np.arange(10**4, dtype=np.uint64) * 10001
        want = [int.from_bytes(bytes(map(int, f"{v:08d}")), "little") for v in n.tolist()]
        assert grid._digits8(n).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_float(self, xs):
        assert format17_text(xs) == printf_text(xs)

    def test_random_bit_patterns(self):
        x = np.random.default_rng(33).integers(0, 2**64, 10**5, dtype=np.uint64).view(float)
        assert format17_text(x) == printf_text(x)

    def test_ties_round_half_even(self):
        # N / 2**k, N odd and N * 5**k of 18 digits, has 18 significant digits
        # and the last is a 5: a tie at the 17th, here at every decimal exponent
        # from 15 down to -6; then N / 2**20 for odd N from 10001 on
        x = [n / 2**k for k in range(2, 24) for n in range(-(-10**17 // 5**k) | 1, 10**18 // 5**k, 2)[:1000]]
        x += (np.arange(10001, 30001, 2) / 2**20).tolist()
        assert format17_text(x) == printf_text(x)

    def test_format_boundaries_and_specials(self):
        edges = [1e-6, 1e-5, 1e-4, 1.0, 1e16, 1e17]
        x = [np.nextafter(e, to) for e in edges for to in (0, np.inf)] + edges
        x = np.array(x + [-v for v in x] + [0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf])
        assert format17_text(x) == printf_text(x)

    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_catalog_fields(self, fid):
        f = eval_family(fid, rect_grid(CATALOG[fid].rectangle, 1 / 100))
        x = np.concatenate([getattr(f, a.name).ravel() for a in dataclasses.fields(f)[1:-1]])
        assert format17_text(x) == printf_text(x)


class TestCsvCanonicalRead:
    """A dump loads from its companion `<csv>.npy`; an edited one goes through the parsing read."""

    @staticmethod
    def dumped(tmp_path, complex_=False):
        g = make_grid(-0.3, 0.7, -1, 0.2, 7, 9)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "f.csv"
        if complex_:
            dump_complex_csv(complex_field(g, np.sin(X), Y + 2, np.abs(X - Y) > 0.2), str(p))
        else:
            dump_scalar_csv(field(g, np.sin(X) + Y, np.abs(X - Y) > 0.2), str(p))
        return p

    @staticmethod
    def rewrite(p, fn, rows=slice(1, None)):
        lines = p.read_text().splitlines(True)
        for k in range(len(lines))[rows]:
            x, y, rest = lines[k].split(",", 2)
            lines[k] = ",".join((fn(x), fn(y), rest))
        p.write_text("".join(lines))

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real = grid._read_checked

        def checked(path, g, names):
            calls.append(path)
            return real(path, g, names)

        monkeypatch.setattr(grid, "_read_checked", checked)
        return calls

    @staticmethod
    def sidecar_reads(monkeypatch):
        """The paths of the grid sidecars gordon.grid opens, in order."""
        reads = []

        def spy(file, *args, **kwargs):
            if str(file).endswith(".grid.json"):
                reads.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(grid, "open", spy, raising=False)
        return reads

    @staticmethod
    def outcome(load, p):
        """What a load returns, as comparable bits, or its error text."""
        try:
            f = load(str(p))
        except ValueError as e:
            return str(e)
        return f.grid, f.mask.tobytes(), *(_bits(getattr(f, n)).tobytes() for n in ("values", "re", "im")
                                            if hasattr(f, n))

    @staticmethod
    def edit_value(p):
        """Change the first decimal digit of the first value at a valid point, keeping the byte length."""
        lines = p.read_text().splitlines(True)
        k = next(k for k in range(1, len(lines)) if lines[k].endswith(",1\n"))
        x, y, value, rest = lines[k].split(",", 3)
        d = value.index(".") + 1
        value = value[:d] + str((int(value[d]) + 1) % 10) + value[d + 1:]
        lines[k] = ",".join((x, y, value, rest))
        p.write_text("".join(lines))
        return float(value)

    @pytest.mark.parametrize("complex_", [False, True], ids=["scalar", "complex"])
    @pytest.mark.parametrize("edit", ["value digit", "companion byte", "companion deleted", "x1 nudged",
                                      "x1 off the rows", "digest removed"])
    def test_an_edited_dump_takes_the_parsing_read(self, edit, complex_, tmp_path, monkeypatch):
        # the digest covers the sidecar's grid, the CSV and the companion: an
        # edit to any of them returns what the parsing read returns
        load = load_map if complex_ else load_scalar_csv
        p = self.dumped(tmp_path, complex_)
        npy, sidecar = tmp_path / "f.csv.npy", tmp_path / "f.csv.grid.json"
        before, dumped = load(str(p)), self.outcome(load, p)
        assert not before.mask.all() and before.grid.nx != before.grid.ny
        side = json.loads(sidecar.read_text())
        if edit == "value digit":
            edited = self.edit_value(p)
        elif edit == "companion byte":
            data = bytearray(npy.read_bytes())
            data[-3] ^= 0x10
            npy.write_bytes(bytes(data))
        elif edit == "companion deleted":
            npy.unlink()
        elif edit == "digest removed":  # as a dump without a companion would have it
            del side["data_sha256"]
        else:  # within the row tolerance, and beyond it
            side["x1"] += 1e-12 if edit == "x1 nudged" else 1e-3
        sidecar.write_text(json.dumps(side))
        with mock.patch.object(grid, "_read_companion", return_value=None):
            parsed = self.outcome(load, p)
        calls = self.spy(monkeypatch)
        assert self.outcome(load, p) == parsed
        assert calls == [str(p)]
        if edit == "value digit":
            after = load(str(p))
            i, j = np.argwhere(before.mask.T)[0][::-1]  # the first valid point in row order
            assert (after.re if complex_ else after.values)[i, j] == edited
        elif edit == "x1 nudged":
            assert load(str(p)).grid.x1 == side["x1"] != before.grid.x1
        elif edit == "x1 off the rows":
            assert "y-major" in parsed
        else:
            assert parsed == dumped

    @pytest.mark.parametrize("forge", [lambda t: t.astype(np.float32), np.asfortranarray],
                             ids=["float32", "fortran order"])
    def test_a_companion_not_in_the_dump_layout_is_parsed(self, forge, tmp_path, monkeypatch):
        # even with a digest that matches, only a C-order float64 companion is read
        p = self.dumped(tmp_path)
        npy, sidecar = tmp_path / "f.csv.npy", tmp_path / "f.csv.grid.json"
        np.save(npy, forge(np.load(npy)), allow_pickle=False)
        side = json.loads(sidecar.read_text())
        digest = grid._data_sha256(Grid2D.from_json(side))
        digest.update(p.read_bytes())
        digest.update(npy.read_bytes())
        sidecar.write_text(json.dumps(side | {"data_sha256": digest.hexdigest()}))
        with mock.patch.object(grid, "_read_companion", return_value=None):
            parsed = self.outcome(load_scalar_csv, p)
        calls = self.spy(monkeypatch)
        assert self.outcome(load_scalar_csv, p) == parsed
        assert calls == [str(p)]

    @pytest.mark.parametrize("complex_", [False, True], ids=["scalar", "complex"])
    def test_a_dump_of_the_other_kind_is_rejected(self, complex_, tmp_path):
        # its companion vouches for its own columns only: a complex load of a
        # scalar dump, or the reverse, gets the parsing read's rejection
        p = self.dumped(tmp_path, complex_)
        load = load_scalar_csv if complex_ else load_map
        with mock.patch.object(grid, "_read_companion", return_value=None):
            parsed = self.outcome(load, p)
        assert "expected the columns" in parsed and self.outcome(load, p) == parsed

    @pytest.mark.parametrize("read", ["companion", "parsing"])
    def test_one_load_reads_its_sidecar_once(self, read, tmp_path, monkeypatch):
        p = self.dumped(tmp_path, complex_=True)
        if read == "parsing":
            (tmp_path / "f.csv.npy").unlink()
        calls, reads = self.spy(monkeypatch), self.sidecar_reads(monkeypatch)
        assert load_map(str(p)).grid.nx == 7
        assert reads == [f"{p}.grid.json"] and calls == ([str(p)] if read == "parsing" else [])

    @pytest.mark.parametrize("sidecar,message", [(None, "its grid sidecar .* is missing"),
                                                 ("[1, 2]", "a grid is a JSON object")],
                             ids=["missing", "not a grid"])
    def test_a_bad_sidecar_is_reported_before_the_csv_is_parsed(self, sidecar, message, tmp_path, monkeypatch):
        p = self.dumped(tmp_path)
        if sidecar is None:
            (tmp_path / "f.csv.grid.json").unlink()
        else:
            (tmp_path / "f.csv.grid.json").write_text(sidecar)
        monkeypatch.setattr(np, "loadtxt", mock.Mock(side_effect=AssertionError("the CSV was parsed")))
        with pytest.raises(ValueError, match=message):
            load_scalar_csv(str(p))

    @pytest.mark.parametrize("sidecar", [False, True], ids=["both missing", "sidecar left"])
    def test_a_missing_csv_is_named_as_itself(self, sidecar, tmp_path):
        p = self.dumped(tmp_path)
        p.unlink()
        if not sidecar:
            (tmp_path / "f.csv.grid.json").unlink()
        with pytest.raises(FileNotFoundError) as e:
            load_scalar_csv(str(p))
        assert e.value.filename == str(p) and "grid.json" not in str(e.value)

    @pytest.mark.parametrize("complex_", [False, True], ids=["scalar", "complex"])
    @pytest.mark.parametrize("edit", ["columns swapped", "valid dropped", "comma added", "blank"])
    def test_the_parsing_read_checks_the_header(self, edit, complex_, tmp_path):
        # an edited header changes the CSV's bytes, so the parsing read decides:
        # it takes no column by position under another name
        load = load_map if complex_ else load_scalar_csv
        p = self.dumped(tmp_path, complex_)
        lines = p.read_text().splitlines(True)
        dumped = lines[0].removesuffix("\n")
        found = {"columns swapped": "x,y,im,re,valid" if complex_ else "x,y,valid,value",
                 "valid dropped": dumped.removesuffix(",valid"), "comma added": dumped + ",", "blank": ""}[edit]
        p.write_text("".join([found + "\n"] + lines[1:]))
        with pytest.raises(ValueError) as e:
            load(str(p))
        assert str(e.value) == f"{p}: expected the columns {dumped!r} on line 1, found {found!r}"

    @pytest.mark.parametrize("complex_", [False, True], ids=["scalar", "complex"])
    def test_crlf_line_endings_load_the_same_bits(self, complex_, tmp_path, monkeypatch):
        load = load_map if complex_ else load_scalar_csv
        p = self.dumped(tmp_path, complex_)
        dumped = self.outcome(load, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        calls = self.spy(monkeypatch)
        assert self.outcome(load, p) == dumped and calls == [str(p)]

    @pytest.mark.parametrize("complex_", [False, True], ids=["scalar", "complex"])
    @pytest.mark.parametrize("fn", [lambda t: f"{float(t):.15g}", lambda t: t if t[0] == "-" else "+" + t],
                             ids=["15g", "plus"])
    def test_other_coordinate_text_loads_the_same_bits(self, fn, complex_, tmp_path, monkeypatch):
        load = load_map if complex_ else load_scalar_csv
        p = self.dumped(tmp_path, complex_)
        before = load(str(p))
        calls = self.spy(monkeypatch)
        self.rewrite(p, fn)
        after = load(str(p))
        assert calls == [str(p)]  # the parsing read decided
        assert after.grid == before.grid
        assert np.array_equal(after.mask, before.mask)
        for name in ("re", "im") if complex_ else ("values",):
            assert np.array_equal(_bits(getattr(after, name)), _bits(getattr(before, name)))

    def test_long_coordinate_is_parsed_whole(self, tmp_path):
        # its first 32 bytes parse to the grid value, the whole text does not
        p = self.dumped(tmp_path)
        lines = p.read_text().splitlines(True)
        x, rest = lines[3].split(",", 1)
        assert "." in x and "e" not in x and float((x + "0" * 32)[:32]) == float(x)
        lines[3] = (x + "0" * 32)[:32] + "e5," + rest
        p.write_text("".join(lines))
        with pytest.raises(ValueError, match="y-major"):
            load_scalar_csv(str(p))

    @pytest.mark.parametrize("row", [1, 3])
    def test_nul_in_a_coordinate_is_rejected(self, row, tmp_path):
        # a NUL after a coordinate changes the CSV's bytes, so the parsing read
        # decides, and it does not take "<x>\0" for x
        p = self.dumped(tmp_path)
        self.rewrite(p, lambda t: t + "\0", slice(row, row + 1))
        with pytest.raises(ValueError, match="could not convert"):
            load_scalar_csv(str(p))

    @pytest.mark.parametrize("fid", sorted(CATALOG))
    def test_dumps_never_take_the_parsing_read(self, fid, tmp_path, monkeypatch):
        calls = self.spy(monkeypatch)
        for h in (1 / 20, 1 / 60):
            g = rect_grid(CATALOG[fid].rectangle, h)
            for G in (g, g.refined()):
                X, Y = np.meshgrid(G.x(), G.y(), indexing="ij")
                p = str(tmp_path / "f.csv")
                dump_scalar_csv(field(G, X * Y, X > Y), p)
                assert np.array_equal(load_scalar_csv(p).values, np.where(X > Y, X * Y, 0.0))
                dump_complex_csv(complex_field(G, X, Y), p)
                assert np.array_equal(load_map(p).im, Y)
        assert calls == []

    @FAST
    @given(grids())
    def test_dumps_of_any_grid_never_take_the_parsing_read(self, g):
        with mock.patch.object(grid, "_read_checked", side_effect=AssertionError("parsing read")), \
                tempfile.TemporaryDirectory() as d:
            dump_scalar_csv(field(g, np.zeros((g.nx, g.ny))), f"{d}/f.csv")
            assert load_scalar_csv(f"{d}/f.csv").grid == g


class TestMaskProperties:
    """The stencil frame and the anchored quadrature, through the public operators."""

    @staticmethod
    def on_grid(values, mask):
        nx, ny = mask.shape
        return ScalarField(Grid2D(-1.0, 2.0, -1.0, 2.0, nx, ny), values, mask)

    @staticmethod
    def integral(f, k0, axis):
        """The quadrature of f along `axis`, on f's grid shifted to put its 0 line at index k0."""
        g = f.grid
        bounds = [g.x0, g.x1, g.y0, g.y1]
        shift = (g.x(), g.y())[axis][k0]
        bounds[2 * axis] -= shift
        bounds[2 * axis + 1] -= shift
        f = ScalarField(Grid2D(*bounds, g.nx, g.ny), f.values, f.mask)
        return cumulative_integral_x(f) if axis == 0 else cumulative_integral_y(f)

    @FAST
    @given(grid_masks, st.integers(0, 1), st.data())
    def test_contiguous_valid_matches_loops(self, mask, axis, data):
        k0 = data.draw(st.integers(0, mask.shape[axis] - 1))
        c = self.integral(self.on_grid(np.zeros(mask.shape), mask), k0, axis)
        assert np.array_equal(c.mask, contiguous_valid_oracle(mask, k0, axis))

    @FAST
    @given(grid_masks.flatmap(
        lambda m: st.tuples(st.just(m), arrays(float, m.shape, elements=st.floats(-1e6, 1e6)))))
    def test_stencil_masks_per_point(self, drawn):
        mask, values = drawn
        nx, ny = mask.shape
        along_x, along_y, expect = (np.zeros_like(mask) for _ in range(3))
        dx, dy, lap = np.zeros(mask.shape), np.zeros(mask.shape), np.zeros(mask.shape)
        f = self.on_grid(values, mask)
        hx, hy = f.grid.hx, f.grid.hy  # unequal whenever nx != ny
        for i in range(nx):
            for j in range(ny):
                along_x[i, j] = 0 < i < nx - 1 and all(mask[i + d, j] for d in (-1, 0, 1))
                along_y[i, j] = 0 < j < ny - 1 and all(mask[i, j + d] for d in (-1, 0, 1))
                if along_x[i, j]:
                    dx[i, j] = (values[i + 1, j] - values[i - 1, j]) / (2 * hx)
                if along_y[i, j]:
                    dy[i, j] = (values[i, j + 1] - values[i, j - 1]) / (2 * hy)
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                expect[i, j] = all(mask[i + di, j + dj] for di, dj in
                                   ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))
                if expect[i, j]:  # hx with the x neighbours, hy with the y ones
                    c = values[i, j]
                    lap[i, j] = (values[i + 1, j] + values[i - 1, j] - 2 * c) / hx**2 + (
                        values[i, j + 1] + values[i, j - 1] - 2 * c) / hy**2
        px, py, lf = partial_x(f), partial_y(f), laplacian(f)
        assert np.array_equal(px.mask, along_x) and np.array_equal(_bits(px.values), _bits(dx))
        assert np.array_equal(py.mask, along_y) and np.array_equal(_bits(py.values), _bits(dy))
        assert np.array_equal(lf.mask, expect) and np.array_equal(_bits(lf.values), _bits(lap))

    @FAST
    @given(grid_masks.flatmap(lambda m: arrays(float, m.shape, elements=st.floats(-1e6, 1e6))),
           st.integers(0, 1), st.data())
    def test_cumtrapz_zero_at_anchor(self, values, axis, data):
        self.check_cumtrapz(values, data.draw(st.integers(0, values.shape[axis] - 1)), axis)

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("k0", [0, 2, 4])
    def test_cumtrapz_of_negative_zeros(self, k0, axis):
        # every segment is -0.0, and so is every sum after the first segment
        self.check_cumtrapz(np.full((5, 6), -0.0), k0, axis)

    def check_cumtrapz(self, values, k0, axis):
        f = self.on_grid(values, np.ones(values.shape, bool))
        c = self.integral(f, k0, axis)
        assert np.all(np.take(c.values, k0, axis=axis) == 0.0)
        # the trapezoid summed as np.cumsum does, from the first segment in
        # ascending index order, after a 0 at index 0, less its value at k0
        t, v = (c.grid.x(), c.grid.y())[axis], np.moveaxis(values, axis, 0)
        seg = [(v[k + 1] + v[k]) / 2 * (t[k + 1] - t[k]) for k in range(len(t) - 1)]
        acc = [np.zeros(v.shape[1:]), seg[0]]
        for s in seg[1:]:
            acc.append(acc[-1] + s)
        assert np.array_equal(_bits(c.values), _bits(np.moveaxis(np.array(acc) - acc[k0], 0, axis)))
