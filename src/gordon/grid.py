"""Uniform rectangular grids, masked fields, and finite-difference primitives.

Everything downstream (solution families, transforms, harmonic maps) is built
on the three containers defined here plus a handful of second-order stencil
and quadrature operations.  Fields are immutable after construction; every
operation returns a new field and propagates validity masks so that singular
points never contaminate residual norms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

# A point is masked out when a formula denominator drops below this, or any
# intermediate exceeds the magnitude cap.
SINGULARITY_EPS = 1e-8
MAGNITUDE_CAP = 1e12
# Largest grid accepted, in points: a bound on what one field may allocate.
MAX_POINTS = 10**8


class NumericalError(ValueError):
    """A computation broke down on valid input: a failed run, not bad configuration."""


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on [x0, x1] x [y0, y1] with nx x ny samples."""

    x0: float
    x1: float
    y0: float
    y1: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("grid bounds must be ordered: x1 > x0 and y1 > y0")
        if self.nx < 5 or self.ny < 5:
            raise ValueError("need nx >= 5 and ny >= 5 for five-point stencils")
        if self.nx * self.ny > MAX_POINTS:
            raise ValueError(f"grid of {self.nx} x {self.ny} points exceeds {MAX_POINTS} points")
        if not (0 < self.hx < np.inf and 0 < self.hy < np.inf):
            raise ValueError(f"grid spacing must be finite and positive, got {self.hx} x {self.hy}")

    @property
    def hx(self) -> float:
        return (self.x1 - self.x0) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y1 - self.y0) / (self.ny - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.x0, self.x1, self.nx)

    def y(self) -> np.ndarray:
        return np.linspace(self.y0, self.y1, self.ny)

    def mesh(self):
        """Coordinate arrays X, Y of shape (nx, ny); entry (i, j) is (x_i, y_j)."""
        return np.meshgrid(self.x(), self.y(), indexing="ij")

    def index_of_x(self, x: float) -> int:
        """Index of the grid line x = const, or raise if x is off-grid."""
        i = int(round((x - self.x0) / self.hx))
        if i < 0 or i >= self.nx or abs(self.x0 + i * self.hx - x) > 1e-9 * max(1.0, self.hx):
            raise ValueError(f"x = {x} does not coincide with a grid line")
        return i

    def index_of_y(self, y: float) -> int:
        j = int(round((y - self.y0) / self.hy))
        if j < 0 or j >= self.ny or abs(self.y0 + j * self.hy - y) > 1e-9 * max(1.0, self.hy):
            raise ValueError(f"y = {y} does not coincide with a grid line")
        return j

    def origin(self, *fields) -> tuple:
        """Index (i0, j0) of the seed point (0, 0); ValueError unless every field is valid there."""
        k0 = (self.index_of_x(0.0), self.index_of_y(0.0))
        if not all(f.mask[k0] for f in fields):
            raise ValueError("a given field is invalid at the seed point (0, 0)")
        return k0

    def refined(self) -> "Grid2D":
        """The same rectangle at half the spacing: 2n - 1 points per axis."""
        return Grid2D(self.x0, self.x1, self.y0, self.y1, 2 * self.nx - 1, 2 * self.ny - 1)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_json(d: dict) -> "Grid2D":
        """The grid of a JSON object with finite x0, x1, y0, y1 and integral nx, ny; else ValueError."""
        keys = ("x0", "x1", "y0", "y1", "nx", "ny")
        if not isinstance(d, dict) or not all(k in d for k in keys):
            raise ValueError(f"a grid is a JSON object with the keys {', '.join(keys)}")
        v = [d[k] for k in keys]
        if not (all(type(a) in (int, float) and abs(a) <= sys.float_info.max for a in v)  # not nan, inf or beyond
                and all(type(n) is int or n.is_integer() for n in v[4:])):
            raise ValueError(f"a grid needs finite bounds and integral counts, got {dict(zip(keys, v))}")
        return Grid2D(*v[:4], int(v[4]), int(v[5]))


def make_grid(x0, x1, y0, y1, nx, ny) -> Grid2D:
    return Grid2D(float(x0), float(x1), float(y0), float(y1), int(nx), int(ny))


def rect_grid(rect, h: float) -> Grid2D:
    """Grid on rect = (x0, x1, y0, y1) with spacing nearest h, at least 5 points per axis.

    An axis whose range is symmetric about 0 gets an even cell count, so that
    its 0 line, where the marches and quadratures seed, is a grid line.
    Raises ValueError unless h is positive and finite and the point count is
    finite.
    """
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing must be positive and finite, got {h!r}")

    def points(a, b):
        cells = (b - a) / h
        if not np.isfinite(cells):
            raise ValueError(f"grid spacing {h!r} gives no finite point count")
        n = 2 * round(cells / 2) if a == -b else round(cells)
        return max(int(n) + 1, 5)

    x0, x1, y0, y1 = rect
    return Grid2D(x0, x1, y0, y1, points(x0, x1), points(y0, y1))


@dataclass(frozen=True)
class ScalarField:
    """Real values on a Grid2D with a validity mask (True = valid).

    Invalid entries hold 0.0 so that arithmetic on the raw array stays finite.
    """

    grid: Grid2D
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        if self.values.shape != shape or self.mask.shape != shape:
            raise ValueError(f"field arrays must have shape {shape}")
        if not np.all(np.isfinite(self.values) | ~self.mask):  # no boolean gather: 3x faster
            raise ValueError("field has non-finite values at valid points")
        self.values.setflags(write=False)
        self.mask.setflags(write=False)

    def sup_norm(self):
        """(sup |value| over valid points, number of valid points)."""
        n = int(np.count_nonzero(self.mask))
        if n == 0:
            return float("nan"), 0
        return float(np.max(np.abs(self.values[self.mask]))), n


@dataclass(frozen=True)
class ComplexField:
    """Complex values u = re + i*im on a Grid2D with a validity mask."""

    grid: Grid2D
    re: np.ndarray
    im: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        for a in (self.re, self.im, self.mask):
            if a.shape != shape:
                raise ValueError(f"field arrays must have shape {shape}")
        if not np.all((np.isfinite(self.re) & np.isfinite(self.im)) | ~self.mask):
            raise ValueError("field has non-finite values at valid points")
        self.re.setflags(write=False)
        self.im.setflags(write=False)
        self.mask.setflags(write=False)

    def complex_values(self) -> np.ndarray:
        return self.re + 1j * self.im


def field(grid: Grid2D, values: np.ndarray, mask: np.ndarray | None = None) -> ScalarField:
    """Build a ScalarField, masking out non-finite or capped entries."""
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values) & (np.abs(values) <= MAGNITUDE_CAP)
    if mask is not None:
        ok = ok & mask
    vals = np.where(ok, values, 0.0)
    return ScalarField(grid, vals, ok)


def complex_field(grid: Grid2D, re, im, mask: np.ndarray | None = None) -> ComplexField:
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    ok = (
        np.isfinite(re)
        & np.isfinite(im)
        & (np.abs(re) <= MAGNITUDE_CAP)
        & (np.abs(im) <= MAGNITUDE_CAP)
    )
    if mask is not None:
        ok = ok & mask
    return ComplexField(grid, np.where(ok, re, 0.0), np.where(ok, im, 0.0), ok)


def _frame(mask: np.ndarray, axis: int) -> np.ndarray:
    """Valid iff the point and both its neighbours along `axis` are valid; never at either end."""
    m = np.moveaxis(mask, axis, 0)
    out = np.zeros_like(m)
    out[1:-1] = m[1:-1] & m[2:] & m[:-2]
    return np.moveaxis(out, 0, axis)


def laplacian(f: ScalarField) -> ScalarField:
    """Five-point Laplacian, second order; boundary and mask-adjacent points invalid."""
    g = f.grid
    v = f.values
    out = np.zeros_like(v)
    out[1:-1, 1:-1] = (v[2:, 1:-1] + v[:-2, 1:-1] - 2 * v[1:-1, 1:-1]) / g.hx**2 + (
        v[1:-1, 2:] + v[1:-1, :-2] - 2 * v[1:-1, 1:-1]
    ) / g.hy**2
    return field(g, out, _frame(f.mask, 0) & _frame(f.mask, 1))


def partial_x(f: ScalarField) -> ScalarField:
    g = f.grid
    v = f.values
    out = np.zeros_like(v)
    out[1:-1, :] = (v[2:, :] - v[:-2, :]) / (2 * g.hx)
    return field(g, out, _frame(f.mask, 0))


def partial_y(f: ScalarField) -> ScalarField:
    g = f.grid
    v = f.values
    out = np.zeros_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2 * g.hy)
    return field(g, out, _frame(f.mask, 1))


def partials(u: ComplexField):
    """(R_x, R_y, S_x, S_y) of u = R + iS by central differences."""
    R, S = ScalarField(u.grid, u.re, u.mask), ScalarField(u.grid, u.im, u.mask)
    return partial_x(R), partial_y(R), partial_x(S), partial_y(S)


def wirtinger(u: ComplexField):
    """(d/dz u, d/dzbar u) with dz = (dx - i dy)/2, dzbar = (dx + i dy)/2."""
    g = u.grid
    rx, ry, ix, iy = partials(u)
    mask = rx.mask & ry.mask & ix.mask & iy.mask
    ux = rx.values + 1j * ix.values
    uy = ry.values + 1j * iy.values
    dz = (ux - 1j * uy) / 2
    dzb = (ux + 1j * uy) / 2
    return (
        complex_field(g, dz.real, dz.imag, mask),
        complex_field(g, dzb.real, dzb.imag, mask),
    )


def _cumulative(f: ScalarField, k0: int, axis: int) -> ScalarField:
    """Cumulative trapezoid of f along `axis`, zero at index k0.

    Summation order is fixed (ascending index) so results are bit-identical
    across runs.  A point is valid iff every point from k0 to it is valid.
    """
    g = f.grid
    v, m = np.moveaxis(f.values, axis, 0), np.moveaxis(f.mask, axis, 0)
    dt = np.diff((g.x(), g.y())[axis])[:, None]
    seg = (v[1:] + v[:-1]) / 2 * dt
    c = np.concatenate([np.zeros((1,) + v.shape[1:]), np.cumsum(seg, axis=0)], axis=0)
    ok = np.empty_like(m)
    ok[k0:] = np.logical_and.accumulate(m[k0:], axis=0)
    ok[k0::-1] = np.logical_and.accumulate(m[k0::-1], axis=0)
    return field(g, np.moveaxis(c - c[k0], 0, axis), np.moveaxis(ok, 0, axis))


def cumulative_integral_x(f: ScalarField, x_start: float) -> ScalarField:
    """Row-wise trapezoidal cumulative integral from the grid line x = x_start."""
    return _cumulative(f, f.grid.index_of_x(x_start), 0)


def cumulative_integral_y(f: ScalarField, y_start: float) -> ScalarField:
    """Column-wise trapezoidal cumulative integral from the grid line y = y_start."""
    return _cumulative(f, f.grid.index_of_y(y_start), 1)


# ---------------------------------------------------------------------------
# CSV / JSON wire formats


@contextlib.contextmanager
def atomic_open(path: str):
    """Text handle on `<path>.<pid>.tmp`, renamed to `path` on success, else removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_csv(path: str, grid: Grid2D, names, columns, mask: np.ndarray) -> None:
    """Write `x,y,<names>,valid` rows, y in the outer loop, numbers as `%.17g`.

    C formats a grid line in one call, from a `%` template built once: every x
    formatted, a NUL where y goes. Each line is written on its own, since one
    whole-file string would add several times the file's size to peak RSS.
    """
    row = "".join(f"{x:.17g},\0" + ",%.17g" * len(columns) + ",%d\n" for x in grid.x())
    vals = np.stack([a.T for a in columns] + [mask.T], axis=-1)  # (ny, nx, k + 1)
    with atomic_open(path) as fh:
        fh.write(",".join(("x", "y", *names, "valid")) + "\n")
        for y, line in zip(grid.y(), vals):
            fh.write(row.replace("\0", f"{y:.17g}") % tuple(line.ravel().tolist()))


def dump_scalar_csv(f: ScalarField, path: str) -> None:
    _dump_csv(path, f.grid, ("value",), (f.values,), f.mask)


def dump_complex_csv(u: ComplexField, path: str) -> None:
    _dump_csv(path, u.grid, ("re", "im"), (u.re, u.im), u.mask)


def dump_json(obj, path: str) -> None:
    """Write obj as indented JSON with sorted keys, atomically."""
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def dump_grid_sidecar(grid: Grid2D, path: str) -> None:
    dump_json(grid.to_json(), path)


def load_grid_json(path: str):
    """(grid, "family" or None) of a grid JSON file such as a CSV dump's sidecar.

    Raises ValueError, naming the path, unless the file holds a grid object
    (see Grid2D.from_json) whose "family", where present, is a string.
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
        g, family = Grid2D.from_json(d), d.get("family")
        if not isinstance(family, (str, type(None))):
            raise ValueError(f"family must be a string, got {family!r}")
        return g, family
    except ValueError as e:  # json's decode error is one
        raise ValueError(f"{path}: {e}") from e


def _load_csv(path: str, ncols: int, build):
    """build(grid, value columns as (nx, ny) arrays, mask) of a dump with ncols columns.

    Raises ValueError, naming the path, unless the x and y columns are the grid
    coordinates in y-major order (to Grid2D.index_of_x's tolerance), the grid is
    that of the dump's sidecar `<path>.grid.json` where one exists (a file cut at
    a whole grid row would otherwise load as a smaller grid), every entry of the
    last (valid) column is 0 or 1, and numpy's parser and build accept the data.
    """
    try:
        with warnings.catch_warnings():  # an empty file: rejected by its column count
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != ncols:
            raise ValueError(f"expected {ncols} columns")
        xs, ys = np.unique(data[:, 0]), np.unique(data[:, 1])
        g = make_grid(xs[0], xs[-1], ys[0], ys[-1], len(xs), len(ys))
        if not (
            len(data) == g.nx * g.ny
            and np.all(np.abs(data[:, 0] - np.tile(g.x(), g.ny)) <= 1e-9 * max(1.0, g.hx))
            and np.all(np.abs(data[:, 1] - np.repeat(g.y(), g.nx)) <= 1e-9 * max(1.0, g.hy))
        ):
            raise ValueError(f"rows are not the y-major points of a {g.nx} x {g.ny} grid")
        if not np.all((data[:, -1] == 0) | (data[:, -1] == 1)):
            raise ValueError("the valid column holds a value other than 0 and 1")
        sidecar = path + ".grid.json"
        if os.path.exists(sidecar):
            want, _ = load_grid_json(sidecar)
            if g != want:
                raise ValueError(f"rows hold the grid {g.to_json()}, its sidecar {sidecar} the grid {want.to_json()}")
        cols = [np.ascontiguousarray(data[:, k].reshape(g.ny, g.nx).T) for k in range(2, ncols)]
        return build(g, *cols[:-1], cols[-1].astype(bool))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def load_scalar_csv(path: str) -> ScalarField:
    """The dumped field bit for bit; a non-finite value at a valid point raises ValueError."""
    return _load_csv(path, 4, ScalarField)


def load_complex_csv(path: str) -> ComplexField:
    """The dumped map bit for bit, as load_scalar_csv."""
    return _load_csv(path, 5, ComplexField)
