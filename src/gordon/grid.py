"""Uniform rectangular grids, masked fields, and finite-difference primitives.

Everything downstream (solution families, transforms, harmonic maps) is built
on the three containers defined here plus a handful of second-order stencil
and quadrature operations, and the fourth-order node slopes the sampled
march reads its data through.  Fields are immutable after construction; every
operation returns a new field and propagates validity masks so that singular
points never contaminate residual norms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
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
        """The grid of a JSON object with finite x0, x1, y0, y1 and integral nx, ny; else ValueError.

        A "family", where present, must be a string.
        """
        keys = ("x0", "x1", "y0", "y1", "nx", "ny")
        if not isinstance(d, dict) or not all(k in d for k in keys):
            raise ValueError(f"a grid is a JSON object with the keys {', '.join(keys)}")
        v = [d[k] for k in keys]
        if not (all(type(a) in (int, float) and abs(a) <= sys.float_info.max for a in v)  # not nan, inf or beyond
                and all(type(n) is int or n.is_integer() for n in v[4:])):
            raise ValueError(f"a grid needs finite bounds and integral counts, got {dict(zip(keys, v))}")
        if not isinstance(d.get("family"), (str, type(None))):
            raise ValueError(f"family must be a string, got {d['family']!r}")
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
class _Masked:
    """Arrays sampled on a Grid2D, the last a validity mask (True = valid).

    Every array has the grid's shape and is read-only, values are finite at
    valid points, and `masked` stores 0.0 at invalid ones so that arithmetic
    on the raw arrays stays finite.
    """

    grid: Grid2D

    def __post_init__(self):
        shape = (self.grid.nx, self.grid.ny)
        *values, mask = (getattr(self, f.name) for f in dataclasses.fields(self)[1:])
        if any(a.shape != shape for a in (*values, mask)):
            raise ValueError(f"field arrays must have shape {shape}")
        if not all(np.all(np.isfinite(a) | ~mask) for a in values):  # no boolean gather: 3x faster
            raise ValueError("field has non-finite values at valid points")
        for a in (*values, mask):
            a.setflags(write=False)

    @classmethod
    def masked(cls, grid: Grid2D, *arrays, ok: np.ndarray, mask: np.ndarray | None = None):
        """The container of `arrays`, valid where `ok` and `mask` (if given) are, 0.0 elsewhere."""
        if mask is not None:
            ok = ok & mask
        return cls(grid, *(np.where(ok, a, 0.0) for a in arrays), ok)


@dataclass(frozen=True)
class ScalarField(_Masked):
    """Real values on a Grid2D with a validity mask."""

    values: np.ndarray
    mask: np.ndarray

    def sup_norm(self):
        """(sup |value| over valid points, number of valid points)."""
        n = int(np.count_nonzero(self.mask))
        if n == 0:
            return float("nan"), 0
        return float(np.max(np.abs(self.values[self.mask]))), n


@dataclass(frozen=True)
class ComplexField(_Masked):
    """Complex values u = re + i*im on a Grid2D with a validity mask."""

    re: np.ndarray
    im: np.ndarray
    mask: np.ndarray

    def complex_values(self) -> np.ndarray:
        return self.re + 1j * self.im


@dataclass(frozen=True)
class MetricSample(_Masked):
    """First fundamental form E dx^2 + 2 Fc dx dy + G dy^2, in orthogonal coordinates if Fc = 0."""

    E: np.ndarray
    Fc: np.ndarray
    G: np.ndarray
    mask: np.ndarray


def _capped(a: np.ndarray) -> np.ndarray:
    """Finite and at most MAGNITUDE_CAP in magnitude (nan and +-inf compare False)."""
    return np.abs(a) <= MAGNITUDE_CAP


def field(grid: Grid2D, values: np.ndarray, mask: np.ndarray | None = None) -> ScalarField:
    """Build a ScalarField, masking out non-finite or capped entries."""
    values = np.asarray(values, dtype=float)
    return ScalarField.masked(grid, values, ok=_capped(values), mask=mask)


def complex_field(grid: Grid2D, re, im, mask: np.ndarray | None = None) -> ComplexField:
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    return ComplexField.masked(grid, re, im, ok=_capped(re) & _capped(im), mask=mask)


def make_metric(grid: Grid2D, E, Fc, G, mask=None) -> MetricSample:
    """Build a MetricSample, masking non-finite or non-positive-definite points."""
    E = np.asarray(E, dtype=float)
    Fc = np.asarray(Fc, dtype=float)
    G = np.asarray(G, dtype=float)
    ok = np.isfinite(E) & np.isfinite(Fc) & np.isfinite(G) & (E > 0) & (G > 0) & (E * G - Fc**2 > 0)
    return MetricSample.masked(grid, E, Fc, G, ok=ok, mask=mask)


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


def _partial(f: ScalarField, axis: int) -> ScalarField:
    """Central difference (v[k+1] - v[k-1]) / (2h) along `axis`; masked as _frame."""
    v = np.moveaxis(f.values, axis, 0)
    out = np.zeros_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2 * (f.grid.hx, f.grid.hy)[axis])
    return field(f.grid, np.moveaxis(out, 0, axis), _frame(f.mask, axis))


def partial_x(f: ScalarField) -> ScalarField:
    return _partial(f, 0)


def partial_y(f: ScalarField) -> ScalarField:
    return _partial(f, 1)


def node_slopes(v: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order slopes of v along its first axis (n >= 5 nodes, spacing h).

    The central five-point difference (-v[k+2] + 8 v[k+1] - 8 v[k-1] +
    v[k-2]) / 12h inside, and the one-sided five-point rules at the two
    nodes nearest each end (Fornberg, Math. Comp. 51, 1988); every node
    gets a slope, and every column is differenced on its own.
    """
    s = np.empty(v.shape)
    s[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    s[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    s[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    s[-2] = (-v[-5] + 6 * v[-4] - 18 * v[-3] + 10 * v[-2] + 3 * v[-1]) / (12 * h)
    s[-1] = (3 * v[-5] - 16 * v[-4] + 36 * v[-3] - 48 * v[-2] + 25 * v[-1]) / (12 * h)
    return s


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
def atomic_open(path: str, mode: str = "w"):
    """Handle opened in `mode` on `<path>.<pid>.tmp`, renamed to `path` on success, else removed.

    An OSError with an errno is raised again naming `path`, not the `.tmp`.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError) and e.errno is not None:
            raise OSError(e.errno, e.strerror, path) from e
        raise


def _data_sha256(grid: Grid2D):
    """A sha256 started on the grid's canonical JSON; a dump adds its CSV's bytes, then its companion's."""
    return hashlib.sha256(json.dumps(grid.to_json(), sort_keys=True).encode())


def _dump_csv(path: str, grid: Grid2D, names, columns, mask: np.ndarray, family=None) -> None:
    """Write `x,y,<names>,valid` rows, y in the outer loop, numbers as `%.17g`, its companion, then the sidecar.

    Each x has two row pieces, `<x>,NUL,%.17g...,0` and the same ending in 1:
    a grid line is its mask's pieces joined, a NUL where y goes, and C formats
    its values in one `%` call, so x and the valid flag are never formatted
    per point. Each line is written on its own, since one whole-file string
    would add several times the file's size to peak RSS. The companion
    `<path>.npy` holds the value columns and the valid column (0.0 or 1.0) as
    one float64 array, one row per CSV row. The sidecar `<path>.grid.json`
    holds the grid, `family` when given, and `data_sha256`, the digest of the
    grid, the CSV and the companion (see _read_companion). Each file is
    written atomically, the sidecar last: a dump cut short leaves the old
    files, or a digest that no longer matches them.
    """
    row = [f"{x:.17g},\0" + ",%.17g" * len(columns) for x in grid.x()]
    zeros, ones = (np.array([r + flag for r in row], dtype=object) for flag in (",0\n", ",1\n"))
    table = np.stack([a.T for a in (*columns, mask)], axis=-1, dtype=float)  # (ny, nx, k + 1)
    lines = ("".join(np.where(m, ones, zeros)).replace("\0", f"{y:.17g}") % tuple(v.ravel().tolist())
             for y, v, m in zip(grid.y(), table[..., :-1], mask.T))
    digest = _data_sha256(grid)
    with atomic_open(path, "wb") as fh:
        for text in itertools.chain([",".join(("x", "y", *names, "valid")) + "\n"], lines):
            data = text.encode()
            digest.update(data)
            fh.write(data)
    npy = io.BytesIO()
    np.save(npy, table.reshape(-1, table.shape[-1]), allow_pickle=False)
    digest.update(npy.getbuffer())
    with atomic_open(path + ".npy", "wb") as fh:
        fh.write(npy.getbuffer())
    dump_json(grid.to_json() | ({} if family is None else {"family": family}) | {"data_sha256": digest.hexdigest()},
              path + ".grid.json")


def dump_scalar_csv(f: ScalarField, path: str) -> None:
    _dump_csv(path, f.grid, ("value",), (f.values,), f.mask)


def dump_complex_csv(u: ComplexField, path: str, family=None) -> None:
    """Dump u; `family` names the catalog map whose Hopf weight `harmonic verify` takes."""
    _dump_csv(path, u.grid, ("re", "im"), (u.re, u.im), u.mask, family)


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
    (see Grid2D.from_json).
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
        return Grid2D.from_json(d), d.get("family")
    except ValueError as e:  # json's decode error is one
        raise ValueError(f"{path}: {e}") from e


def _read_companion(path: str, ncols: int):
    """(grid, value columns) of the companion `<path>.npy` if the sidecar's `data_sha256` vouches for it, else None.

    The digest is taken again over the sidecar's grid, the CSV's bytes and the
    companion's, so an edit to any of the three, a dump cut short, or a
    missing or unreadable file sends the CSV to the parsing read.
    """
    try:
        with open(path + ".grid.json") as fh:
            sidecar = json.load(fh)
        g = Grid2D.from_json(sidecar)
        digest = _data_sha256(g)
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        with open(path + ".npy", "rb") as fh:
            npy = fh.read()
        digest.update(npy)
        if digest.hexdigest() != sidecar.get("data_sha256"):
            return None
        table = np.load(io.BytesIO(npy), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if table.dtype != np.float64 or not table.flags.c_contiguous or table.shape != (g.nx * g.ny, ncols - 2):
        return None
    return g, list(table.T)


def _read_checked(path: str, ncols: int):
    """(grid, value columns) of any file: x and y parsed and held to Grid2D.index_of_x's tolerance."""
    with warnings.catch_warnings():  # an empty file: rejected by its shape
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    try:
        g = load_grid_json(path + ".grid.json")[0]
    except FileNotFoundError:
        raise ValueError(f"its grid sidecar {path}.grid.json is missing") from None
    n = g.nx * g.ny
    if data.shape != (n, ncols):
        raise ValueError(f"expected {n} rows of {ncols} columns, the y-major points of its sidecar's "
                         f"{g.nx} x {g.ny} grid, got {data.shape[0]} x {data.shape[1]}")
    if not (np.all(np.abs(data[:, 0] - np.tile(g.x(), g.ny)) <= 1e-9 * max(1.0, g.hx))
            and np.all(np.abs(data[:, 1] - np.repeat(g.y(), g.nx)) <= 1e-9 * max(1.0, g.hy))):
        raise ValueError(f"rows are not the y-major points of its sidecar's {g.nx} x {g.ny} grid")
    return g, [data[:, k] for k in range(2, ncols)]


def _load_csv(path: str, ncols: int, build):
    """build(grid, value columns as (nx, ny) arrays, mask) of a dump with ncols columns.

    The grid is that of the dump's sidecar `<path>.grid.json`, which is
    required, so a file cut at a whole grid row is rejected. Raises
    ValueError, naming the path, unless the sidecar holds a grid, the rows
    are that grid's points in y-major order with ncols entries each, every
    entry of the last (valid) column is 0 or 1, and numpy's parser and build
    accept the data. The columns come from the dump's companion `<path>.npy`
    when the sidecar's digest shows that none of the three files changed
    since the dump; otherwise the CSV is parsed, x and y held to
    Grid2D.index_of_x's tolerance, and that read decides and words the error.
    Either way the same checks run on the columns.
    """
    try:
        g, cols = _read_companion(path, ncols) or _read_checked(path, ncols)
        if not np.all((cols[-1] == 0) | (cols[-1] == 1)):
            raise ValueError("the valid column holds a value other than 0 and 1")
        cols = [np.ascontiguousarray(c.reshape(g.ny, g.nx).T) for c in cols]
        return build(g, *cols[:-1], cols[-1].astype(bool))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def load_scalar_csv(path: str) -> ScalarField:
    """The dumped field bit for bit; a non-finite value at a valid point raises ValueError."""
    return _load_csv(path, 4, ScalarField)


def load_complex_csv(path: str) -> ComplexField:
    """The dumped map bit for bit, as load_scalar_csv."""
    return _load_csv(path, 5, ComplexField)
