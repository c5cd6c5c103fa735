"""Uniform rectangular grids, masked fields, and finite-difference primitives.

Everything downstream (solution families, transforms, harmonic maps) is built
on the three containers defined here, second-order stencils (which every check
takes through SECOND_ORDER), quadrature operations, and the fourth-order node
slopes the sampled march reads its data through.  Fields are immutable after
construction; every operation returns a new field and propagates validity
masks so that singular points never contaminate residual norms.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import types
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


# Where every check takes its derivatives from: d(f, axis), lap(f), partials(u)
# and wirtinger(u) of the stencils above. Each looks its function up here by
# name when called, so rebinding one (as a tracer or a test does) reaches every check.
SECOND_ORDER = types.SimpleNamespace(d=lambda f, axis: (partial_x, partial_y)[axis](f), lap=lambda f: laplacian(f),
                                     partials=lambda u: partials(u), wirtinger=lambda u: wirtinger(u))


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
    """Binary handle on `<path>.<pid>.tmp`, renamed to `path` on success, else removed.

    An OSError with an errno is raised again naming `path`, not the `.tmp`.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
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


# _format17's tables. Every 10**k up to k = 22 is a float64 (5**22 < 2**53).
_POW10 = np.array([float(10**k) for k in range(23)])
# By X + 6, X in [-6, 16] the decimal exponent: the digits before the point
# (17: no point), the "0.000" before the first digit and the "e-0N" after the last
_EXPONENTS = range(-6, 17)
_POINT_AFTER = np.array([X + 1 if X >= 0 else 1 if X < -4 else 17 for X in _EXPONENTS])
_PREFIX = np.array([int.from_bytes((b"0." + b"0" * (-X - 1)).rjust(7, b"\0") if -4 <= X < 0 else b"", "little")
                    for X in _EXPONENTS], np.uint64)
_SUFFIX = np.array([int.from_bytes(b"\0e-0%d" % -X if X < -4 else b"", "little") for X in _EXPONENTS], np.uint64)
# By a byte count n <= 8: ASCII zeros in the lowest n bytes, and a mask of them
_ASCII_ZEROS = np.array([int.from_bytes(b"0" * n, "little") for n in range(9)], np.uint64)
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)
# By a byte k <= 16 of two words: the point at k in the first, and in the second
_POINT_IN = [np.array([46 << 8 * (k - lo) if lo <= k < lo + 8 else 0 for k in range(17)], np.uint64) for lo in (0, 8)]
_BYTE_STEPS = np.array([256**n for n in range(8)], np.uint64)  # a uint64's bytes up to its last nonzero one


def _halves(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(a, X):
    """(floor, fraction) of a * 10**(16 - X), by Dekker's exact two-product hi + lo (Numer. Math. 18, 1971)."""
    p = _POW10[16 - X]
    (ah, al), (ph, pl) = _halves(a), _halves(p)
    hi = a * p
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    fh = np.floor(hi)
    t = (hi - fh) + lo
    ft = np.floor(t)
    return fh.astype(np.int64) + ft.astype(np.int64), t - ft


def _digits8(n):
    """The 8 decimal digits of each n < 10**8 as the bytes of a uint64, the most significant lowest.

    Every lane is divided at once, by a multiply and a shift: two lanes of 4
    digits by 100 (* 5243 >> 19, exact below 43690), then four of 2 digits
    by 10 (* 103 >> 10, exact below 170).
    """
    v = n // 10000 | n % 10000 << 32
    q = v * 5243 >> 19 & 0x7F0000007F
    v = q | (v - 100 * q) << 16
    q = v * 103 >> 10 & 0xF000F000F000F
    return q | (v - 10 * q) << 8


def _format17(x: np.ndarray) -> np.ndarray:
    """b"%.17g" % v of each v in the float64 array x, as rows of 32 bytes: the text, NULs mixed in.

    Exact for 1e-6 < |v| < 1e17: the exponent X of v's rounding to 17 digits
    is in [-6, 16], so 10**(16 - X) is a float64 and |v| * 10**(16 - X) =
    hi + lo exactly. Once that lies in [10**16, 10**17), hi >= 2**53 is an
    integer and lo a multiple of 2**-51 below 8 in magnitude, so its floor D
    and fraction are exact, and D rounds half to even as CPython's correctly
    rounded conversion does, never up to 10**17 (the largest float64 below a
    power of 10 rounds below it); an X taken from log10 that is one off puts
    D outside that range and moves. A row's bytes: the sign (0), the "0.000"
    of -4 <= X < 0 (up to 6), D's first digit (7), its other 16 digits with
    the point put in after digit X + 1, or the first for X < -4 (8-24), and
    the "e-05" or "e-06" of X < -4 (25-28). D's trailing zeros after the
    point are NULs, and so is the point when none is left. Any other v (0,
    non-finite, or outside that range) is formatted by `%`.
    """
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e17)  # nan compares False
    a = np.where(fast, a, 1.0)
    X = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.intp)
    D, frac = _scaled(a, X)
    while (off := (D < 10**16) | (D >= 10**17)).any():
        X[off] += np.where(D[off] < 10**16, -1, 1)
        D[off], frac[off] = _scaled(a[off], X[off])
    D += (frac > 0.5) | ((frac == 0.5) & (D % 2 == 1))
    D = D.view(np.uint64)
    b, c = _digits8(D // 10**8 % 10**8), _digits8(D % 10**8)  # digits 2-9 and 10-17
    last = np.where(c > 0, 9, 1) + np.searchsorted(_BYTE_STEPS, np.where(c > 0, c, b), "right")
    kept = np.maximum(last, X + 1)  # digits shown: up to the last nonzero one, and every one before the point
    X += 6
    s = _POINT_AFTER[X] - 1  # the point goes before byte s of b and c, which move up one byte
    b |= _ASCII_ZEROS[np.clip(kept - 1, 0, 8)]
    c |= _ASCII_ZEROS[np.clip(kept - 9, 0, 8)]
    lb, lc = b & _LOW_BYTES[np.minimum(s, 8)], c & _LOW_BYTES[np.clip(s - 8, 0, 8)]
    hb, hc = b ^ lb, c ^ lc
    s[kept <= s + 1] = 16  # no digit after the point: none is shown
    out = np.empty((x.size, 4), "<u8")
    out[:, 0] = np.signbit(x) * np.uint64(45) | _PREFIX[X] | (D // 10**16 + 48) << 56
    out[:, 1] = lb | hb << 8 | _POINT_IN[0][s]
    out[:, 2] = lc | hc << 8 | hb >> 56 | _POINT_IN[1][s]
    out[:, 3] = hc >> 56 | _SUFFIX[X]
    text = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text[slow] = np.frombuffer(b"".join((b"%.17g" % v).ljust(32, b"\0") for v in x[slow].tolist()),
                                   np.uint8).reshape(-1, 32)
    return text


# CSV rows assembled at a time: bounds what a dump adds to peak RSS
_CSV_BLOCK = 1 << 13
_SCALAR, _COMPLEX = ("value",), ("re", "im")


def _header(names) -> str:
    """The first line of a dump with value columns `names`, without its line ending."""
    return ",".join(("x", "y", *names, "valid"))


def _dump_csv(path: str, grid: Grid2D, names, columns, mask: np.ndarray, family=None) -> None:
    """Write `x,y,<names>,valid` rows, y in the outer loop, numbers as `%.17g`, its companion, then the sidecar.

    _format17 formats every number, each grid line's x and y once. Blocks of
    whole grid lines (_CSV_BLOCK rows, or one line if longer) are laid out
    as rows of fixed-width fields in one reused buffer, NUL-padded, and
    written with their NULs dropped, so no whole-file string is ever held.
    The companion `<path>.npy` holds the value columns and the valid column
    (0.0 or 1.0) as one float64 array, one row per CSV row. The sidecar
    `<path>.grid.json` holds the grid, `family` when given, and
    `data_sha256`, the digest of the grid, the CSV and the companion (see
    _read_companion). Each file is written atomically, the sidecar last: a
    dump cut short leaves the old files, or a digest that no longer matches
    them.
    """
    table = np.stack([a.T for a in (*columns, mask)], axis=-1, dtype=float)  # (ny, nx, k + 1)
    xs, ys = (t[:, t.any(axis=0)] for t in (_format17(grid.x()), _format17(grid.y())))
    fields = [xs.shape[1], ys.shape[1]] + [32] * len(columns)
    ends = np.cumsum(np.add(fields, 1))  # each field and the comma after it
    lines = min(grid.ny, max(1, _CSV_BLOCK // grid.nx))
    rows = np.zeros((lines, grid.nx, ends[-1] + 2), np.uint8)
    rows[:, :, ends - 1] = ord(",")
    rows[:, :, -1] = ord("\n")
    rows[:, :, :fields[0]] = xs
    digest = _data_sha256(grid)
    with atomic_open(path) as fh:
        header = (_header(names) + "\n").encode()
        digest.update(header)
        fh.write(header)
        for j in range(0, grid.ny, lines):
            block = rows[:min(lines, grid.ny - j)]
            n = len(block)
            block[:, :, ends[0]:ends[1] - 1] = ys[j:j + n, None]
            values = _format17(table[j:j + n, :, :-1].ravel()).reshape(n, grid.nx, -1, 32)
            for k, e in enumerate(ends[2:]):
                block[:, :, e - 33:e - 1] = values[:, :, k]
            block[:, :, -2] = mask.T[j:j + n] + ord("0")
            text = block.reshape(-1)
            text = text[text != 0]
            digest.update(text)
            fh.write(text)
    npy = io.BytesIO()
    np.save(npy, table.reshape(-1, table.shape[-1]), allow_pickle=False)
    digest.update(npy.getbuffer())
    with atomic_open(path + ".npy") as fh:
        fh.write(npy.getbuffer())
    dump_json(grid.to_json() | ({} if family is None else {"family": family}) | {"data_sha256": digest.hexdigest()},
              path + ".grid.json")


def dump_scalar_csv(f: ScalarField, path: str) -> None:
    _dump_csv(path, f.grid, _SCALAR, (f.values,), f.mask)


def dump_complex_csv(u: ComplexField, path: str, family=None) -> None:
    """Dump u; `family` names the catalog map whose Hopf weight `harmonic verify` takes."""
    _dump_csv(path, u.grid, _COMPLEX, (u.re, u.im), u.mask, family)


def dump_json(obj, path: str) -> None:
    """Write obj as indented JSON with sorted keys, atomically; ValueError if it holds nan or +-inf."""
    with atomic_open(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n").encode())


def dump_grid_sidecar(grid: Grid2D, path: str) -> None:
    dump_json(grid.to_json(), path)


def load_grid_json(path: str):
    """(grid, the JSON object) of a grid JSON file such as a CSV dump's sidecar.

    Raises ValueError, naming the path, unless the file holds a grid object
    (see Grid2D.from_json).
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
        return Grid2D.from_json(d), d
    except ValueError as e:  # json's decode error is one
        raise ValueError(f"{path}: {e}") from e


def _read_companion(path: str, g: Grid2D, data_sha256, names):
    """Value columns of the companion `<path>.npy` if `data_sha256`, the sidecar's, vouches for it, else None.

    The digest is taken again over the sidecar's grid g, the CSV's bytes and
    the companion's, so an edit to any of the three, a dump cut short, or a
    missing or unreadable file sends the CSV to the parsing read.
    """
    digest = _data_sha256(g)
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        with open(path + ".npy", "rb") as fh:
            npy = fh.read()
        digest.update(npy)
        if digest.hexdigest() != data_sha256:
            return None
        table = np.load(io.BytesIO(npy), allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if table.dtype != np.float64 or not table.flags.c_contiguous or table.shape != (g.nx * g.ny, len(names) + 1):
        return None
    return list(table.T)


def _read_checked(path: str, g: Grid2D, names):
    """Value columns of any file on grid g: its header checked, x and y parsed and held to index_of_x's tolerance."""
    with open(path, encoding="latin-1") as fh:  # any byte decodes; universal newlines, as np.loadtxt reads
        found = fh.readline().removesuffix("\n")
    if found != _header(names):
        raise ValueError(f"expected the columns {_header(names)!r} on line 1, found {found!r}")
    with warnings.catch_warnings():  # a header and no rows: rejected by its shape
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n, ncols = g.nx * g.ny, len(names) + 3
    if data.shape != (n, ncols):
        raise ValueError(f"expected {n} rows of {ncols} columns, the y-major points of its sidecar's "
                         f"{g.nx} x {g.ny} grid, got {data.shape[0]} x {data.shape[1]}")
    if not (np.all(np.abs(data[:, 0] - np.tile(g.x(), g.ny)) <= 1e-9 * max(1.0, g.hx))
            and np.all(np.abs(data[:, 1] - np.repeat(g.y(), g.nx)) <= 1e-9 * max(1.0, g.hy))):
        raise ValueError(f"rows are not the y-major points of its sidecar's {g.nx} x {g.ny} grid")
    return [data[:, k] for k in range(2, ncols)]


def _load_csv(path: str, names, build):
    """(build(grid, value columns as (nx, ny) arrays, mask), the sidecar's "family" or None) of a dump.

    `names` are the value columns its writer passed to _dump_csv. The
    sidecar `<path>.grid.json` is read first, and once, through
    load_grid_json; it is required and gives the grid, so a file cut at a
    whole grid row is rejected, and a missing CSV is reported as itself.
    Raises ValueError, naming the path, unless the sidecar holds a grid, the
    rows are that grid's points in y-major order under the writer's header,
    every entry of the last (valid) column is 0 or 1, and numpy's parser and
    build accept the data. The columns come from the dump's companion
    `<path>.npy` when the sidecar's digest shows that none of the three files
    changed since the dump; otherwise the CSV is parsed, its header checked,
    x and y held to Grid2D.index_of_x's tolerance, and that read decides and
    words the error. Either way the same checks run on the columns.
    """
    try:
        try:
            g, sidecar = load_grid_json(path + ".grid.json")
        except FileNotFoundError:
            os.stat(path)  # a missing CSV raises here, naming itself
            raise ValueError(f"its grid sidecar {path}.grid.json is missing") from None
        cols = _read_companion(path, g, sidecar.get("data_sha256"), names) or _read_checked(path, g, names)
        if not np.all((cols[-1] == 0) | (cols[-1] == 1)):
            raise ValueError("the valid column holds a value other than 0 and 1")
        cols = [np.ascontiguousarray(c.reshape(g.ny, g.nx).T) for c in cols]
        return build(g, *cols[:-1], cols[-1].astype(bool)), sidecar.get("family")
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def load_scalar_csv(path: str) -> ScalarField:
    """The dumped field bit for bit; a non-finite value at a valid point raises ValueError."""
    return _load_csv(path, _SCALAR, ScalarField)[0]


def load_complex_csv(path: str):
    """(u, family) of dump_complex_csv(u, path, family): u bit for bit, as load_scalar_csv, and family or None."""
    return _load_csv(path, _COMPLEX, ComplexField)
