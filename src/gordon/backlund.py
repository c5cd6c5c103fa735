"""Transformation between sinh-Gordon and sine-Gordon solutions.

The first-order system coupling a sinh-Gordon solution w and a sine-Gordon
solution theta is

    w_x - theta_y = -2 sinh(w) sin(theta)        (r1)
    w_y + theta_x = -2 cosh(w) cos(theta)        (r2)

Given one side, the other is constructed by quadrature: seed the transverse
axis line first, then sweep all parallel lines, enforcing one equation and
reporting the other as a residual.  In t = tanh(w/2), or s = tan(theta/2),
each sweep is a Riccati equation, i.e. a linear traceless 2x2 system for
t = p/q (the Lax-pair form), marched one fourth-order Magnus cell at a time:
the given field and its cross derivative are tabulated at the two Gauss
points of every cell in vectorized blocks of at most MARCH_BLOCK entries,
all transfer matrices are formed in one pass, and the march multiplies 2x2
matrices.  Sampled data is read through local cubic Hermite cells, whose
node slopes are fourth-order five-point differences (grid.node_slopes), so
the sampled march is fourth order too.  A point is valid while the partner
stays within W_CAP from the seed to it.  The seed line is tabulated as one
line, then every other line is swept at once, in process, with the bits of
a cell-by-cell march.  The closed-form w printed for the tanh theta family is
evaluated verbatim and *checked against* the quadrature construction, never
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import w_from_tanh_half
from .grid import (
    Grid2D,
    ScalarField,
    SECOND_ORDER,
    SINGULARITY_EPS,
    cumulative_integral_x,
    cumulative_integral_y,
    field,
    node_slopes,
)

MARCH_SUBSTEPS = 1  # Magnus steps per cell; perfbench counts backlund.rk4_substeps from it
W_CAP = 30.0  # |w| beyond this overflows cosh/sinh scales; treat as blow-up
_FD_STEP = 1e-5  # small-step derivative for analytic callables
MARCH_BLOCK = 1 << 16  # table entries per coefficient call: at most 0.5 MB a table
_GAUSS = np.array([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6])  # Gauss points of a unit cell


@dataclass(frozen=True)
class BacklundPair:
    w: ScalarField
    theta: ScalarField
    provenance: str  # which side was given, which constructed

    def __post_init__(self):
        if self.w.grid != self.theta.grid:
            raise ValueError("pair fields must share one grid")

    @property
    def grid(self) -> Grid2D:
        return self.w.grid


def backlund_residuals(pair: BacklundPair, st=SECOND_ORDER):
    """(r1, r2) residuals of the coupled system, on the first derivatives of the stencils `st`."""
    w, th = pair.w, pair.theta
    wx, wy, tx, ty = st.d(w, 0), st.d(w, 1), st.d(th, 0), st.d(th, 1)
    m1 = wx.mask & ty.mask & th.mask
    m2 = wy.mask & tx.mask & th.mask
    r1 = wx.values - ty.values + 2 * np.sinh(w.values) * np.sin(th.values)
    r2 = wy.values + tx.values + 2 * np.cosh(w.values) * np.cos(th.values)
    return field(pair.grid, r1, m1), field(pair.grid, r2, m2)


def _cubic_cells(x, y, s, lo, d):
    """The cubic with values y and slopes s at nodes x, on cells lo, lo + 1, ...

    d[i] holds offsets into cell lo + i from its left node; the result has
    shape d.shape + y.shape[1:].  The cell coefficients are those of scipy's
    CubicHermiteSpline and the sum runs in its PPoly's order, so the values
    carry the bits of that spline evaluated at x[lo + i] + d[i].  (PPoly
    starts the sum at 0.0; that turns a -0.0 sum into 0.0 only when every
    term is -0.0, which takes a product that underflows.)
    """
    hi = lo + len(d)
    h = np.diff(x[lo:hi + 1])[:, None]
    y0, s0, s1 = y[lo:hi], s[lo:hi], s[lo + 1:hi + 1]
    slope = (y[lo + 1:hi + 1] - y0) / h
    t = (s0 + s1 - 2 * slope) / h
    c0, c1 = t / h, (slope - s0) / h - t
    d = d[..., None]
    return y0[:, None] + s0[:, None] * d + c1[:, None] * (d * d) + c0[:, None] * (d * d * d)


def _tabulator(f: ScalarField, analytic):
    """Gauss-point tables of f for marches along either axis.

    Returns tables(along, lines) -> tab for the lines of the slice `lines`
    marched along axis `along` (0: x, 1: y), and tab(lo, T) -> (value, cross
    derivative) of f at T, the Gauss points of cells lo, lo + 1, ... of the
    march axis: arrays of shape T.shape + (n,) over the n lines.  The
    analytic path makes one vectorized call per quantity, the derivative by
    _FD_STEP central differences.  The sampled path takes here, once, the
    node slopes of f along x and along y (grid.node_slopes, fourth order):
    the slope across the lines is the cross derivative at the nodes.
    tables() takes the slopes of that cross derivative along the march axis,
    on its own lines only, and tab() evaluates the cubic Hermite cells of f
    and of the cross derivative on its cells.  Each slope reads the five
    nearest nodes, and every cell is tabulated, so the sampled path raises
    ValueError where f has a masked point.
    """
    g = f.grid
    axes = (g.x(), g.y())
    if analytic is not None:
        def tables(along, lines):
            c = axes[1 - along][lines]  # cross coordinates of the lines

            def at(T, cc):
                return analytic(T[:, None], cc) if along == 0 else analytic(cc, T[:, None])

            def tab(lo, T):
                t = T.ravel()
                tabs = at(t, c), (at(t, c + _FD_STEP) - at(t, c - _FD_STEP)) / (2 * _FD_STEP)
                return tuple(v.reshape(T.shape + (len(c),)) for v in tabs)

            return tab

        return tables

    if not f.mask.all():  # the slopes would read the value stored there as data
        raise ValueError(f"the sampled march reads every grid value; "
                         f"{f.mask.size - np.count_nonzero(f.mask)} of {f.mask.size} are masked")
    spacing = (g.hx, g.hy)
    values = [np.moveaxis(f.values, a, 0) for a in (0, 1)]  # node axis first
    slopes = [node_slopes(values[a], spacing[a]) for a in (0, 1)]

    def tables(along, lines):
        x = axes[along]
        v, sv = values[along][:, lines], slopes[along][:, lines]
        dv = slopes[1 - along][lines].T
        sd = node_slopes(dv, spacing[along])

        def tab(lo, T):
            d = T - x[lo:lo + len(T), None]
            return _cubic_cells(x, v, sv, lo, d), _cubic_cells(x, dv, sd, lo, d)

        return tab

    return tables


def _magnus(h, A1, A2):
    """Entries (E11, E12, E21, E22) of each cell's transfer matrix exp(Omega).

    A1, A2: the Riccati coefficients (a, b, c) at the two Gauss points of the
    cells of widths h, A = [[b/2, a], [-c, -b/2]].  Omega = h/2 (A1 + A2) +
    (sqrt(3) h^2/12) [A2, A1] is the fourth-order Magnus exponent (Iserles &
    Norsett, Phil. Trans. R. Soc. A 357, 1999); it is traceless, so
    exp(Omega) = cosh(mu) I + sinh(mu)/mu Omega, mu^2 = -det(Omega).
    """
    (a1, b1, c1), (a2, b2, c2) = A1, A2
    k = np.sqrt(3) / 12 * h * h
    o1 = h / 4 * (b1 + b2) + k * (a1 * c2 - a2 * c1)
    o2 = h / 2 * (a1 + a2) + k * (a1 * b2 - a2 * b1)
    o3 = k * (b2 * c1 - b1 * c2) - h / 2 * (c1 + c2)
    mu2 = o1 * o1 + o2 * o3
    # Taylor series in mu^2; the first omitted terms are below 1e-20 where
    # |mu^2| < 1e-2, which takes in every cell of h |A| < 0.1
    C = 1 + mu2 * (1 / 2 + mu2 * (1 / 24 + mu2 * (1 / 720 + mu2 * (1 / 40320 + mu2 / 3628800))))
    S = 1 + mu2 * (1 / 6 + mu2 * (1 / 120 + mu2 * (1 / 5040 + mu2 * (1 / 362880 + mu2 / 39916800))))
    big = ~(np.abs(mu2) < 1e-2)  # nan too
    x = mu2[big]
    r = np.sqrt(np.abs(x))
    C[big] = np.where(x > 0, np.cosh(r), np.cos(r))
    S[big] = np.where(x > 0, np.sinh(r), np.sin(r)) / r
    return C + S * o1, S * o2, S * o3, C - S * o1


def _advance(p, q, e11, e12, e21, e22):
    """(p, q) times one cell's matrix, rescaled to |p| + |q| = 1."""
    p, q = e11 * p + e12 * q, e21 * p + e22 * q
    s = np.abs(p) + np.abs(q)
    return p / s, q / s


def _sweep(axis, k0, u0, tab, coeffs, periodic):
    """March u outward from index k0 along `axis`, both ways: (values, valid).

    u0 holds u at k0, one entry per line.  The state (p, q) has p/q = tan(u/2)
    if periodic, else tanh(u/2), so that v = p/q obeys v' = a + b v + c v^2
    with (a, b, c) = coeffs(*tab(lo, T)), tab giving the given field and its
    cross derivative at the Gauss points T of the cells from lo on (see
    _tabulator).  Cells below k0 are crossed
    by the adjugate (the inverse, det 1).  u is 2 artanh(p/q), or u0 plus
    the change of 2 atan2(p, q) made continuous from k0.  A point is valid
    while |u| <= W_CAP (so not nan) from k0 to it; invalid points read 0.
    """
    n, m = len(axis), len(u0)
    h = np.diff(axis)
    E = np.empty((4, n - 1, m))
    block = max(1, MARCH_BLOCK // (2 * m))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, n - 1, block):
            hc = h[lo:lo + block, None]
            f, df = tab(lo, axis[lo:lo + len(hc), None] + hc * _GAUSS)
            E[:, lo:lo + block] = _magnus(hc, coeffs(f[:, 0], df[:, 0]), coeffs(f[:, 1], df[:, 1]))
        p, q = np.empty((n, m)), np.empty((n, m))
        p[k0], q[k0] = (np.sin(u0 / 2), np.cos(u0 / 2)) if periodic else (np.tanh(u0 / 2), 1.0)
        e11, e12, e21, e22 = E
        for k in range(k0, n - 1):
            p[k + 1], q[k + 1] = _advance(p[k], q[k], e11[k], e12[k], e21[k], e22[k])
        for k in range(k0, 0, -1):
            p[k - 1], q[k - 1] = _advance(p[k], q[k], e22[k - 1], -e12[k - 1], -e21[k - 1], e11[k - 1])
        u = 2 * np.arctan2(p, q) if periodic else 2 * np.arctanh(p / q)
        u[k0] = u0
        ok = np.empty((n, m), dtype=bool)
        for side in (np.s_[k0:], np.s_[k0::-1]):
            if periodic:
                turn = np.unwrap(u[side], axis=0)
                u[side] = u0 + (turn - turn[0])
            ok[side] = np.logical_and.accumulate(np.abs(u[side]) <= W_CAP, axis=0)
    return np.where(ok, u, 0.0), ok


def _march(f: ScalarField, u00: float, analytic, seed_axis: int,
           seed_coeffs, line_coeffs, periodic: bool) -> ScalarField:
    """Construct the partner of f by quadrature, with value u00 at (0, 0).

    Seeds the partner along the axis line of `seed_axis` (0: y = 0, 1: x = 0)
    by seed_coeffs, then marches every line of the other axis by line_coeffs
    (see _sweep).  The seed line is tabulated as a slice of one line; the
    other lines are tabulated and swept together, in one _sweep.  Raises
    ValueError if u00 is not finite or f is invalid at (0, 0), where every
    march starts.
    """
    if not np.isfinite(u00):
        raise ValueError(f"the value at the seed point (0, 0) must be finite, got {u00!r}")
    g = f.grid
    axes = (g.x(), g.y())
    k0 = g.origin(f)
    line_axis = 1 - seed_axis
    tables = _tabulator(f, analytic)
    seed_tab = tables(seed_axis, slice(k0[line_axis], k0[line_axis] + 1))
    seed, seed_ok = (v[:, 0] for v in _sweep(axes[seed_axis], k0[seed_axis], np.array([u00], dtype=float),
                                             seed_tab, seed_coeffs, periodic))
    vals, ok = _sweep(axes[line_axis], k0[line_axis], seed, tables(line_axis, slice(None)), line_coeffs, periodic)
    if line_axis == 1:
        # _sweep ran over y with one column per x line: transpose to (nx, ny)
        vals, ok = vals.T, ok.T
    ok = ok & np.expand_dims(seed_ok, line_axis) & f.mask
    return field(g, vals, ok)


def theta_to_w(theta: ScalarField, w00: float, analytic=None) -> ScalarField:
    """Construct w from theta by quadrature, with w(0,0) = w00.

    Seeds w along y = 0 by w_x = theta_y - 2 sinh(w) sin(theta), then marches
    every column by w_y = -theta_x - 2 cosh(w) cos(theta).  `analytic`, when
    given, is a vectorized (x, y) -> theta callable used for in-cell values
    and derivatives; otherwise the sampled field is read through cubic
    Hermite cells with five-point node slopes.
    In t = tanh(w/2) these read t_x = th_y/2 - 2 sin(th) t - (th_y/2) t^2 and
    t_y = (-th_x/2 - cos th) + (th_x/2 - cos th) t^2.
    """
    def line(th, th_x):
        cos = np.cos(th)
        return -th_x / 2 - cos, 0.0, th_x / 2 - cos

    return _march(theta, w00, analytic, 0,
                  lambda th, th_y: (th_y / 2, -2 * np.sin(th), -th_y / 2), line, periodic=False)


def w_to_theta(w: ScalarField, theta00: float, analytic=None) -> ScalarField:
    """Construct theta from w by quadrature, with theta(0,0) = theta00.

    Seeds theta along x = 0 by theta_y = w_x + 2 sinh(w) sin(theta), then
    marches every row by theta_x = -w_y - 2 cosh(w) cos(theta).  In
    s = tan(theta/2) these read s_y = w_x/2 + 2 sinh(w) s + (w_x/2) s^2 and
    s_x = (-w_y/2 - cosh w) + (cosh w - w_y/2) s^2.
    """
    return _march(w, theta00, analytic, 1,
                  lambda wv, w_x: (w_x / 2, 2 * np.sinh(wv), w_x / 2),
                  lambda wv, w_y: (-w_y / 2 - np.cosh(wv), 0.0, np.cosh(wv) - w_y / 2), periodic=True)


# ---------------------------------------------------------------------------
# printed closed forms (evaluated verbatim; the quadrature march is the oracle)


def closed_form_w_tanh(theta: ScalarField, c: np.ndarray, w00: float) -> ScalarField:
    """Printed w for tanh-form theta with sin(theta) = tanh(C(x) + D(y)), d(0) = 0.

    With X(x) the x-quadrature of sin(theta) along y = 0, Y(x,y) the
    y-quadrature of cos(theta), q = sqrt(|4 - c^2|)/2 and L = 2q/(c - 2):

        tanh(w/2) = L (T0 e^{-2X} + L tan(q Y)) / (L - T0 e^{-2X} tan(q Y)),

    T0 = tanh(w00/2).  Masked where c is within the singularity threshold of
    +/-2 (L degenerates).
    """
    g = theta.grid
    c = np.asarray(c, dtype=float)
    if c.shape != (g.nx,):
        raise ValueError("c must be sampled on the grid x-axis")
    _, j0 = g.origin(theta)
    sin_th = field(g, np.sin(theta.values), theta.mask)
    cos_th = field(g, np.cos(theta.values), theta.mask)
    Xf = cumulative_integral_x(sin_th, 0.0)
    X = Xf.values[:, j0]
    Yf = cumulative_integral_y(cos_th, 0.0)

    disc = np.abs(4 - c**2)
    ok_x = (disc >= SINGULARITY_EPS) & (np.abs(c - 2) >= SINGULARITY_EPS) & Xf.mask[:, j0]
    q = np.sqrt(disc) / 2
    with np.errstate(divide="ignore", invalid="ignore"):
        L = np.sqrt(disc) / (c - 2)
    E = np.tanh(w00 / 2) * np.exp(-2 * X)  # (nx,)
    tq = np.tan(q[:, None] * Yf.values)
    num = L[:, None] * (E[:, None] + L[:, None] * tq)
    den = L[:, None] - E[:, None] * tq
    w, ok = w_from_tanh_half(num, den)
    return field(g, w, ok & ok_x[:, None] & Yf.mask)
