"""Transformation between sinh-Gordon and sine-Gordon solutions.

The first-order system coupling a sinh-Gordon solution w and a sine-Gordon
solution theta is

    w_x - theta_y = -2 sinh(w) sin(theta)        (r1)
    w_y + theta_x = -2 cosh(w) cos(theta)        (r2)

Given one side, the other is constructed by quadrature: seed the transverse
axis line first, then sweep all parallel lines, enforcing one equation with
RK4 and reporting the other as a residual.  A sweep is tabulated, then
marched: the RK4 stage times of its cells depend only on the axis, so the
given field and its cross derivative are evaluated at the stage times of a
block of cells in one vectorized call per quantity (a block holds up to
MARCH_BLOCK table entries), and the RK4 stages only index those tables.  A
line sweep marches both sides of the seed line together while both have
cells left.  The seed line is tabulated as a chunk of one line.  Once it is
marched the lines are independent, so they are split into contiguous
chunks, one per worker but at least FORK_POINTS grid points each, and
pool.fork_map tabulates and sweeps each chunk, on a forked worker when
there is more than one.  None of this changes a bit of the output of a
cell-by-cell march.  The closed-form w printed for the tanh theta family is
also provided; it is evaluated verbatim and *checked against* the
quadrature construction, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .families import w_from_tanh_half
from .grid import (
    Grid2D,
    ScalarField,
    SINGULARITY_EPS,
    cumulative_integral_x,
    cumulative_integral_y,
    field,
    partial_x,
    partial_y,
)
from .pool import fork_map, workers

MARCH_SUBSTEPS = 8
W_CAP = 30.0  # |w| beyond this overflows cosh/sinh scales; treat as blow-up
_FD_STEP = 1e-5  # small-step derivative for analytic callables
MARCH_BLOCK = 1 << 16  # table entries per coefficient call: at most 0.5 MB a table
# Grid points per line chunk, at least.  Two forked chunks broke even at
# about 2 FORK_POINTS: a t2w + w2t pair on acceptance.MARCH_RECT_SQRT2 on two
# vCPUs took 1.1x its inline time at 38,191 points, 1.0x at 67,721 and
# 0.77x at 269,841.
FORK_POINTS = 1 << 15


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


def backlund_residuals(pair: BacklundPair):
    """(r1, r2) central-difference residuals of the coupled system."""
    w, th = pair.w, pair.theta
    wx, wy = partial_x(w), partial_y(w)
    tx, ty = partial_x(th), partial_y(th)
    m1 = wx.mask & ty.mask & th.mask
    m2 = wy.mask & tx.mask & th.mask
    r1 = wx.values - ty.values + 2 * np.sinh(w.values) * np.sin(th.values)
    r2 = wy.values + tx.values + 2 * np.cosh(w.values) * np.cos(th.values)
    return field(pair.grid, r1, m1), field(pair.grid, r2, m2)


def _tabulator(f: ScalarField, analytic, along: int):
    """Stage-time tables for marches along axis `along` (0: x, 1: y).

    Returns tables(lines) -> tab, and tab(T) -> (value, cross derivative)
    of f at the march coordinates T: arrays of shape (len(T), n) over the n
    lines of the slice `lines`.  The analytic path makes one vectorized call
    per quantity, the derivative by _FD_STEP central differences.  The
    sampled path takes the cross derivative here, once, from cubic splines
    across all lines, and tables(lines) fits cubic splines along the march
    axis to those lines of f and of its cross derivative.
    """
    g = f.grid
    cross = 1 - along
    t_axis, c_axis = (g.x(), g.y())[along], (g.x(), g.y())[cross]
    if analytic is not None:
        def tables(lines):
            c = c_axis[lines]  # cross coordinates of the lines

            def at(T, cc):
                return analytic(T[:, None], cc) if along == 0 else analytic(cc, T[:, None])

            return lambda T: (at(T, c), (at(T, c + _FD_STEP) - at(T, c - _FD_STEP)) / (2 * _FD_STEP))

        return tables

    # a first-order edge stencil here would leave the march first order
    values = (f.values, CubicSpline(c_axis, f.values, axis=cross).derivative()(c_axis))

    def tables(lines):
        pick = (slice(None),) * cross + (lines,)
        splines = [CubicSpline(t_axis, v[pick], axis=along) for v in values]
        if along == 1:
            return lambda T: tuple(np.ascontiguousarray(s(T).T) for s in splines)
        return lambda T: tuple(s(T) for s in splines)

    return tables


def _stage_times(t0, t1):
    """Step h and RK4 stage times of the cells t0 -> t1, elementwise over arrays.

    Per cell h = (t1 - t0) / MARCH_SUBSTEPS and the stage times follow the
    recurrence t, t + h/2, t + h; t <- t + h.  T has the shape of t0 with a
    stage axis of length 2 MARCH_SUBSTEPS + 1 inserted after the first.
    """
    h = (t1 - t0) / MARCH_SUBSTEPS
    t, T = t0, [t0]
    for _ in range(MARCH_SUBSTEPS):
        T += [t + h / 2, t + h]
        t = t + h
    return h, np.stack(T, axis=1)


def _rk4(G, u, h, P, Q):
    """RK4 for du/dt = P(t) + G(u) Q(t) over one cell of MARCH_SUBSTEPS steps h.

    P and Q hold the tables at the cell's stage times, stage axis first.
    """
    h2, h6 = h / 2, h / 6
    for s in range(0, 2 * MARCH_SUBSTEPS, 2):
        k1 = P[s] + G(u) * Q[s]
        k2 = P[s + 1] + G(u + h2 * k1) * Q[s + 1]
        k3 = P[s + 1] + G(u + h2 * k2) * Q[s + 1]
        k4 = P[s + 2] + G(u + h * k3) * Q[s + 2]
        u = u + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def _sweep(axis, k0, u0, coeffs, G):
    """March a state outward from index k0 along `axis`, both directions.

    coeffs(T) -> (P, Q) tabulates the right-hand side at a flat array of
    stage times; it is called once per block of at most MARCH_BLOCK table
    entries.  A line sweep (vector state) marches the cells k0 + j and
    k0 - j as one two-row state while both sides have cells, then the
    longer side alone; a seed sweep (scalar state) marches each side alone,
    as scalar numpy ops are cheaper than ops on two-element arrays.
    Entries that leave [-W_CAP, W_CAP] or go non-finite are frozen and
    flagged invalid from there on.
    """
    n = len(axis)
    m = np.shape(u0)
    out = np.zeros((n,) + m)
    valid = np.zeros((n,) + m, dtype=bool)
    out[k0] = u0
    valid[k0] = np.abs(u0) <= W_CAP  # False for nan and inf too
    up, down = np.arange(k0, n), np.arange(k0, -1, -1)
    if m:
        j = min(len(up), len(down))
        legs = [np.stack([up[:j], down[:j]], axis=1), up[j - 1:], down[j - 1:]]
    else:
        legs = [up, down]
    with np.errstate(over="ignore", invalid="ignore"):
        for ks in legs:
            u, alive = out[ks[0]], valid[ks[0]]
            h, T = _stage_times(axis[ks[:-1]], axis[ks[1:]])
            h = h.reshape(h.shape + (1,) * (h.ndim - 1))  # (cells, 2, 1) on paired legs
            block = max(1, MARCH_BLOCK // (np.prod(T.shape[1:]) * np.size(u0)))
            for b in range(0, len(T), block):
                Tb = T[b:b + block]
                P, Q = (a.reshape(Tb.shape + a.shape[1:]) for a in coeffs(Tb.ravel()))
                for i, k in enumerate(ks[b + 1:b + 1 + len(Tb)]):
                    u = _rk4(G, u, h[b + i], P[i], Q[i])
                    alive = alive & (np.abs(u) <= W_CAP)
                    u = np.where(alive, u, 0.0)
                    out[k] = u
                    valid[k] = alive
    return out, valid


def _march(f: ScalarField, u00: float, analytic, seed_axis: int,
           seed_coeffs, seed_G, line_coeffs, line_G) -> ScalarField:
    """Construct the partner of f by quadrature, with value u00 at (0, 0).

    Seeds the partner along the axis line of `seed_axis` (0: y = 0, 1: x = 0)
    by du/dt = P + seed_G(u) Q, then marches every line of the other axis by
    du/dt = P + line_G(u) Q.  seed_coeffs and line_coeffs map (f, cross
    derivative of f) at the stage times to (P, Q).  The seed line is
    tabulated as a one-line chunk.  The other lines are swept in contiguous
    chunks, one per worker but at least FORK_POINTS grid points each, each
    tabulated and swept by pool.fork_map, and joined along the state axis:
    every line's values are those of a sweep over all lines at once.  Raises
    ValueError if f is invalid at (0, 0), where every march starts.
    """
    g = f.grid
    axes = (g.x(), g.y())
    k0 = (g.index_of_x(0.0), g.index_of_y(0.0))
    if not f.mask[k0]:
        raise ValueError("the given field is invalid at the seed point (0, 0)")
    line_axis = 1 - seed_axis
    seed_tab = _tabulator(f, analytic, seed_axis)(slice(k0[line_axis], k0[line_axis] + 1))
    seed, seed_ok = _sweep(axes[seed_axis], k0[seed_axis], np.float64(u00),
                           lambda T: seed_coeffs(*(a[:, 0] for a in seed_tab(T))), seed_G)
    line_tables = _tabulator(f, analytic, line_axis)

    def sweep(lines):
        tab = line_tables(lines)
        return _sweep(axes[line_axis], k0[line_axis], seed[lines],
                      lambda T: line_coeffs(*tab(T)), line_G)

    n = len(seed)
    chunks = max(1, min(workers(), n, g.nx * g.ny // FORK_POINTS))
    cuts = [n * c // chunks for c in range(chunks + 1)]
    parts = fork_map([(sweep, slice(a, b)) for a, b in zip(cuts, cuts[1:])])
    vals, ok = (np.concatenate(p, axis=1) for p in zip(*parts))
    if line_axis == 1:
        # _sweep ran over y with state vectors over x: transpose to (nx, ny)
        vals, ok = vals.T, ok.T
    ok = ok & np.expand_dims(seed_ok, line_axis) & f.mask
    return field(g, np.where(ok, vals, 0.0), ok)


def theta_to_w(theta: ScalarField, w00: float, analytic=None) -> ScalarField:
    """Construct w from theta by quadrature, with w(0,0) = w00.

    Seeds w along y = 0 by w_x = theta_y - 2 sinh(w) sin(theta), then marches
    every column by w_y = -theta_x - 2 cosh(w) cos(theta).  `analytic`, when
    given, is a vectorized (x, y) -> theta callable used for in-cell values
    and derivatives; otherwise cubic splines over the sampled field are used.
    """
    return _march(
        theta, w00, analytic, 0,
        lambda th, th_y: (th_y, -2 * np.sin(th)), np.sinh,
        lambda th, th_x: (-th_x, -2 * np.cos(th)), np.cosh,
    )


def w_to_theta(w: ScalarField, theta00: float, analytic=None) -> ScalarField:
    """Construct theta from w by quadrature, with theta(0,0) = theta00.

    Seeds theta along x = 0 by theta_y = w_x + 2 sinh(w) sin(theta), then
    marches every row by theta_x = -w_y - 2 cosh(w) cos(theta).
    """
    return _march(
        w, theta00, analytic, 1,
        lambda wv, w_x: (w_x, 2 * np.sinh(wv)), np.sin,
        lambda wv, w_y: (-w_y, -2 * np.cosh(wv)), np.cos,
    )


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
    j0 = g.index_of_y(0.0)
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
