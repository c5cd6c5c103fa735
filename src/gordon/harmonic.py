"""Harmonic maps into the hyperbolic upper half-plane.

A transformation pair (w, theta) generates a harmonic map u = R + iS through
four cumulative quadratures:

    I1(x)   = int_0^x cosh(w) sin(theta) dt        (along y = 0)
    I2(x,y) = int_0^y sinh(w) cos(theta) ds        (per column)
    I3(x)   = int_0^x e^{2 I1} cosh(w) cos(theta) dt   (along y = 0)
    I4(x,y) = e^{2 I1(x)} int_0^y e^{2 I2(x,s)} sinh(w) sin(theta) ds

    S = S0 e^{2 (I1 + I2)},   R = R0 + 2 S0 (I3 - I4).

Verification is by the Hopf condition e^F dz_u dz_ubar = 1 (with the
half-plane weight e^F = 1/S^2 unless the target metric supplies another
conformal weight), the first-order correspondence dzbar_u / dz_u = e^{-+2w},
and Gaussian curvature -1 of target and pullback metrics in orthogonal
coordinates (by the Hopf condition a pullback is 4cosh^2 w dx^2 + 4sinh^2 w dy^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backlund import BacklundPair
from .families import definite
from .grid import (
    ComplexField,
    MetricSample,
    NumericalError,
    ScalarField,
    SINGULARITY_EPS,
    complex_field,
    cumulative_integral_x,
    cumulative_integral_y,
    field,
    make_metric,
)

IMMERSION_EPS = 1e-10  # pullback curvature is masked below this metric determinant


@dataclass(frozen=True)
class HarmonicMapResult:
    u: ComplexField
    I1: ScalarField  # function of x, broadcast over the grid for audit dumps
    I2: ScalarField
    I3: ScalarField  # function of x, broadcast
    I4: ScalarField


def ppfd_construct(pair: BacklundPair, R0: float, S0: float) -> HarmonicMapResult:
    """Build u = R + iS from a transformation pair by the four quadratures."""
    if not (np.isfinite(R0) and np.isfinite(S0) and S0 > 0):
        raise ValueError(f"need a finite R0 and a finite, positive S0 (half-plane coordinate), got {R0!r}, {S0!r}")
    g = pair.grid
    _, j0 = g.origin(pair.w, pair.theta)
    w, th = pair.w.values, pair.theta.values
    ok = pair.w.mask & pair.theta.mask

    f1 = field(g, np.cosh(w) * np.sin(th), ok)
    I1f = cumulative_integral_x(f1, 0.0)
    I1x = I1f.values[:, j0]
    ok1 = I1f.mask[:, j0]

    I2f = cumulative_integral_y(field(g, np.sinh(w) * np.cos(th), ok), 0.0)

    f3 = field(g, np.exp(2 * I1f.values) * np.cosh(w) * np.cos(th), ok & I1f.mask)
    I3x = cumulative_integral_x(f3, 0.0).values[:, j0]

    f4 = field(g, np.exp(2 * I2f.values) * np.sinh(w) * np.sin(th), ok & I2f.mask)
    I4in = cumulative_integral_y(f4, 0.0)
    I4 = np.exp(2 * I1x)[:, None] * I4in.values

    valid = ok1[:, None] & I2f.mask & I4in.mask
    S = S0 * np.exp(2 * (I1x[:, None] + I2f.values))
    R = R0 + 2 * S0 * (I3x[:, None] - I4)
    u = complex_field(g, R, S, valid)
    bcast = lambda a: field(g, np.broadcast_to(a[:, None], (g.nx, g.ny)), valid)
    return HarmonicMapResult(
        u=u,
        I1=bcast(I1x),
        I2=field(g, I2f.values, valid),
        I3=bcast(I3x),
        I4=field(g, I4, valid),
    )


def hopf_residual(u: ComplexField, weight: ScalarField | None, wirt) -> ScalarField:
    """Pointwise |e^F dz_u dz_ubar - 1|, where `wirt` is (dz_u, dzbar_u), the stencils' wirtinger(u).

    `weight` is the conformal factor e^F of the target metric sampled on the
    source grid; None selects the half-plane weight 1/S^2 read off u itself.
    """
    g = u.grid
    dz_u, dzb_u = wirt
    prod = dz_u.complex_values() * np.conj(dzb_u.complex_values())
    if weight is None:
        ok = dz_u.mask & (u.im >= SINGULARITY_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(prod / u.im**2 - 1)
    else:
        ok = dz_u.mask & weight.mask
        r = np.abs(weight.values * prod - 1)
    return field(g, r, ok)


def correspondence_check(u: ComplexField, w: ScalarField, wirt):
    """Probe the first-order relation dzbar_u / dz_u against e^{-+2w}; `wirt` as in hopf_residual.

    Returns (convention, residual field) where convention is 'exp(-2w)',
    'exp(+2w)', or 'none' when neither sup-residual is definite against the
    other; a tie returns the exp(-2w) residual.
    """
    if u.grid != w.grid:
        raise ValueError("fields must share one grid")
    g = u.grid
    dz_u, dzb_u = wirt
    mag = np.abs(dz_u.complex_values())
    ok = dz_u.mask & w.mask & (mag >= SINGULARITY_EPS)
    if np.count_nonzero(ok) < 9:
        raise NumericalError("dz_u degenerate on almost all of the grid")
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = dzb_u.complex_values() / np.where(ok, dz_u.complex_values(), 1.0)
    res_m = field(g, np.abs(rho - np.exp(-2 * w.values)), ok)
    res_p = field(g, np.abs(rho - np.exp(+2 * w.values)), ok)
    sup_m, _ = res_m.sup_norm()
    sup_p, _ = res_p.sup_norm()
    return {1: ("exp(-2w)", res_m), -1: ("exp(+2w)", res_p)}.get(
        definite(sup_m, sup_p), ("none", res_m if sup_m <= sup_p else res_p))


def immersive(m: MetricSample):
    """Points whose det = E G - Fc^2 clears IMMERSION_EPS, and sqrt(det) (1 elsewhere)."""
    det = m.E * m.G - m.Fc**2
    ok = m.mask & (det >= IMMERSION_EPS)
    return ok, np.sqrt(np.where(ok, det, 1.0))


def gaussian_curvature(m: MetricSample, st) -> tuple[ScalarField, bool]:
    """Gaussian curvature K of a metric in orthogonal coordinates, on the stencils `st`:

        K = -(1/(2 sqrt(EG))) [d/dx(G_x / sqrt(EG)) + d/dy(E_y / sqrt(EG))]

    as nested first derivatives st.d.  Degenerate points (det below the immersion
    guard) are masked.  Returns (K, orthogonal), where orthogonal says whether
    |Fc| <= 1e-3 sqrt(det) wherever K reads m: only then is K m's curvature.
    """
    g = m.grid
    ok, sq = immersive(m)
    orthogonal = bool(np.all(np.abs(m.Fc[ok]) <= 1e-3 * sq[ok]))
    Gx, Ey = st.d(field(g, m.G, ok), 0), st.d(field(g, m.E, ok), 1)
    t1 = st.d(field(g, Gx.values / sq, Gx.mask), 0)
    t2 = st.d(field(g, Ey.values / sq, Ey.mask), 1)
    mask = t1.mask & t2.mask
    with np.errstate(divide="ignore", invalid="ignore"):
        K = -(t1.values + t2.values) / (2 * sq)
    return field(g, K, mask), orthogonal


def pullback_metric(u: ComplexField, weight: ScalarField | None, st) -> MetricSample:
    """First fundamental form induced by u, on the partials of the stencils `st`; weight as in hopf_residual."""
    g = u.grid
    Rx, Ry, Sx, Sy = st.partials(u)
    ok = Rx.mask & Ry.mask & Sx.mask & Sy.mask
    if weight is None:
        ok = ok & (u.im >= SINGULARITY_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):
            wgt = 1.0 / u.im**2
    else:
        ok = ok & weight.mask
        wgt = weight.values
    E = wgt * (Rx.values**2 + Sx.values**2)
    Fc = wgt * (Rx.values * Ry.values + Sx.values * Sy.values)
    G = wgt * (Ry.values**2 + Sy.values**2)
    return make_metric(g, E, Fc, G, ok)
