"""Catalog of closed-form solutions, harmonic maps, and target metrics.

Each catalog entry records the defining formula and its closed-form
evaluator, a recommended rectangle on which the formula is smooth and the
finite-difference checks meet their tolerances, the parameters the evaluator
takes, and (for sine-Gordon solutions) the probed sign convention sigma,
meaning the field satisfies laplacian(theta) = sigma * 2 sin(2 theta).
Harmonic maps also carry their sinh-Gordon partner and, when the target
metric is not the half-plane one, its conformal weight function.

Residual verifiers for both PDEs live here as well.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grid import (
    Grid2D,
    ScalarField,
    SINGULARITY_EPS,
    complex_field,
    field,
    make_metric,
)

SQRT2 = np.sqrt(2.0)
SCALAR_KINDS = ("sinh_solution", "sine_solution")


@dataclass(frozen=True)
class SolutionFamily:
    id: str
    kind: str  # sinh_solution | sine_solution | harmonic_map | target_metric
    formula: str
    rectangle: tuple  # (x0, x1, y0, y1) recommended evaluation window
    evaluate: Callable  # closed form (x, y, **params) -> (values..., valid mask)
    sign: int = 0  # sigma for sine families; 0 = undetermined
    params: dict = dc_field(default_factory=dict)
    curvature_rect: tuple | None = None  # sub-window for pullback curvature
    partner: str | None = None  # sinh-side family for the correspondence check
    partner_params: dict = dc_field(default_factory=dict)
    convention: str | None = None  # recorded correspondence ratio, exp(±2w)
    weight: Callable | None = None  # conformal weight e^F; None = half-plane 1/S^2


# ---------------------------------------------------------------------------
# closed-form evaluators: (x, y, **params) -> (values..., valid mask), called
# with a column of x and a row of y and broadcasting, so a factor of one
# coordinate is computed once per grid line (an output may keep one axis's
# shape).  The scalar ones are reused by the march code for off-grid samples.
# A weight function (X, Y) -> (e^F, valid mask) gives the conformal weight of
# a harmonic map whose printed target metric is not in half-plane
# coordinates, read off the printed metric as e^F = E_metric / (R_x^2 + S_x^2).


def w_tan_special(x, y):
    num = np.sinh(2 * x) + np.sinh(2 * y)
    den = 1 - np.sinh(2 * x) * np.sinh(2 * y)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.arcsinh(num / den)
    return w, np.abs(den) >= SINGULARITY_EPS


def w_from_tanh_half(num, den):
    """(w, valid mask) of tanh(w/2) = num/den, with w = 2 artanh(t) in log form.

    Masked where |den| < SINGULARITY_EPS or 1 - |num/den| < SINGULARITY_EPS.
    """
    ok = np.abs(den) >= SINGULARITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        t = num / den
    ok = ok & (1 - np.abs(t) >= SINGULARITY_EPS)
    t = np.where(ok, t, 0.0)
    return np.log1p(t) - np.log1p(-t), ok


def w_one_soliton(x, y, exponent_sign=1.0):
    return w_from_tanh_half(np.exp(2 * exponent_sign * x), np.ones(np.shape(x * y)))


def theta_const_halfpi(x, y):
    shape = np.shape(x * y)
    return np.full(shape, np.pi / 2), np.ones(shape, bool)


def theta_ex2(x, y):
    c = np.cos(2 * x)
    ok = np.abs(c) >= SINGULARITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        th = 2 * np.arctan(2 * y / c)
    return th, ok


def w_ex2(x, y):
    num = np.cos(y) * (np.sin(2 * x) - 2 * y) + np.sin(y)
    den = np.cos(y) + (2 * y + np.sin(2 * x)) * np.sin(y)
    return w_from_tanh_half(num, den)


def theta_sqrt2(x, y):
    cx = np.cosh(SQRT2 * x)
    cy = np.cosh(SQRT2 * y)
    return 2 * np.arctan((cx - cy) / (cx + cy)), np.ones(np.shape(cx - cy), dtype=bool)


def w_sqrt2(x, y):
    den = SQRT2 * np.sinh(SQRT2 * x) - 2 * np.cosh(SQRT2 * x)
    return w_from_tanh_half(SQRT2 * np.sinh(SQRT2 * y), den)


def u_ex_section3(x, y):
    R = 1 / np.cosh(2 * y) - np.sinh(2 * x) * np.tanh(2 * y)
    S = np.sinh(2 * x) / np.cosh(2 * y) + np.tanh(2 * y) - 2 * y
    return R, S, S >= SINGULARITY_EPS


def u_ex1(x, y, eps=1.0):
    R = y * np.ones_like(x)
    S = eps * np.sinh(2 * x) / 2
    return R, S, S >= SINGULARITY_EPS


def u_ex_section3_weight(X, Y):
    den = (1 - np.sinh(2 * X) * np.sinh(2 * Y)) ** 2
    ok = den >= SINGULARITY_EPS**2
    with np.errstate(divide="ignore", invalid="ignore"):
        wgt = np.cosh(2 * Y) ** 2 / den
    return wgt, ok


def u_ex2(x, y):
    den = 4 * y**2 + np.cos(2 * x) ** 2
    ok = np.abs(den) >= SINGULARITY_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        R = (np.cos(2 * y) * np.cos(2 * x) ** 2 + 4 * y * (np.sin(2 * x) + np.sin(2 * y) - y * np.cos(2 * y))) / den
        S = 2 * x + (4 * y * np.cos(2 * x) * np.cos(2 * y) - 2 * np.cos(2 * x) * (np.sin(2 * x) + np.sin(2 * y))) / den
    ok = ok & (S >= SINGULARITY_EPS)
    return R, S, ok


def u_ex2_weight(X, Y):
    E, _, _, okm = metric_ex2(X, Y)
    d = 1e-5
    Rp, Sp, okp = u_ex2(X + d, Y)
    Rm, Sm, okmn = u_ex2(X - d, Y)
    rx = (Rp - Rm) / (2 * d)
    sx = (Sp - Sm) / (2 * d)
    g = rx**2 + sx**2
    ok = okm & okp & okmn & (g >= SINGULARITY_EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        wgt = E / g
    return wgt, ok


def u_sqrt2(x, y):
    r = SQRT2
    den = 2 + np.cosh(2 * r * x) + np.cosh(2 * r * y)
    e2x = np.exp(2 * x)
    S = e2x * (2 + 3 * np.cosh(2 * r * x) - np.cosh(2 * r * y) - 2 * r * np.sinh(2 * r * x)) / den
    R = 4 * e2x * np.cosh(r * y) * (2 * np.cosh(r * x) - r * np.sinh(r * x)) / den - 2
    return R, S, S >= SINGULARITY_EPS


def metric_section3(x, y):
    den = (1 - np.sinh(2 * x) * np.sinh(2 * y)) ** 2
    ok = den >= SINGULARITY_EPS**2
    with np.errstate(divide="ignore", invalid="ignore"):
        E = 4 * np.cosh(2 * x) ** 2 * np.cosh(2 * y) ** 2 / den
        G = 4 * (np.sinh(2 * x) + np.sinh(2 * y)) ** 2 / den
    return E, np.zeros_like(E), G, ok


def metric_ex2(x, y):
    D = np.cos(2 * y) * (1 - 8 * y**2 + np.cos(4 * x)) + 8 * y * (np.sin(2 * x) + np.sin(2 * y))
    ok = np.abs(D) >= SINGULARITY_EPS
    nE = 3 + 8 * y**2 - np.cos(4 * x) + 4 * np.sin(2 * x) * (np.sin(2 * y) - 2 * y * np.cos(2 * y))
    nG = 8 * y * np.cos(2 * y) - 4 * np.sin(2 * x) + np.sin(2 * y) * (8 * y**2 + np.cos(4 * x) - 3)
    with np.errstate(divide="ignore", invalid="ignore"):
        E = 4 * nE**2 / D**2
        G = 4 * nG**2 / D**2
    return E, np.zeros_like(E), G, ok


CATALOG: dict[str, SolutionFamily] = {}


def _register(fam: SolutionFamily):
    CATALOG[fam.id] = fam


_register(SolutionFamily(
    id="W_TAN_SPECIAL",
    kind="sinh_solution",
    formula="sinh(w) = (sinh2x + sinh2y)/(1 - sinh2x*sinh2y)",
    rectangle=(-0.3, 0.3, -0.3, 0.3),
    evaluate=w_tan_special,
))
_register(SolutionFamily(
    id="W_ONE_SOLITON",
    kind="sinh_solution",
    formula="w = 2*artanh(exp(2*s*x)); valid where s*x < 0",
    rectangle=(-1.2, -0.3, -0.5, 0.5),
    evaluate=w_one_soliton,
    params={"exponent_sign": 1.0},
))
_register(SolutionFamily(
    id="THETA_CONST_HALFPI",
    kind="sine_solution",
    formula="theta = pi/2 (constant)",
    rectangle=(-0.5, 0.5, -0.5, 0.5),
    evaluate=theta_const_halfpi,
    sign=0,  # sin(2*theta) vanishes, so both signs fit
))
_register(SolutionFamily(
    id="THETA_EX2",
    kind="sine_solution",
    formula="tan(theta/2) = 2y*sec(2x)",
    rectangle=(-0.15, 0.15, -0.15, 0.15),
    evaluate=theta_ex2,
    sign=-1,
))
_register(SolutionFamily(
    id="W_EX2",
    kind="sinh_solution",
    formula="tanh(w/2) = (cosy*(sin2x - 2y) + siny)/(cosy + (2y + sin2x)*siny)",
    rectangle=(-0.15, 0.15, -0.15, 0.15),
    evaluate=w_ex2,
))
_register(SolutionFamily(
    id="THETA_SQRT2",
    kind="sine_solution",
    formula="tan(theta/2) = (cosh(r*x) - cosh(r*y))/(cosh(r*x) + cosh(r*y)), r = sqrt(2)",
    rectangle=(0.2, 1.0, -0.35, 0.35),
    evaluate=theta_sqrt2,
    sign=-1,
))
_register(SolutionFamily(
    id="W_SQRT2",
    kind="sinh_solution",
    formula="tanh(w/2) = r*sinh(r*y)/(r*sinh(r*x) - 2*cosh(r*x)), r = sqrt(2)",
    rectangle=(0.2, 1.0, -0.35, 0.35),
    evaluate=w_sqrt2,
))
_register(SolutionFamily(
    id="U_EX_SECTION3",
    kind="harmonic_map",
    formula="R = sech2y - sinh2x*tanh2y; S = sinh2x*sech2y + tanh2y - 2y",
    rectangle=(0.1, 0.5, -0.2, 0.2),
    evaluate=u_ex_section3,
    weight=u_ex_section3_weight,
    curvature_rect=(0.3, 0.5, -0.15, 0.15),
    partner="W_TAN_SPECIAL",
    convention="exp(-2w)",
))
_register(SolutionFamily(
    id="U_EX1",
    kind="harmonic_map",
    formula="R = y; S = eps*sinh(2x)/2 with eps = +1 on x > 0",
    rectangle=(0.3, 1.0, -0.5, 0.5),
    evaluate=u_ex1,
    params={"eps": 1.0},
    curvature_rect=(0.3, 1.0, -0.5, 0.5),
    partner="W_ONE_SOLITON",
    partner_params={"exponent_sign": -1.0},
    convention="exp(+2w)",
))
_register(SolutionFamily(
    id="U_EX2",
    kind="harmonic_map",
    formula="R = (cos2y*cos^2(2x) + 4y*(sin2x + sin2y - y*cos2y))/(4y^2 + cos^2(2x)); "
    "S = 2x + (4y*cos2x*cos2y - 2*cos2x*(sin2x + sin2y))/(4y^2 + cos^2(2x))",
    rectangle=(-0.15, -0.05, -0.1, 0.1),
    evaluate=u_ex2,
    weight=u_ex2_weight,
    curvature_rect=(-0.15, -0.07, 0.02, 0.09),
    partner="W_EX2",
    convention="exp(-2w)",
))
_register(SolutionFamily(
    id="U_SQRT2",
    kind="harmonic_map",
    formula="S = exp(2x)*(2 + 3*cosh(2rx) - cosh(2ry) - 2r*sinh(2rx))/(2 + cosh(2rx) + cosh(2ry)); "
    "R = 4*exp(2x)*cosh(ry)*(2*cosh(rx) - r*sinh(rx))/(2 + cosh(2rx) + cosh(2ry)) - 2, r = sqrt(2)",
    rectangle=(0.2, 1.0, -0.35, 0.35),
    evaluate=u_sqrt2,
    curvature_rect=(0.2, 0.9, 0.05, 0.3),
    partner="W_SQRT2",
    convention="exp(-2w)",
))
_register(SolutionFamily(
    id="METRIC_SECTION3",
    kind="target_metric",
    formula="E = 4*cosh^2(2x)*cosh^2(2y)/(1 - sinh2x*sinh2y)^2; "
    "G = 4*(sinh2x + sinh2y)^2/(1 - sinh2x*sinh2y)^2; Fc = 0",
    rectangle=(0.05, 0.3, 0.05, 0.3),
    evaluate=metric_section3,
))
_register(SolutionFamily(
    id="METRIC_EX2",
    kind="target_metric",
    formula="diagonal metric 4*(3 + 8y^2 - cos4x + 4*sin2x*(sin2y - 2y*cos2y))^2/D^2 dx^2 "
    "+ 4*(8y*cos2y - 4*sin2x + sin2y*(8y^2 + cos4x - 3))^2/D^2 dy^2, "
    "D = cos2y*(1 - 8y^2 + cos4x) + 8y*(sin2x + sin2y)",
    rectangle=(0.2, 0.4, 0.05, 0.25),
    evaluate=metric_ex2,
))


def get_family(fid: str) -> SolutionFamily:
    try:
        return CATALOG[fid]
    except KeyError:
        raise KeyError(f"unknown family id: {fid}") from None


def _params(fam: SolutionFamily, params) -> dict:
    """The family's declared params, overridden by `params`.

    Raises ValueError for a key the family does not declare or a value that
    is not a finite real number.
    """
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"params must be a JSON object, got {params!r}")
    unknown = sorted(set(params) - set(fam.params))
    if unknown:
        raise ValueError(f"{fam.id} does not declare params {unknown}; it takes {sorted(fam.params)}")
    for k, v in params.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
            raise ValueError(f"param {k!r} of {fam.id} must be a finite real number, got {v!r}")
    return {**fam.params, **params}


def scalar_callable(fid: str):
    """Vectorized (x, y) -> value function for a scalar family at its params, or None.

    Used by the transform marches, which need values between grid points.
    Invalid points come back as nan.
    """
    fam = CATALOG.get(fid)
    if fam is None or fam.kind not in SCALAR_KINDS:
        return None

    def call(x, y):
        v, ok = fam.evaluate(np.asarray(x, dtype=float), np.asarray(y, dtype=float), **fam.params)
        return np.where(ok, v, np.nan)

    return call


def eval_family(fid: str, grid: Grid2D, params: dict | None = None):
    """Evaluate a catalog family on a grid.

    Returns ScalarField (solutions), ComplexField (harmonic maps), or
    MetricSample (target metrics).  Raises ValueError for params the family
    does not declare.
    """
    fam = get_family(fid)
    build = {"harmonic_map": complex_field, "target_metric": make_metric}.get(fam.kind, field)
    return build(grid, *_on_grid(fam.evaluate, grid, **_params(fam, params)))


def hopf_weight(fid: str, grid: Grid2D) -> ScalarField | None:
    """Conformal weight e^F of a harmonic map's target metric, on the source grid.

    None means the plain Poincare half-plane weight 1/S^2 applies (the weight
    then comes from the map itself); otherwise the family's weight function
    is evaluated and masked.
    """
    fam = get_family(fid)
    return None if fam.weight is None else field(grid, *_on_grid(fam.weight, grid))


def _on_grid(fn, grid: Grid2D, **params) -> list:
    """fn's outputs on the open grid (x[:, None], y[None, :]), each broadcast to (nx, ny)."""
    return [np.broadcast_to(a, (grid.nx, grid.ny)) for a in fn(grid.x()[:, None], grid.y()[None, :], **params)]


# ---------------------------------------------------------------------------
# PDE residuals on the field's Laplacian `lap`, which the caller takes from its stencils


def residual_sinh_gordon(w: ScalarField, lap: ScalarField) -> ScalarField:
    r = lap.values - 2 * np.sinh(2 * w.values)
    return field(w.grid, r, lap.mask)


def residual_sine_gordon(theta: ScalarField, sigma: int, lap: ScalarField) -> ScalarField:
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    r = lap.values - sigma * 2 * np.sin(2 * theta.values)
    return field(theta.grid, r, lap.mask)


def definite(a: float, b: float) -> int:
    """Which of two probes' sups is definite: +1 if a < 0.1 b, -1 if b < 0.1 a, else 0."""
    return 1 if a < 0.1 * b else -1 if b < 0.1 * a else 0


def sign_probe(theta: ScalarField, lap: ScalarField) -> int:
    """Return the sigma in {+1, -1} minimizing the residual, or 0 if ambiguous.

    Ambiguous means neither sup-norm is definite against the other (as for
    constant theta = pi/2 where both residuals vanish).  Both take theta's Laplacian `lap`.
    """
    sup_p, n_p = residual_sine_gordon(theta, +1, lap).sup_norm()
    sup_m, n_m = residual_sine_gordon(theta, -1, lap).sup_norm()
    if min(n_p, n_m) < 100:
        raise ValueError(f"too few valid interior points for a sign probe: {min(n_p, n_m)} of the 100 "
                         f"it needs on a {theta.grid.nx} x {theta.grid.ny} grid")
    return definite(sup_p, sup_m)
