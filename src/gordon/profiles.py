"""One-dimensional profile ODEs with quartic first integrals.

A profile p(t) obeys (p')^2 = q4*p^4 + q2*p^2 + q0.  We integrate the
second-order reduction p'' = 2*q4*p^3 + q2*p (regular at turning points where
p' = 0), together with the antiderivative P' = p, as one classical RK4 state
on plain Python floats at one eighth of the grid spacing, then assemble
two-dimensional solutions of the separable ansatz forms:

    sinh w = tan(A(x) + B(y))        (tan family,  A' = a, B' = b)
    sin theta = tanh(C(x) + D(y))    (tanh family, C' = c, D' = d)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import SINGULARITY_EPS, Grid2D, NumericalError, ScalarField, field

BLOWUP_LIMIT = 1e6
ODE_REFINEMENT = 8  # RK4 substeps per axis cell

# tolerance for coefficient-constraint checks on externally supplied constants
_CONSTRAINT_TOL = 1e-9


@dataclass(frozen=True)
class QuarticProfile:
    """Profile defined by (p')^2 = q4*p^4 + q2*p^2 + q0 and data at t = 0."""

    q4: float
    q2: float
    q0: float
    p_init: float
    dp_init: float

    def __post_init__(self):
        lhs = self.dp_init**2
        rhs = self.quartic(self.p_init)
        scale = 1.0 + abs(lhs) + abs(rhs)
        if not (math.isfinite(scale) and abs(lhs - rhs) <= 1e-12 * scale):  # nan or inf fails too
            raise ValueError(
                f"inconsistent initial data: dp_init^2 = {lhs} but quartic(p_init) = {rhs}"
            )

    def quartic(self, p):
        return self.q4 * p**4 + self.q2 * p**2 + self.q0

    @property
    def reduction(self):
        """(a3, a1) of the second-order reduction p'' = a3*p^3 + a1*p."""
        return 2 * self.q4, self.q2

    def acceleration(self, p):
        """Right-hand side of the second-order reduction p''."""
        a3, a1 = self.reduction
        return a3 * p**3 + a1 * p


@dataclass(frozen=True)
class SampledProfile:
    """Profile p, its slope dp and its antiderivative P on a uniform axis.

    All three come from one RK4 march of the state (p, p', P) from spec's
    initial data at t = 0, where P = 0; invalid samples hold zeros.
    """

    spec: QuarticProfile
    p: np.ndarray
    dp: np.ndarray
    P: np.ndarray
    valid: np.ndarray

    def first_integral_drift(self) -> float:
        """Max relative violation of (p')^2 = quartic(p) over valid samples."""
        spec = self.spec
        p = self.p[self.valid]
        dp = self.dp[self.valid]
        num = np.abs(dp**2 - spec.quartic(p))
        den = 1.0 + abs(spec.q0) + abs(spec.q2) * p**2 + abs(spec.q4) * p**4
        return float(np.max(num / den)) if len(p) else 0.0


def _march(spec: QuarticProfile, t_from, p, dp, P, t_to, nsub):
    """RK4 on plain floats for the state (p, p', P), P' = p, from t_from to t_to.

    Takes nsub substeps; P's stages are the p-stages.  Each stage writes out
    spec.acceleration from spec.reduction, in its operation order.  Returns
    (p, dp, P, blown_up flag).
    """
    h = float((t_to - t_from) / nsub)
    h2, h6 = h / 2, h / 6
    p, dp, P = float(p), float(dp), float(P)
    a3, a1 = spec.reduction
    for _ in range(nsub):
        try:
            k1 = a3 * p**3 + a1 * p
            p2, d2 = p + h2 * dp, dp + h2 * k1
            k2 = a3 * p2**3 + a1 * p2
            p3, d3 = p + h2 * d2, dp + h2 * k2
            k3 = a3 * p3**3 + a1 * p3
            p4, d4 = p + h * d3, dp + h * k3
            k4 = a3 * p4**3 + a1 * p4
        except OverflowError:  # float p**3 raises where an array power gives inf
            return p, dp, P, True
        P = P + h6 * (p + 2 * p2 + 2 * p3 + p4)
        p = p + h6 * (dp + 2 * d2 + 2 * d3 + d4)
        dp = dp + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not math.isfinite(p) or abs(p) > BLOWUP_LIMIT:
            return p, dp, P, True
    return p, dp, P, False


def integrate_profile(spec: QuarticProfile, axis: np.ndarray) -> SampledProfile:
    """Integrate the profile ODE and its antiderivative onto a uniform sample axis.

    The march starts from (p_init, dp_init, 0) at t = 0 regardless of where
    the axis sits, so profiles can be sampled on windows not containing the
    origin.  Samples beyond a blow-up (|p| > 1e6) are marked invalid.
    """
    t = np.asarray(axis, dtype=float)
    n = len(t)
    if n < 2:
        raise ValueError("axis needs at least two samples")
    h = t[1] - t[0]
    if not np.allclose(np.diff(t), h, rtol=0, atol=1e-9 * abs(h)):
        raise ValueError("axis must be uniform")

    p, dp, P = np.zeros(n), np.zeros(n), np.zeros(n)
    valid = np.zeros(n, dtype=bool)

    # anchor sample: the one nearest t = 0 (clipped into the axis range)
    k0 = int(np.clip(round(-t[0] / h), 0, n - 1))
    lead = abs(t[k0])  # distance from the ODE origin to the anchor sample
    nsub_lead = max(ODE_REFINEMENT, int(np.ceil(lead / h)) * ODE_REFINEMENT)
    anchor = (spec.p_init, spec.dp_init, 0.0)
    if lead > 0:
        *anchor, blown = _march(spec, 0.0, *anchor, t[k0], nsub_lead)
        if blown:
            raise NumericalError("profile blew up before reaching the sample axis")
    p[k0], dp[k0], P[k0] = anchor
    valid[k0] = True

    for step, stop in ((1, n), (-1, -1)):
        state = anchor
        for k in range(k0 + step, stop, step):
            *state, blown = _march(spec, t[k - step], *state, t[k], ODE_REFINEMENT)
            if blown:
                break
            p[k], dp[k], P[k] = state
            valid[k] = True
    return SampledProfile(spec, p, dp, P, valid)


# ---------------------------------------------------------------------------
# coefficient-constraint constructors


def tan_family_profiles(c1, c2, c3, da_init, db_init, a_init=0.0, b_init=0.0):
    """Profile specs (a, b) for the tan family, enforcing 4*c1 = 16 + c3 - c2.

    The slopes are stated, not derived: the quartic fixes only their squares,
    and only some sign choices assemble a solution.
    """
    _constraint("4*c1", 4 * c1, "16 + c3 - c2", 16 + c3 - c2)
    return QuarticProfile(-1.0, c1, c2, a_init, da_init), QuarticProfile(-1.0, 8 - c1, c3, b_init, db_init)


def tanh_family_profiles(c4, c5, c6, dc_init, dd_init, c_init=0.0, d_init=0.0):
    """Profile specs (c, d) for the tanh family, enforcing 16 + 4*c4 = c6 - c5; slopes required, as for tan."""
    _constraint("16 + 4*c4", 16 + 4 * c4, "c6 - c5", c6 - c5)
    return QuarticProfile(1.0, c4, c5, c_init, dc_init), QuarticProfile(1.0, -(8 + c4), c6, d_init, dd_init)


def _constraint(lhs_text, lhs, rhs_text, rhs):
    if abs(lhs - rhs) > _CONSTRAINT_TOL * (1 + abs(lhs) + abs(rhs)):
        raise ValueError(f"coefficient constraint violated: {lhs_text} = {lhs} != {rhs_text} = {rhs}")


# ---------------------------------------------------------------------------
# 2-D assembly


def _separable_sum(xspec: QuarticProfile, yspec: QuarticProfile, grid: Grid2D):
    """A(x) + B(y) from the two profiles integrated on the grid's axes, and where both are valid."""
    ax, by = integrate_profile(xspec, grid.x()), integrate_profile(yspec, grid.y())
    return ax.P[:, None] + by.P[None, :], ax.valid[:, None] & by.valid[None, :]


def assemble_tan_family(aspec: QuarticProfile, bspec: QuarticProfile, grid: Grid2D) -> ScalarField:
    """w = arcsinh(tan(A(x) + B(y))); masked where cos(A+B) nearly vanishes."""
    s, ok = _separable_sum(aspec, bspec, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.arcsinh(np.tan(s))
    return field(grid, w, ok & (np.abs(np.cos(s)) >= SINGULARITY_EPS))


def assemble_tanh_family(cspec: QuarticProfile, dspec: QuarticProfile, grid: Grid2D) -> ScalarField:
    """theta = arcsin(tanh(C(x) + D(y))), principal branch in (-pi/2, pi/2)."""
    s, ok = _separable_sum(cspec, dspec, grid)
    return field(grid, np.arcsin(np.tanh(s)), ok)
