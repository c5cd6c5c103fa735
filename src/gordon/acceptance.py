"""One-shot acceptance suite: every release gate as a named check.

The suite is organized into nine criteria (check names are prefixed c1..c9):

  1. sinh-Gordon residuals of the four closed-form w families, with h-halving
  2. sine-Gordon residuals with probed sign conventions, and the theta
     assembled from integrated profiles against its closed form
  3. profile ODE oracle against closed forms + first-integral drift
  4. transformation pairs: system residuals, quadrature reconstruction,
     round trip
  5. Hopf condition and w-correspondence for the four harmonic maps
  6. quadrature construction of the sqrt(2)-example map, including the
     printed-closed-form factor-2 discrepancy report
  7. Gaussian curvature -1 of target metrics, a Poincare control, and
     pullback metrics
  8. coefficient-constraint rejection and the first-integral coefficient
     resolution
  9. wall-clock budget for the whole suite

Criteria 1-8 are independent, so run_acceptance runs them through
pool.fork_map, on min(usable CPUs, 8) forked worker processes, and
assembles their checks in criterion order.

All grids, summation orders, and probe choices are fixed, so the emitted
report is bit-identical across runs with the same configuration.  Each check
kind on a catalog family has one builder (residual_check, harmonic_checks,
pullback_check, metric_check); `gordon verify` runs the same builders.  Every
check whose measure is the sup of a field over its valid points is made by
sup_check, which the CLI uses too; it and every check built by hand pass
through make_check.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from . import families
from .backlund import BacklundPair, backlund_residuals, theta_to_w, w_to_theta
from .families import (
    eval_family,
    get_family,
    hopf_weight,
    residual_sine_gordon,
    residual_sinh_gordon,
    sign_probe,
)
from .grid import ScalarField, field, rect_grid
from .harmonic import (
    correspondence_check,
    gaussian_curvature,
    hopf_residual,
    is_orthogonal,
    ppfd_construct,
    pullback_metric,
)
from .pool import fork_map, workers
from .profiles import (
    QuarticProfile,
    assemble_tanh_family,
    integrate_profile,
    tan_family_profiles,
    tanh_family_profiles,
)
from .report import CheckResult, VerificationReport

DEFAULT_H = 1.0 / 400
RATIO_BAND = (3.5, 4.5)  # acceptable residual drop under h-halving
MARCH_RECT_SQRT2 = (0.0, 0.6, -0.35, 0.35)  # contains both axis lines
ROUNDTRIP_RECT = (-0.25, 0.25, -0.25, 0.25)
POINCARE_RECT = (0.0, 1.0, 8.0, 12.0)  # far from y = 0 so 1/y^2 is mild
SQRT2 = np.sqrt(2.0)
# long criteria first, so short ones fill in behind: c2, c7, then c4 (0.26 s,
# the longest) gave two workers a shorter wall at h = 1/400 than c4 first
LONGEST_FIRST = (2, 7, 4, 1, 5, 3, 6, 8)


def base_tolerance(tol: float | None = None) -> float:
    """The verification tolerance: `tol` if given, else GORDON_TOL, else 1e-3.

    Raises ValueError unless the value parses as a positive finite number.
    """
    if tol is None:
        env = os.environ.get("GORDON_TOL")
        try:
            tol = float(env) if env else 1e-3
        except ValueError:
            raise ValueError(f"GORDON_TOL is not a number: {env!r}") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    return tol


def make_check(name, anchor, sup, count, tol, ok=True, **extra):
    """A check that passes when `ok and sup < tol`; `extra` sets flags, grid, ratio."""
    return CheckResult(name=name, anchor=anchor, sup=sup, count=count, tol=tol,
                       passed=ok and sup < tol, **extra)


def sup_check(name, anchor, res, tol, ok=True, refined=None, flags=None):
    """Check that the sup of a residual field over its valid points is below tol.

    The check records res.grid and passes when `ok and sup < tol`.  Given
    `refined`, a callable returning the same residual on res.grid.refined(),
    it also needs the drop sup / refined sup within RATIO_BAND.
    """
    sup, n = res.sup_norm()
    ratio = None
    if refined is not None:
        sup2 = refined().sup_norm()[0]
        ratio = sup / sup2 if sup2 > 0 else float("inf")
        ok = ok and RATIO_BAND[0] <= ratio <= RATIO_BAND[1]
    return make_check(name, anchor, sup, n, tol, ok,
                      flags=flags or {}, grid=res.grid.to_json(), ratio=ratio)


def _on_both(a, b, values):
    """`values` where both a and b are valid; no magnitude cap masks a large error away."""
    ok = a.mask & b.mask
    return ScalarField(a.grid, np.where(ok, values, 0.0), ok)


def _max_abs(a, b):
    return _on_both(a, b, np.maximum(np.abs(a.values), np.abs(b.values)))


def _abs_diff(a, b):
    return _on_both(a, b, np.abs(a.values - b.values))


# ---------------------------------------------------------------------------
# check builders: one per check kind, shared by the criteria and `gordon verify`


def residual_check(name, fid, g, tol, convergence):
    """PDE residual of a catalog solution on g, optionally with its h-halving ratio.

    A sine family's residual uses its recorded sign (+1 when it is 0), and the
    check also requires the sign probe on g to find the recorded sign.
    """
    fam = get_family(fid)
    f = eval_family(fid, g)
    flags = {"family": fid}
    ok = True
    if fam.kind == "sinh_solution":
        residual = residual_sinh_gordon
    else:
        flags["sigma"] = fam.sign
        try:
            flags["probed_sigma"] = sign_probe(f)
        except ValueError as e:
            raise ValueError(f"{fid}: {e}") from None
        ok = flags["probed_sigma"] == fam.sign
        residual = lambda th: residual_sine_gordon(th, fam.sign or 1)
    refined = (lambda: residual(eval_family(fid, g.refined()))) if convergence else None
    return sup_check(name, fam.formula, residual(f), tol, ok, refined, flags)


def harmonic_checks(stem, fid, g, tol):
    """Hopf condition and partner correspondence of a catalog map on g.

    The checks are named `<stem>.hopf` and `<stem>.correspondence`.
    """
    fam = get_family(fid)
    u = eval_family(fid, g)
    wgt = hopf_weight(fid, g)
    hopf = sup_check(
        f"{stem}.hopf", fam.formula, hopf_residual(u, wgt), tol,
        flags={"weight": "half-plane 1/S^2" if wgt is None else "target-metric weight"},
    )
    conv, res = correspondence_check(u, eval_family(fam.partner, g, fam.partner_params))
    corr = sup_check(
        f"{stem}.correspondence",
        "dzbar_u / dz_u matches one of exp(-+2w) of the partner solution",
        res, tol, conv == fam.convention, flags={"partner": fam.partner, "convention": conv},
    )
    return [hopf, corr]


def _curvature_check(name, anchor, metric, tol):
    K = gaussian_curvature(metric)
    return sup_check(name, anchor, field(metric.grid, K.values + 1.0, K.mask), tol,
                     is_orthogonal(metric))


def pullback_check(name, fid, g, tol):
    """Gaussian curvature -1 of the pullback metric of a catalog map on g."""
    metric = pullback_metric(eval_family(fid, g), hopf_weight(fid, g))
    return _curvature_check(
        name, "pullback first fundamental form has curvature -1 on immersive points", metric, tol
    )


def metric_check(name, fid, g, tol):
    """Gaussian curvature -1 of a catalog target metric on g."""
    return _curvature_check(name, get_family(fid).formula, eval_family(fid, g), tol)


# ---------------------------------------------------------------------------


def criterion_1(h, tol, convergence=True):
    return [
        residual_check(f"c1.{fid}.sinh_residual", fid, rect_grid(get_family(fid).rectangle, h),
                       tol, convergence)
        for fid in ("W_TAN_SPECIAL", "W_ONE_SOLITON", "W_EX2", "W_SQRT2")
    ]


def criterion_2(h, tol, convergence=True):
    checks = [
        residual_check(f"c2.{fid}.sine_residual", fid, rect_grid(get_family(fid).rectangle, h),
                       tol, convergence)
        for fid in ("THETA_EX2", "THETA_SQRT2")
    ]

    # theta assembled from integrated profiles (the sqrt(2) coefficient set) is
    # THETA_SQRT2 exactly, so it is checked by value; its residual would only
    # repeat THETA_SQRT2's.  Its RK4 error (7.7e-14 at h = 1/100) scales with
    # h^4 down to a rounding floor (9e-16 at 1/400, 2e-15 at 1/800)
    value_tol = 4e-15 * (h / DEFAULT_H) ** 4 + 2e-14
    cspec, dspec = tanh_family_profiles(-4.0, 4.0, 4.0, dc_init=2.0, dd_init=-2.0)
    g = rect_grid(get_family("THETA_SQRT2").rectangle, h)
    th = assemble_tanh_family(integrate_profile(cspec, g.x()), integrate_profile(dspec, g.y()), g)
    checks.append(sup_check(
        "c2.assembled_tanh_family.vs_THETA_SQRT2",
        "theta = arcsin(tanh(C + D)) from integrated quartic profiles equals THETA_SQRT2",
        _abs_diff(th, eval_family("THETA_SQRT2", g)), value_tol,
        flags={"coefficients": "c4=-4, c5=4, c6=4"},
    ))

    # constant theta = pi/2: sin(2 theta) vanishes, so both signs hold exactly
    th = eval_family("THETA_CONST_HALFPI", rect_grid(get_family("THETA_CONST_HALFPI").rectangle, h))
    checks.append(sup_check(
        "c2.THETA_CONST_HALFPI.both_signs",
        "theta = pi/2: residual vanishes for both sign conventions",
        _max_abs(residual_sine_gordon(th, +1), residual_sine_gordon(th, -1)), 1e-12,
        flags={"probed_sigma": sign_probe(th)},
    ))
    return checks


def criterion_3(h, ode_tol):
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / h)) + 1)
    spec = QuarticProfile(-1.0, 4.0, 0.0, 2.0, 0.0)
    sp = integrate_profile(spec, axis)
    sup = float(np.max(np.abs(sp.p - 2.0 / np.cosh(2 * axis))))
    checks = [make_check(
        "c3.sech_profile.closed_form",
        "(p')^2 = -p^4 + 4p^2, p(0) = 2 integrates to 2*sech(2x)",
        sup, int(np.count_nonzero(sp.valid)), ode_tol,
    )]
    drift_tol = max(1e-9, ode_tol / 10)
    drifts = {"sech": sp.first_integral_drift(spec)}
    cspec, dspec = tanh_family_profiles(-4.0, 4.0, 4.0, dc_init=2.0, dd_init=-2.0)
    drifts["sqrt2_c"] = integrate_profile(cspec, axis).first_integral_drift(cspec)
    drifts["sqrt2_d"] = integrate_profile(dspec, axis).first_integral_drift(dspec)
    worst = max(drifts.values())
    checks.append(make_check(
        "c3.first_integral_drift",
        "|(p')^2 - quartic(p)| stays at the integrator floor on every profile",
        worst, len(drifts), drift_tol, flags={k: float(v) for k, v in drifts.items()},
    ))
    return checks


def _pair(fid_w, fid_theta, g):
    return BacklundPair(
        eval_family(fid_w, g), eval_family(fid_theta, g), provenance="closed forms"
    )


def criterion_4(h, tol, march_tol, convergence=True):
    checks = []
    for fid_w, fid_t in (("W_SQRT2", "THETA_SQRT2"), ("W_EX2", "THETA_EX2")):
        g = rect_grid(get_family(fid_w).rectangle, h)
        residual = lambda gg: _max_abs(*backlund_residuals(_pair(fid_w, fid_t, gg)))
        checks.append(sup_check(
            f"c4.pair.{fid_w}.system_residuals",
            "w_x - theta_y + 2 sinh(w) sin(theta); w_y + theta_x + 2 cosh(w) cos(theta)",
            residual(g), tol,
            refined=(lambda: residual(g.refined())) if convergence else None,
            flags={"pair": f"({fid_w}, {fid_t})"},
        ))

    # quadrature reconstruction of w from theta, against the printed w
    for fid_t, fid_w, rect in (
        ("THETA_SQRT2", "W_SQRT2", MARCH_RECT_SQRT2),
        ("THETA_EX2", "W_EX2", get_family("W_EX2").rectangle),
    ):
        g = rect_grid(rect, h)
        wm = theta_to_w(eval_family(fid_t, g), 0.0, analytic=families.scalar_callable(fid_t))
        checks.append(sup_check(
            f"c4.march.{fid_t}_to_{fid_w}", "quadrature w from theta reproduces the printed w",
            _abs_diff(wm, eval_family(fid_w, g)), march_tol,
        ))

    # round trip w -> theta -> w; the return march runs on the sampled theta
    g = rect_grid(ROUNDTRIP_RECT, h)
    w = eval_family("W_TAN_SPECIAL", g)
    th = w_to_theta(w, np.pi, analytic=families.scalar_callable("W_TAN_SPECIAL"))
    checks.append(sup_check(
        "c4.roundtrip.W_TAN_SPECIAL",
        "w -> theta -> w returns to the start within the march tolerance",
        _abs_diff(theta_to_w(th, 0.0), w), march_tol, flags={"theta00": "pi"},
    ))
    return checks


def criterion_5(h, tol):
    checks = []
    for fid in ("U_EX_SECTION3", "U_EX1", "U_EX2", "U_SQRT2"):
        checks += harmonic_checks(f"c5.{fid}", fid, rect_grid(get_family(fid).rectangle, h), tol)
    return checks


def criterion_6(h, tol, quad_tol):
    g = rect_grid(MARCH_RECT_SQRT2, h)
    pair = _pair("W_SQRT2", "THETA_SQRT2", g)
    result = ppfd_construct(pair, R0=0.0, S0=0.5)
    j0 = g.index_of_y(0.0)
    x = g.x()

    printed_I1 = x - np.arctanh(np.tanh(SQRT2 * x) / SQRT2)
    sup = float(np.max(np.abs(result.I1.values[:, j0] - printed_I1)))
    checks = [make_check(
        "c6.ppfd.I1_vs_printed", "I1(x) = x - artanh(tanh(sqrt2 x)/sqrt2)",
        sup, g.nx, quad_tol, grid=g.to_json(),
    )]

    checks.append(sup_check(
        "c6.ppfd.hopf",
        "constructed u = R + iS satisfies the half-plane Hopf condition",
        hopf_residual(result.u), tol,
    ))
    conv, res = correspondence_check(result.u, pair.w)
    checks.append(sup_check(
        "c6.ppfd.correspondence",
        "dzbar_u / dz_u of the constructed map matches exp(-2w)",
        res, tol, conv == "exp(-2w)", flags={"convention": conv},
    ))

    # printed closed forms carry a global factor 2 relative to the quadrature
    # construction with S(0,0) = 1/2: S_printed(0,0) = 1.  After dividing the
    # printed fields by the measured origin ratio they agree to quadrature
    # accuracy; the factor itself is reported, not patched.
    up, u = eval_family("U_SQRT2", g), result.u
    i0 = g.index_of_x(0.0)
    origin_ratio = float(up.im[i0, j0] / u.im[i0, j0])
    scale = max(float(np.max(np.abs(up.im[up.mask & u.mask]))), 1.0)
    mismatch = np.hypot(up.re / origin_ratio - u.re, up.im / origin_ratio - u.im) / scale
    checks.append(sup_check(
        "c6.ppfd.printed_closed_form",
        "printed (R, S) equal the quadrature map times the origin S-ratio",
        _on_both(up, u, mismatch), tol,
        flags={
            "printed_S_origin": float(up.im[i0, j0]),
            "stated_S0": 0.5,
            "origin_ratio": origin_ratio,
            "note": "printed closed form evaluates to twice the quadrature construction",
        },
    ))
    return checks


def criterion_7(h, tol, control_tol):
    checks = [
        metric_check(f"c7.{fid}.curvature", fid, rect_grid(get_family(fid).rectangle, h), tol)
        for fid in ("METRIC_SECTION3", "METRIC_EX2")
    ]

    g = rect_grid(POINCARE_RECT, h)
    _, Y = g.mesh()
    checks.append(_curvature_check(
        "c7.poincare_control.curvature",
        "E = G = 1/y^2 has curvature exactly -1",
        families.make_metric(g, 1 / Y**2, np.zeros_like(Y), 1 / Y**2),
        control_tol,
    ))

    checks += [
        pullback_check(f"c7.pullback.{fid}.curvature", fid,
                       rect_grid(get_family(fid).curvature_rect, h), tol)
        for fid in ("U_EX_SECTION3", "U_EX1", "U_EX2", "U_SQRT2")
    ]
    return checks


def criterion_8(h, ode_tol):
    checks = []
    rejected = 0
    for ctor, args in (
        (tan_family_profiles, (1.0, 0.0, 0.0)),     # 4*c1 = 4 but 16 + c3 - c2 = 16
        (tanh_family_profiles, (0.0, 0.0, 0.0)),    # 16 + 4*c4 = 16 but c6 - c5 = 0
    ):
        try:
            ctor(*args)
        except ValueError:
            rejected += 1
    checks.append(make_check(
        "c8.constraint_rejection",
        "coefficient sets violating 4c1 = 16 + c3 - c2 or 16 + 4c4 = c6 - c5 are rejected",
        float(2 - rejected), 2, 0.5,
    ))

    # resolve the conflicting printed first-integral coefficient sets for the
    # sqrt(2) profile by direct integration: only (q2, q0) = (-4, 4) with
    # slope 2 reproduces sqrt(2)*tanh(sqrt(2) x)
    axis = np.linspace(-1.0, 1.0, int(round(2.0 / h)) + 1)
    target = SQRT2 * np.tanh(SQRT2 * axis)

    def mismatch(q2, q0, dp0):
        sp = integrate_profile(QuarticProfile(1.0, q2, q0, 0.0, dp0), axis)
        return float(np.max(np.abs(sp.p - target)))

    winner = mismatch(-4.0, 4.0, 2.0)
    loser_mid = mismatch(+4.0, 4.0, 2.0)   # middle coefficient with flipped sign
    loser_const = mismatch(-4.0, 16.0, 4.0)  # constant coefficient 16 instead of 4
    checks.append(make_check(
        "c8.coefficient_resolution",
        "(p')^2 = p^4 - 4p^2 + 4 is the first integral of sqrt(2)*tanh(sqrt(2) x)",
        winner, len(axis), ode_tol, loser_mid > 1e-2 and loser_const > 1e-2,
        flags={
            "winner": "q2=-4, q0=4, p'(0)=2",
            "mismatch_flipped_middle": loser_mid,
            "mismatch_constant_16": loser_const,
        },
    ))
    return checks


def _timed(criterion, *args):
    """Run one criterion in a worker: (its checks, its seconds, the worker's pid)."""
    t0 = time.perf_counter()
    checks = criterion(*args)
    return checks, time.perf_counter() - t0, os.getpid()


def run_acceptance(h: float = DEFAULT_H, tol: float | None = None, quick: bool = False,
                   convergence: bool = True) -> VerificationReport:
    """Run criteria 1-8 on forked workers and add the c9 runtime budget.

    A worker's exception is raised here with its own type, and no criterion
    starts after it.  The report's `diagnostics` (never serialized) hold the
    worker count, the wall time and each criterion's seconds and worker pid.
    """
    t_start = time.monotonic()
    if quick:
        # coarse grids sit before the asymptotic regime, so h-halving ratios
        # are not meaningful there
        h = 1.0 / 100
        convergence = False
    tol = base_tolerance(tol)
    # a spacing no grid accepts is a configuration error, raised before any
    # worker starts: c3's and c8's profile axes of 2/h samples have no
    # point-count bound of their own
    rect_grid(ROUNDTRIP_RECT, h)
    factor = (h / DEFAULT_H) ** 2  # second-order scaling of every FD floor
    tol_fd = tol * factor
    # the analytic march's _FD_STEP error (<= 1.2e-10) does not shrink with h,
    # so the 0.1 floor keeps fine grids above it; its Magnus error is 1e-9 at 1/100
    march_tol = 1e-8 * max(factor, 0.1)
    quad_tol = 1e-6 * factor
    control_tol = 1e-6 * factor
    ode_tol = 1e-8 * max(factor**2, 1.0)  # RK4 floor scales with h^4

    calls = {
        1: (criterion_1, h, tol_fd, convergence),
        2: (criterion_2, h, tol_fd, convergence),
        3: (criterion_3, h, ode_tol),
        4: (criterion_4, h, tol_fd, march_tol, convergence),
        5: (criterion_5, h, tol_fd),
        6: (criterion_6, h, tol_fd, quad_tol),
        7: (criterion_7, h, tol_fd, control_tol),
        8: (criterion_8, h, ode_tol),
    }
    done = fork_map([(_timed, *calls[k]) for k in LONGEST_FIRST])
    results = {k: done[LONGEST_FIRST.index(k)] for k in calls}  # criterion order

    checks = [c for part, _, _ in results.values() for c in part]
    elapsed = time.monotonic() - t_start
    # wall-clock time is kept out of the serialized report so that identical
    # configurations produce bit-identical JSON
    checks.append(make_check(
        "c9.runtime_budget", "full suite finishes within five minutes",
        0.0, len(checks), 300.0, elapsed < 300.0,
    ))
    return VerificationReport(
        checks=checks,
        config={"h": h, "tolerance": tol, "quick": quick, "convergence": convergence},
        elapsed=elapsed,
        diagnostics={
            "workers": min(workers(), len(calls)),
            "wall_s": elapsed,
            "criteria": {f"c{k}": {"seconds": s, "pid": pid}
                         for k, (_, s, pid) in results.items()},
        },
    )
