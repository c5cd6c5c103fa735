"""Command-line interface.

Subcommands: families list / families eval, verify, backlund run,
harmonic build / harmonic verify, acceptance.  Reports are JSON, fields are
CSV with a JSON grid sidecar.  Exit codes: 0 all checks passed, 1 a check
failed or a computation broke down (NumericalError), 2 invalid
configuration.  The verification tolerance is 1e-3 unless --tol gives one;
a run's verdict depends on its arguments alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import acceptance, families
from .backlund import BacklundPair, backlund_residuals, theta_to_w, w_to_theta
from .families import CATALOG, eval_family, get_family, sign_probe
from .grid import (
    Grid2D,
    NumericalError,
    ScalarField,
    SECOND_ORDER,
    dump_complex_csv,
    dump_grid_sidecar,
    dump_json,
    dump_scalar_csv,
    load_complex_csv,
    load_grid_json,
    load_scalar_csv,
    rect_grid,
)
from .harmonic import ppfd_construct
from .pool import fork_map
from .report import VerificationReport


def _grid_from_args(args, fam, include_axes=False) -> Grid2D:
    """Grid from --grid (inline JSON or a file path), else the family rectangle.

    include_axes expands the rectangle to contain the x = 0 and y = 0 lines,
    which the quadrature constructions seed from.
    """
    if getattr(args, "grid", None):
        spec = args.grid
        if os.path.exists(spec):
            return load_grid_json(spec)[0]
        try:
            d = json.loads(spec)
        except ValueError as e:  # json's decode error is one
            raise ValueError(f"--grid is neither a file nor valid JSON: {e}") from None
        return Grid2D.from_json(d)
    x0, x1, y0, y1 = fam.rectangle
    if include_axes:
        x0, x1 = min(x0, 0.0), max(x1, 0.0)
        y0, y1 = min(y0, 0.0), max(y1, 0.0)
    return rect_grid((x0, x1, y0, y1), args.h)


def _emit(report: VerificationReport, args) -> int:
    for c in sorted(report.checks, key=lambda c: c.name):
        print(c.line())
    if report.diagnostics is not None:
        print(f"elapsed: {report.diagnostics['wall_s']:.1f}s")
    if getattr(args, "json", None):
        report.write(args.json)
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommand bodies


def cmd_families_list(args) -> int:
    if args.json:
        rows = [
            {
                "id": f.id,
                "kind": f.kind,
                "formula": f.formula,
                "rectangle": list(f.rectangle),
                "sign": f.sign,
                "params": f.params,
                "convention": f.convention,
            }
            for f in CATALOG.values()
        ]
        print(json.dumps(rows, indent=2))
    else:
        for f in CATALOG.values():
            sign = {1: "sigma=+1", -1: "sigma=-1"}.get(f.sign, "")
            extra = " ".join(s for s in (sign, f.convention or "") if s)
            print(f"{f.id:20s} {f.kind:15s} rect={f.rectangle} {extra}")
            print(f"{'':20s} {f.formula}")
    return 0


def cmd_families_eval(args) -> int:
    fam = get_family(args.family)
    g = _grid_from_args(args, fam)
    try:
        params = json.loads(args.params) if args.params else None
    except ValueError as e:  # json's decode error is one
        raise ValueError(f"--params is not valid JSON: {e}") from None
    out = eval_family(fam.id, g, params)
    if fam.kind == "target_metric":
        for comp, arr in (("E", out.E), ("Fc", out.Fc), ("G", out.G)):  # all under the metric's mask
            dump_scalar_csv(ScalarField(g, arr, out.mask), f"{args.out}.{comp}.csv")
        print(f"wrote {args.out}.{{E,Fc,G}}.csv")
    elif fam.kind == "harmonic_map":
        # harmonic verify --u takes its Hopf weight from the record the sidecar names
        dump_complex_csv(out, args.out, None if fam.weight is None else fam.id)
        print(f"wrote {args.out}")
    else:
        dump_scalar_csv(out, args.out)
        print(f"wrote {args.out}")
    return 0


def _verify_family(fam, g, tol, convergence) -> list:
    """A family's designated checks on g, built by the acceptance check builders."""
    if fam.kind in families.SCALAR_KINDS:
        name = f"{fam.id}.{fam.kind.removesuffix('_solution')}_residual"
        return [acceptance.residual_check(name, fam.id, g, tol, convergence)]
    if convergence:  # only a PDE residual has an h-halving ratio
        raise ValueError(f"--convergence applies to sinh- and sine-Gordon solutions; {fam.id} is a {fam.kind}")
    if fam.kind == "harmonic_map":
        return acceptance.harmonic_checks(fam.id, fam.id, g, tol) + [acceptance.pullback_check(
            f"{fam.id}.pullback_curvature", fam.id, rect_grid(fam.curvature_rect, g.hx), tol)]
    return [acceptance.metric_check(f"{fam.id}.curvature", fam.id, g, tol)]


def cmd_verify(args) -> int:
    fam = get_family(args.family)
    g = _grid_from_args(args, fam)
    tol = acceptance.base_tolerance(args.tol)
    checks = _verify_family(fam, g, tol, args.convergence)
    return _emit(VerificationReport(checks, {"family": fam.id, "tolerance": tol}), args)


def cmd_backlund_run(args) -> int:
    fam = get_family(args.family)
    g = _grid_from_args(args, fam, include_axes=True)
    analytic = families.scalar_callable(fam.id)
    tol = acceptance.base_tolerance(args.tol)
    if args.direction == "t2w":
        if fam.kind != "sine_solution":
            raise ValueError("t2w needs a sine-Gordon family")
        th = eval_family(fam.id, g)
        w = theta_to_w(th, args.w00, analytic=analytic)
        out_field, out_name = w, "w"
    else:
        if fam.kind != "sinh_solution":
            raise ValueError("w2t needs a sinh-Gordon family")
        w = eval_family(fam.id, g)
        th = w_to_theta(w, args.theta00, analytic=analytic)
        out_field, out_name = th, "theta"
    r1, r2 = backlund_residuals(BacklundPair(w, th, f"{args.direction} march from {fam.id}"), SECOND_ORDER)
    try:
        sigma = sign_probe(th, SECOND_ORDER.lap(th))
    except ValueError as e:
        raise ValueError(f"{fam.id}: {e}") from None
    checks = [
        acceptance.sup_check("backlund.r1", "w_x - theta_y + 2 sinh(w) sin(theta)", r1, tol),
        acceptance.sup_check("backlund.r2", "w_y + theta_x + 2 cosh(w) cos(theta)", r2, tol,
                             flags={"probed_sigma": sigma}),
    ]
    dump_scalar_csv(out_field, args.out)
    print(f"wrote constructed {out_name} to {args.out}")
    return _emit(VerificationReport(checks, {"direction": args.direction, "family": fam.id}), args)


def _one_grid(*loaded):
    """Raise ValueError, naming each file and its grid, unless the (path, grid) pairs share one grid."""
    if len({g for _, g in loaded}) > 1:
        raise ValueError("fields must share one grid: " + "; ".join(
            f"{p} is on a {g.nx} x {g.ny} grid over [{g.x0}, {g.x1}] x [{g.y0}, {g.y1}]" for p, g in loaded))


def _resolve_pair(spec: str, args):
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2:
        raise ValueError("--pair takes 'W_ID,THETA_ID' or 'w.csv,theta.csv'")
    ids = [p in CATALOG for p in parts]
    for p, is_id in zip(parts, ids):
        if not (is_id or os.path.exists(p)):
            raise ValueError(f"pair member {p!r} is neither a family id nor a file")
    if ids[0] != ids[1]:
        raise ValueError(f"--pair members must be two family ids or two files, got {parts[0]!r} and {parts[1]!r}")
    if all(ids):
        fam_w, fam_t = get_family(parts[0]), get_family(parts[1])
        if fam_w.kind != "sinh_solution" or fam_t.kind != "sine_solution":
            raise ValueError("--pair ids must be a sinh family then a sine family")
        g = _grid_from_args(args, fam_w, include_axes=True)
        return BacklundPair(eval_family(fam_w.id, g), eval_family(fam_t.id, g),
                            provenance=f"closed forms ({fam_w.id}, {fam_t.id})")
    w, th = (load_scalar_csv(p) for p in parts)
    _one_grid((parts[0], w.grid), (parts[1], th.grid))
    return BacklundPair(w, th, provenance="loaded from CSV")


def cmd_harmonic_build(args) -> int:
    pair = _resolve_pair(args.pair, args)
    result = ppfd_construct(pair, args.R0, args.S0)
    tol = acceptance.base_tolerance(args.tol)
    fork_map([(dump_complex_csv, result.u, args.out + ".u.csv")]  # the longest first
             + [(dump_scalar_csv, getattr(result, name), f"{args.out}.{name}.csv")
                for name in ("I1", "I2", "I3", "I4")])
    dump_grid_sidecar(pair.grid, args.out + ".grid.json")
    checks = acceptance.map_checks("harmonic", "half-plane Hopf condition", result.u, tol,
                                   w=pair.w, convention="exp(-2w)")  # the construction's, as in c6
    print(f"wrote {args.out}.u.csv and quadrature fields I1..I4")
    args.json = args.json or (args.out + ".report.json")
    return _emit(VerificationReport(checks, {"R0": args.R0, "S0": args.S0}), args)


def cmd_harmonic_verify(args) -> int:
    u, family = load_complex_csv(args.u)  # families eval names a weighted map in its sidecar
    tol = acceptance.base_tolerance(args.tol)
    if family is not None and family not in CATALOG:
        raise ValueError(f"{args.u}.grid.json: unknown family id: {family}")
    if family is not None and CATALOG[family].weight is None:
        raise ValueError(f"{args.u}.grid.json: family {family} has no target-metric weight")
    w = load_scalar_csv(args.w) if args.w else None
    if w is not None:
        _one_grid((args.u, u.grid), (args.w, w.grid))
    wgt = None if family is None else families.hopf_weight(family, u.grid)
    anchor = "half-plane Hopf condition" if wgt is None else f"Hopf condition of {family}'s target metric"
    checks = acceptance.map_checks("harmonic", anchor, u, tol, wgt, w)
    return _emit(VerificationReport(checks, {"u": args.u}), args)


def cmd_acceptance(args) -> int:
    rep = acceptance.run_acceptance(h=args.h, tol=args.tol, quick=args.quick)
    if args.diagnostics:
        dump_json(rep.diagnostics, args.diagnostics)
        print(f"diagnostics written to {args.diagnostics}")
    return _emit(rep, args)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gordon",
        description="Solution families, transformations, and harmonic-map "
        "verification for the elliptic sinh-Gordon / sine-Gordon equations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_grid_opts(p):
        p.add_argument("--grid", help="grid JSON (inline or a file): {x0,x1,y0,y1,nx,ny}")
        p.add_argument("--h", type=float, default=acceptance.DEFAULT_H,
                       help="grid spacing when --grid is not given (default 1/400)")

    fam = sub.add_parser("families", help="catalog operations")
    fsub = fam.add_subparsers(dest="subcommand", required=True)
    fl = fsub.add_parser("list", help="print the solution catalog")
    fl.add_argument("--json", action="store_true", help="machine-readable output")
    fl.set_defaults(fn=cmd_families_list)
    fe = fsub.add_parser("eval", help="evaluate a family to CSV")
    fe.add_argument("--family", required=True)
    fe.add_argument("--params", help="JSON parameter overrides")
    fe.add_argument("--out", required=True)
    add_grid_opts(fe)
    fe.set_defaults(fn=cmd_families_eval)

    v = sub.add_parser("verify", help="run a family's designated checks")
    v.add_argument("--family", required=True)
    v.add_argument("--tol", type=float)
    v.add_argument("--convergence", action="store_true", help="also measure h-halving ratios")
    v.add_argument("--json", help="write the report JSON here")
    add_grid_opts(v)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("backlund", help="transformation runs")
    bsub = b.add_subparsers(dest="subcommand", required=True)
    br = bsub.add_parser("run", help="construct the partner solution by quadrature")
    br.add_argument("--direction", choices=("w2t", "t2w"), required=True)
    br.add_argument("--family", required=True)
    br.add_argument("--w00", type=float, default=0.0, help="w(0,0) for t2w")
    br.add_argument("--theta00", type=float, default=np.pi / 2, help="theta(0,0) for w2t")
    br.add_argument("--out", required=True)
    br.add_argument("--tol", type=float)
    br.add_argument("--json")
    add_grid_opts(br)
    br.set_defaults(fn=cmd_backlund_run)

    hm = sub.add_parser("harmonic", help="harmonic-map construction and checks")
    hsub = hm.add_subparsers(dest="subcommand", required=True)
    hb = hsub.add_parser("build", help="construct u = R + iS from a pair by quadrature")
    hb.add_argument("--pair", required=True,
                    help="'W_ID,THETA_ID' family ids or 'w.csv,theta.csv' files")
    hb.add_argument("--R0", type=float, default=0.0)
    hb.add_argument("--S0", type=float, default=1.0)
    hb.add_argument("--out", required=True, help="output prefix")
    hb.add_argument("--tol", type=float)
    hb.add_argument("--json")
    add_grid_opts(hb)
    hb.set_defaults(fn=cmd_harmonic_build)
    hv = hsub.add_parser("verify", help="check a map loaded from CSV")
    hv.add_argument("--u", required=True)
    hv.add_argument("--w", help="partner solution CSV for the correspondence check")
    hv.add_argument("--tol", type=float)
    hv.add_argument("--json")
    hv.set_defaults(fn=cmd_harmonic_verify)

    acc = sub.add_parser("acceptance", help="run the full acceptance suite")
    spacing = acc.add_mutually_exclusive_group()
    spacing.add_argument("--quick", action="store_true", help="h = 1/100, tolerances x16, no h-halving ratios")
    spacing.add_argument("--h", type=float, default=acceptance.DEFAULT_H)
    acc.add_argument("--tol", type=float)
    acc.add_argument("--json", help="write the report JSON here")
    acc.add_argument("--diagnostics",
                     help="write each criterion's seconds, CPU seconds, minor page faults "
                     "and worker pid, the worker count and the wall time here (JSON, not "
                     "part of the report)")
    acc.set_defaults(fn=cmd_acceptance)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as e:  # a ValueError: caught before the clause below
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
