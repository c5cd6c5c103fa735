"""The three benchmark workloads: inputs built from a seed, one operation, its gate.

Each workload is a closed loop with one client: the next operation starts
when the previous one has been checked.  `op()` is the timed part; `check()`
runs after it, untimed, and decides whether the operation counts as done.
gordon functions are reached through their modules (`backlund.theta_to_w`),
so that the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from gordon import acceptance, backlund, cli, families, harmonic
from gordon.grid import Grid2D

# both axis lines x = 0 and y = 0 lie in this rectangle, as the marches and
# the harmonic-map quadratures need
RECT = (0.0, 0.6, -0.35, 0.35)
ACCEPTANCE_CHECKS = 37


@dataclass
class Outcome:
    """What the gate found for one operation."""

    ok: bool
    err_sup: float  # worst sup-norm error against the operation's oracle
    points: int  # valid grid points checked or produced
    problems: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # values reported per workload


def grid_at(h: float) -> Grid2D:
    x0, x1, y0, y1 = RECT
    return Grid2D(x0, x1, y0, y1, int(round((x1 - x0) / h)) + 1, int(round((y1 - y0) / h)) + 1)


def report_digest(rep) -> str:
    """sha256 of the report as `VerificationReport.write` serializes it."""
    text = json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def march_tolerance(h: float) -> float:
    """The acceptance FD tolerance, scaled to spacing h as the suite scales it."""
    return acceptance.base_tolerance() * (h / acceptance.DEFAULT_H) ** 2


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------------


class Workload:
    """Hooks a workload may leave as they are."""

    def build_oracle(self):
        """Compute, untimed, what the gate compares against."""

    def prepare(self):
        """Run untimed before each operation."""

    def accuracy_versus_h(self, outcome: Outcome):
        """A line reporting accuracy at a second spacing, or None."""
        return None

    def close(self):
        """Remove what the workload wrote."""


class AcceptanceFull(Workload):
    """`run_acceptance()` at the default h with convergence: the release gate."""

    name = "acceptance-full"

    def __init__(self, seed: int):
        self.seed = seed
        self.seed_note = "seed unused: the acceptance suite is fixed"
        self.digest = None  # digest of the first report; later ones must match

    def op(self):
        return acceptance.run_acceptance()

    def check(self, rep) -> Outcome:
        problems = []
        checks = rep.checks
        if not rep.passed:
            problems.append("failed checks: " + ", ".join(c.name for c in checks if not c.passed))
        if len(checks) != ACCEPTANCE_CHECKS:
            problems.append(f"{len(checks)} checks, expected {ACCEPTANCE_CHECKS}")
        sups = [float(c.sup) for c in checks]
        if not all(np.isfinite(sups)):
            problems.append("non-finite sup norm")
        digest = report_digest(rep)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"report digest {digest} differs from the run's first {self.digest}")
        points = sum(int(c.count) for c in checks if c.grid is not None)
        return Outcome(not problems, max(sups), points, problems, {"report_sha256": digest})


class FieldIO(Workload):
    """The CLI chain families eval -> harmonic build -> harmonic verify, in-process."""

    name = "field-io"
    H = 1.0 / 400

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.S0 = float(rng.uniform(0.25, 2.0))
        self.R0 = float(rng.uniform(-1.0, 1.0))
        self.seed_note = f"S0={self.S0!r} R0={self.R0!r}"
        self.grid = grid_at(self.H)
        self.dir = workdir
        p = lambda name: os.path.join(workdir, name)
        spec = json.dumps(self.grid.to_json())
        self.paths = {"w": p("w.csv"), "theta": p("theta.csv"), "map": p("map")}
        self.argvs = [
            ["families", "eval", "--family", "W_SQRT2", "--out", p("w.csv"), "--grid", spec],
            ["families", "eval", "--family", "THETA_SQRT2", "--out", p("theta.csv"), "--grid", spec],
            ["harmonic", "build", "--pair", f"{p('w.csv')},{p('theta.csv')}",
             "--R0", repr(self.R0), "--S0", repr(self.S0), "--out", p("map")],
            ["harmonic", "verify", "--u", p("map.u.csv"), "--w", p("w.csv")],
        ]
        self.expected = None

    def build_oracle(self):
        """The fields the chain must write, computed in memory."""
        g = self.grid
        w = families.eval_family("W_SQRT2", g)
        th = families.eval_family("THETA_SQRT2", g)
        res = harmonic.ppfd_construct(backlund.BacklundPair(w, th, "oracle"), self.R0, self.S0)
        m = self.paths["map"]
        self.expected = {
            self.paths["w"]: w,
            self.paths["theta"]: th,
            m + ".u.csv": res.u,
            **{f"{m}.{k}.csv": getattr(res, k) for k in ("I1", "I2", "I3", "I4")},
        }

    def prepare(self):
        """Empty the work directory, so the gate never reads a previous operation's files."""
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def op(self):
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv in self.argvs:
                codes.append(cli.main(argv))
        return codes, sink.getvalue()

    def _compare_csv(self, path, f) -> float:
        """Largest |file - memory| over values; inf if layout, mask or bits differ."""
        g = self.grid
        complex_ = hasattr(f, "re")
        with open(path) as fh:
            header = fh.readline().strip()
        if header != ("x,y,re,im,valid" if complex_ else "x,y,value,valid"):
            return float("inf")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        cols = (f.re, f.im) if complex_ else (f.values,)
        if data.shape != (g.nx * g.ny, 3 + len(cols)):
            return float("inf")
        # y-major rows: x varies fastest
        if not (np.array_equal(_bits(data[:, 0]), _bits(np.tile(g.x(), g.ny)))
                and np.array_equal(_bits(data[:, 1]), _bits(np.repeat(g.y(), g.nx)))):
            return float("inf")
        if not np.array_equal(data[:, -1].astype(bool), f.mask.T.ravel()):
            return float("inf")
        err = 0.0
        for k, a in enumerate(cols):
            want = a.T.ravel()
            got = data[:, 2 + k]
            if not np.array_equal(_bits(got), _bits(want)):
                err = max(err, float(np.max(np.abs(got - want))), np.finfo(float).tiny)
        return err

    def check(self, result) -> Outcome:
        codes, log = result
        problems = []
        if codes != [0] * len(self.argvs):
            problems.append(f"exit codes {codes}: {log.strip()[-300:]}")
        io_err = 0.0
        points = 0
        for path, f in self.expected.items():
            e = self._compare_csv(path, f) if os.path.exists(path) else float("inf")
            if e != 0.0:
                problems.append(f"{os.path.basename(path)} differs from the field in memory ({e:.3g})")
            io_err = max(io_err, e)
            points += int(np.count_nonzero(f.mask))
        for path in (self.paths["w"], self.paths["theta"], self.paths["map"]):
            with open(path + ".grid.json") as fh:
                if Grid2D.from_json(json.load(fh)) != self.grid:
                    problems.append(f"grid sidecar of {os.path.basename(path)} is wrong")
        with open(self.paths["map"] + ".report.json") as fh:
            report = json.load(fh)
        if not report["passed"]:
            problems.append("harmonic build report did not pass")
        err = max([io_err] + [float(c["sup_norm"]) for c in report["checks"]])
        return Outcome(not problems, err, points, problems)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class MarchFine(Workload):
    """Both marches on the sqrt(2) pair at h = 1/800: sampled t2w, analytic w2t."""

    name = "march-fine"
    H = 1.0 / 800
    COARSE_H = 1.0 / 400  # second spacing for the accuracy-versus-h line

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.theta00 = float(rng.uniform(0.0, np.pi))
        self.seed_note = f"theta00={self.theta00!r}"
        self.grid = grid_at(self.H)
        self.theta = families.eval_family("THETA_SQRT2", self.grid)
        self.w = families.eval_family("W_SQRT2", self.grid)  # w2t input and t2w oracle
        self.tol = march_tolerance(self.H)

    def op(self):
        w_m = backlund.theta_to_w(self.theta, 0.0)
        th_m = backlund.w_to_theta(self.w, self.theta00, analytic=families.scalar_callable("W_SQRT2"))
        return w_m, th_m

    @staticmethod
    def t2w_errors(w_m, w):
        """(sup, edge-column sup, interior sup) of |w_march - w_closed_form|."""
        ok = w_m.mask & w.mask
        e = np.where(ok, np.abs(w_m.values - w.values), 0.0)
        return float(e.max()), float(max(e[0].max(), e[-1].max())), float(e[1:-1].max())

    def check(self, result) -> Outcome:
        w_m, th_m = result
        problems = []
        for name, out, src in (("theta_to_w", w_m, self.theta), ("w_to_theta", th_m, self.w)):
            lost = int(np.count_nonzero(src.mask & ~out.mask))
            if lost:
                problems.append(f"{name} lost {lost} valid points")
            if not np.all(np.isfinite(out.values[out.mask])):
                problems.append(f"{name} returned non-finite values at valid points")
        r1, r2 = backlund.backlund_residuals(backlund.BacklundPair(self.w, th_m, "w2t"))
        res = max(r1.sup_norm()[0], r2.sup_norm()[0])
        if not res < self.tol:
            problems.append(f"w2t system residual {res:.3g} above the tolerance {self.tol:.3g}")
        sup, edge, interior = self.t2w_errors(w_m, self.w)
        r1_t2w, _ = backlund.backlund_residuals(backlund.BacklundPair(w_m, self.theta, "t2w"))
        points = int(np.count_nonzero(w_m.mask)) + int(np.count_nonzero(th_m.mask))
        extra = {
            "backlund.sampled_edge_err": edge,
            "backlund.sampled_interior_err": interior,
            "backlund.sampled_r1_sup": r1_t2w.sup_norm()[0],
            "w2t_residual_sup": res,
        }
        return Outcome(not problems, max(sup, res), points, problems, extra)

    def accuracy_versus_h(self, fine: Outcome) -> str:
        """The sampled t2w error at the coarser spacing beside this run's."""
        g = grid_at(self.COARSE_H)
        w_c = backlund.theta_to_w(families.eval_family("THETA_SQRT2", g), 0.0)
        _, edge, interior = self.t2w_errors(w_c, families.eval_family("W_SQRT2", g))
        f_edge = fine.extra["backlund.sampled_edge_err"]
        f_int = fine.extra["backlund.sampled_interior_err"]
        ratio = self.COARSE_H / self.H
        return (
            f"sampled t2w error vs h: h=1/{round(1 / self.COARSE_H)} edge={edge:.3e} "
            f"interior={interior:.3e}; h=1/{round(1 / self.H)} edge={f_edge:.3e} "
            f"interior={f_int:.3e}; observed order edge={np.log(edge / f_edge) / np.log(ratio):.2f} "
            f"interior={np.log(interior / f_int) / np.log(ratio):.2f}"
        )


NAMES = ("acceptance-full", "field-io", "march-fine")


def make(name: str, seed: int, workdir: str):
    if name == "acceptance-full":
        return AcceptanceFull(seed)
    if name == "field-io":
        return FieldIO(seed, os.path.join(workdir, f"field-io-seed{seed}-pid{os.getpid()}"))
    if name == "march-fine":
        return MarchFine(seed)
    raise ValueError(f"unknown workload {name!r}")
