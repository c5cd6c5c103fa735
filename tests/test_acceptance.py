"""Acceptance suite: one criterion per test, one printed line per criterion.

The full verification (fine grid, convergence ratios) runs once per session;
each test asserts that every check belonging to its criterion passed and
prints a PASS/FAIL summary line even under pytest's capture.
"""

import json
import multiprocessing
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gordon import acceptance, grid, harmonic, pool
from gordon.acceptance import run_acceptance, sup_check
from gordon.backlund import BacklundPair, backlund_residuals
from gordon.cli import main
from gordon.families import (
    eval_family,
    get_family,
    hopf_weight,
    residual_sine_gordon,
    residual_sinh_gordon,
    sign_probe,
)
from gordon.grid import (
    NumericalError,
    SECOND_ORDER,
    complex_field,
    field,
    laplacian,
    make_grid,
    make_metric,
    partial_x,
    partial_y,
    rect_grid,
    wirtinger,
)
from gordon.harmonic import correspondence_check, gaussian_curvature, hopf_residual, pullback_metric
from gordon.report import CheckResult, VerificationReport

DESCRIPTIONS = {
    1: "closed-form sinh-Gordon solutions satisfy the equation",
    2: "closed-form sine-Gordon solutions satisfy the equation; the assembled one equals its closed form",
    3: "separable profiles integrate to their closed forms with conserved first integral",
    4: "transformation pairs satisfy the first-order system; marches rebuild partners",
    5: "catalog harmonic maps satisfy the Hopf condition and derivative correspondence",
    6: "quadrature-built map matches its axis integrals and printed closed form",
    7: "target and pullback metrics have Gaussian curvature -1",
    8: "profile coefficient constraints reject inconsistent data and resolve the printed set",
    9: "full run finishes within the time budget with a deterministic report",
}


@pytest.fixture(scope="module")
def report():
    return run_acceptance()


@pytest.mark.parametrize("criterion", sorted(DESCRIPTIONS))
def test_criterion(report, criterion, capsys):
    group = [c for c in report.checks if c.name.startswith(f"c{criterion}.")]
    assert group, f"no checks ran for criterion {criterion}"
    ok = all(c.passed for c in group)
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {DESCRIPTIONS[criterion]}")
    failing = "\n".join(c.line() for c in group if not c.passed)
    assert ok, f"criterion {criterion} failed:\n{failing}"


def test_every_check_belongs_to_a_criterion(report):
    prefixes = tuple(f"c{k}." for k in DESCRIPTIONS)
    assert all(c.name.startswith(prefixes) for c in report.checks)
    assert report.passed


def flat(g, v):
    """A residual field of constant value v on g."""
    return field(g, np.full((g.nx, g.ny), v))


class TestSupCheck:
    G = make_grid(0, 1, 0, 1, 5, 7)

    def test_records_sup_count_and_grid(self):
        # the sup and count run over the valid points, frame included
        v = np.zeros((5, 7))
        v[2, 3] = -0.25
        v[0, 0] = 0.375
        mask = np.ones((5, 7), dtype=bool)
        mask[4, 6] = mask[1, 1] = False
        v[1, 1] = 9.0  # masked out: never measured
        c = sup_check("n", "a", field(self.G, v, mask), 0.5, flags={"k": "v"})
        assert (c.name, c.anchor, c.sup, c.count, c.tol) == ("n", "a", 0.375, 33, 0.5)
        assert c.passed and c.grid == self.G.to_json() and c.flags == {"k": "v"}

    def test_strict_tolerance(self):
        assert not sup_check("n", "a", flat(self.G, 0.5), 0.5).passed
        assert sup_check("n", "a", flat(self.G, 0.4999), 0.5).passed

    def test_ok_false_fails(self):
        assert not sup_check("n", "a", flat(self.G, 0.0), 0.5, ok=False).passed

    @pytest.mark.parametrize("ratio", [3.5, 4.5])
    def test_band_edges_pass(self, ratio):
        c = sup_check("n", "a", flat(self.G, ratio / 8), 1.0,
                      refined=lambda: flat(self.G.refined(), 1 / 8))
        assert c.ratio == ratio and c.passed
        assert c.to_json()["convergence_ratio"] == ratio

    @pytest.mark.parametrize("ratio", [3.4375, 4.5625])
    def test_outside_band_fails(self, ratio):
        c = sup_check("n", "a", flat(self.G, ratio / 16), 1.0,
                      refined=lambda: flat(self.G.refined(), 1 / 16))
        assert c.ratio == ratio and not c.passed

    def test_zero_refined_sup_fails(self):
        c = sup_check("n", "a", flat(self.G, 0.1), 1.0,
                      refined=lambda: flat(self.G.refined(), 0.0))
        assert c.ratio == float("inf") and not c.passed

    @pytest.mark.parametrize("floor,passed", [(1 / 32, False), (1 / 8, True)])
    def test_band_required_only_above_the_floor(self, floor, passed):
        # refined sup 1/16: above a floor of 1/32 a ratio of 2 fails; below
        # one of 1/8 rounding sets the sup, and the ratio is only reported
        c = sup_check("n", "a", flat(self.G, 2 / 16), 1.0,
                      refined=lambda: flat(self.G.refined(), 1 / 16), floor=floor)
        assert c.ratio == 2 and c.passed is passed

    def test_no_ratio_without_refined(self):
        c = sup_check("n", "a", flat(self.G, 0.1), 1.0)
        assert c.ratio is None and "convergence_ratio" not in c.to_json()


class TestMapChecks:
    """The correspondence passes on a given convention, else on either definite one."""

    H = 0.02

    def map_and_partner(self, fid):
        fam = get_family(fid)
        g = rect_grid(fam.rectangle, self.H)
        return eval_family(fid, g), eval_family(fam.partner, g, fam.partner_params), hopf_weight(fid, g)

    @pytest.mark.parametrize("given", [None, "exp(-2w)", "exp(+2w)"])
    @pytest.mark.parametrize("fid,measured", [("U_SQRT2", "exp(-2w)"), ("U_EX1", "exp(+2w)")])
    def test_convention_rule(self, fid, measured, given):
        u, w, wgt = self.map_and_partner(fid)
        hopf, corr = acceptance.map_checks("m", "a", u, 0.1, wgt, w, given, partner="P")
        assert (hopf.name, corr.name, corr.anchor) == (
            "m.hopf", "m.correspondence", "dzbar_u / dz_u matches one of exp(-+2w) of the partner solution")
        assert hopf.passed and corr.sup < 0.1
        assert list(corr.flags.items()) == [("partner", "P"), ("convention", measured)]
        assert corr.passed == (given in (None, measured))

    @pytest.mark.parametrize("given", [None, "exp(-2w)"])
    def test_no_definite_convention_fails(self, given):
        u, w, _ = self.map_and_partner("U_SQRT2")
        w0 = field(w.grid, np.zeros((w.grid.nx, w.grid.ny)))  # exp(-2w) = exp(+2w): the probes tie
        _, corr = acceptance.map_checks("m", "a", u, np.inf, w=w0, convention=given)
        assert corr.flags == {"convention": "none"} and not corr.passed

    def test_hopf_alone_without_a_partner(self):
        u, _, _ = self.map_and_partner("U_SQRT2")
        [hopf] = acceptance.map_checks("m", "a", u, 0.1)
        assert hopf.passed and hopf.flags == {"weight": "half-plane 1/S^2"}


class TestSharedDerivatives:
    """Each derived field is computed once per grid (or map, or metric) and passed on."""

    @staticmethod
    def count(monkeypatch, modules, name):
        """Patch `name` in every module that binds it; return the list of first arguments seen."""
        seen, real = [], getattr(modules[0], name)

        def counted(x, *args, **kwargs):
            seen.append(x)
            return real(x, *args, **kwargs)

        for mod in modules:
            monkeypatch.setattr(mod, name, counted)
        return seen

    @pytest.mark.parametrize("fid", ["THETA_EX2", "THETA_SQRT2", "THETA_CONST_HALFPI", "W_SQRT2"])
    def test_one_laplacian_per_grid(self, fid, monkeypatch):
        seen = self.count(monkeypatch, [grid], "laplacian")  # seen through SECOND_ORDER
        g = rect_grid(get_family(fid).rectangle, 0.02)
        acceptance.residual_check("r", fid, g, 1.0, True)
        assert [f.grid for f in seen] == [g, g.refined()]

    def test_one_wirtinger_per_map(self, monkeypatch):
        seen = self.count(monkeypatch, [grid], "wirtinger")
        fam = get_family("U_SQRT2")
        g = rect_grid(fam.rectangle, 0.02)
        u = eval_family("U_SQRT2", g)
        checks = acceptance.map_checks("m", "a", u, 1.0, w=eval_family(fam.partner, g))
        assert len(checks) == 2 and seen == [u]
        seen.clear()
        assert len(acceptance.criterion_6(1 / 100, 1.0)) == 4
        assert len(seen) == 1  # the constructed map's, for Hopf and correspondence

    def test_one_immersive_per_metric(self, monkeypatch):
        seen = self.count(monkeypatch, [harmonic], "immersive")
        acceptance.metric_check("k", "METRIC_SECTION3", rect_grid(get_family("METRIC_SECTION3").rectangle, 0.02), 1.0)
        assert len(seen) == 1


class TestStencilFrames:
    """Every stencil output a check measures has no valid point on the grid frame.

    Fields are all-valid on input, so a valid frame point could only come
    from the stencil itself.  partial_x and partial_y mask the frame along
    their own axis; the composites mask all of it.
    """

    G = make_grid(0.0, 1.0, 1.0, 2.0, 9, 11)

    @staticmethod
    def frame(mask):
        return np.concatenate([mask[0, :], mask[-1, :], mask[:, 0], mask[:, -1]])

    def fields(self):
        X, Y = np.meshgrid(self.G.x(), self.G.y(), indexing="ij")
        u = complex_field(self.G, X + 0.3 * Y**2, Y + 0.1 * X)
        return X, Y, u, field(self.G, 0.2 * X * Y)

    def test_axis_derivatives(self):
        X, _, _, _ = self.fields()
        fx, fy = partial_x(field(self.G, X)), partial_y(field(self.G, X))
        assert fx.mask.any() and not (fx.mask[0, :].any() or fx.mask[-1, :].any())
        assert fy.mask.any() and not (fy.mask[:, 0].any() or fy.mask[:, -1].any())

    def test_composites(self):
        X, Y, u, w = self.fields()
        wirt = wirtinger(u)
        outs = [laplacian(w), *wirt, hopf_residual(u, None, wirt),
                hopf_residual(u, field(self.G, 1 / Y**2), wirt), correspondence_check(u, w, wirt)[1],
                *backlund_residuals(BacklundPair(w, field(self.G, X - Y), "test"))]
        outs.append(gaussian_curvature(make_metric(self.G, 1 / Y**2, np.zeros_like(Y), 2 / Y**2), SECOND_ORDER)[0])
        for f in outs:
            assert f.mask.any() and not self.frame(f.mask).any()


class TestStencilSeam:
    """Every check kind takes each derivative it reads from the stencil object it is given.

    The fake counts its calls and passes them on to SECOND_ORDER; a grid
    stencil called outside a fake call was taken around the seam.
    """

    G = make_grid(0.0, 1.0, 1.0, 2.0, 17, 21)  # 285 interior points: enough for a sign probe
    STENCILS = ("laplacian", "partial_x", "partial_y", "partials", "wirtinger")

    @classmethod
    def counting_fake(cls, monkeypatch):
        calls, around, depth = [], [], [0]

        def through(member):
            def call(*args):
                calls.append(member)
                depth[0] += 1
                try:
                    return getattr(SECOND_ORDER, member)(*args)
                finally:
                    depth[0] -= 1
            return call

        for name in cls.STENCILS:
            def watched(*args, real=getattr(grid, name), name=name):
                if not depth[0]:
                    around.append(name)
                return real(*args)
            monkeypatch.setattr(grid, name, watched)
        return SimpleNamespace(**{m: through(m) for m in ("d", "lap", "partials", "wirtinger")}), calls, around

    KINDS = {
        "backlund_residuals": (lambda st, u, w, th, m: backlund_residuals(BacklundPair(w, th, "test"), st), ["d"] * 4),
        "gaussian_curvature": (lambda st, u, w, th, m: gaussian_curvature(m, st), ["d"] * 4),
        "pullback_metric": (lambda st, u, w, th, m: pullback_metric(u, None, st), ["partials"]),
        "residual_sinh_gordon": (lambda st, u, w, th, m: residual_sinh_gordon(w, st.lap(w)), ["lap"]),
        "residual_sine_gordon": (lambda st, u, w, th, m: residual_sine_gordon(th, -1, st.lap(th)), ["lap"]),
        "sign_probe": (lambda st, u, w, th, m: sign_probe(th, st.lap(th)), ["lap"]),
        "hopf_residual": (lambda st, u, w, th, m: hopf_residual(u, None, st.wirtinger(u)), ["wirtinger"]),
        "correspondence_check": (lambda st, u, w, th, m: correspondence_check(u, w, st.wirtinger(u)), ["wirtinger"]),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_derivative_through_the_stencils_given(self, kind, monkeypatch):
        X, Y = np.meshgrid(self.G.x(), self.G.y(), indexing="ij")
        u = complex_field(self.G, X + 0.3 * Y**2, Y + 0.1 * X)
        fields = u, field(self.G, 0.2 * X * Y), field(self.G, X - Y), make_metric(self.G, 1 / Y**2, 0 * Y, 2 / Y**2)
        fake, calls, around = self.counting_fake(monkeypatch)
        run, expected = self.KINDS[kind]
        run(fake, *fields)
        assert calls == expected and around == []

    def test_a_stencil_called_around_the_fake_is_seen(self, monkeypatch):
        fake, calls, around = self.counting_fake(monkeypatch)
        grid.wirtinger(complex_field(self.G, np.ones((17, 21)), np.ones((17, 21))))
        assert calls == [] and around == ["wirtinger", "partials", "partial_x", "partial_y", "partial_x", "partial_y"]


# ---------------------------------------------------------------------------
# the worker pool: same report, worker errors with their own type, no leftovers


def in_process_report(h, quick):
    """The report one process assembles: criteria 1-8 in order, then c9."""
    convergence = not quick
    tol_fd = 1e-3 * (h / acceptance.DEFAULT_H) ** 2
    checks = (
        acceptance.criterion_1(h, tol_fd, convergence)
        + acceptance.criterion_2(h, tol_fd, convergence)
        + acceptance.criterion_3(h)
        + acceptance.criterion_4(h, tol_fd, convergence)
        + acceptance.criterion_5(h, tol_fd)
        + acceptance.criterion_6(h, tol_fd)
        + acceptance.criterion_7(h, tol_fd)
        + acceptance.criterion_8(h)
    )
    checks.append(CheckResult("c9.runtime_budget", "full suite finishes within five minutes",
                              0.0, len(checks), 300.0, True))
    config = {"h": h, "tolerance": 1e-3, "quick": quick, "convergence": convergence}
    return VerificationReport(checks, config)


def report_bytes(rep):
    return json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"


COARSE = {"quick": ({"quick": True}, 1 / 100), "h0.005": ({"h": 0.005}, 0.005)}


@pytest.fixture(scope="module")
def coarse_reports():
    """run_acceptance's reports at the two COARSE spacings, built once."""
    reports = {k: run_acceptance(**kwargs) for k, (kwargs, _) in COARSE.items()}
    assert multiprocessing.active_children() == []
    return reports


@pytest.mark.parametrize("spacing", COARSE)
def test_pool_report_equals_in_process_report(spacing, coarse_reports):
    kwargs, h = COARSE[spacing]
    rep = coarse_reports[spacing]
    oracle = in_process_report(h, kwargs.get("quick", False))
    assert [c.name for c in rep.checks] == [c.name for c in oracle.checks]
    assert report_bytes(rep) == report_bytes(oracle)


# each check's tolerance at h = 1/100 (quick), 0.005 and 1/400, copied from
# the reports whose digests are a45ef973…, ec2c8efd… and 25879f0a….  The c4
# march tolerance's 0.1 floor only starts below h = sqrt(0.1) / 400 (about
# 1/1265), so none of these spacings reaches it
FIXED_TOLERANCES = {
    "c2.THETA_CONST_HALFPI.both_signs": (1e-12, 1e-12, 1e-12),
    "c2.assembled_tanh_family.vs_THETA_SQRT2": (1.044e-12, 8.400000000000001e-14, 2.4e-14),
    "c3.first_integral_drift": (2.56e-07, 1.6e-08, 1e-09),
    "c3.sech_profile.closed_form": (2.56e-06, 1.6e-07, 1e-08),
    "c8.coefficient_resolution": (2.56e-06, 1.6e-07, 1e-08),
    "c4.march.THETA_SQRT2_to_W_SQRT2": (1.6e-07, 4e-08, 1e-08),
    "c4.march.THETA_EX2_to_W_EX2": (1.6e-07, 4e-08, 1e-08),
    "c4.roundtrip.W_TAN_SPECIAL": (1.6e-07, 4e-08, 1e-08),
    "c6.ppfd.I1_vs_printed": (1.6e-05, 4e-06, 1e-06),
    "c7.poincare_control.curvature": (1.6e-05, 4e-06, 1e-06),
    "c8.constraint_rejection": (0.5, 0.5, 0.5),
    "c9.runtime_budget": (300.0, 300.0, 300.0),
}
FD_TOLERANCES = (0.016, 0.004, 0.001)  # the other 25 checks: 1e-3 * (h * 400)^2


@pytest.mark.parametrize("column,spacing", enumerate(("quick", "h0.005", "full")),
                         ids=("quick", "h0.005", "full"))
def test_every_tolerance_is_pinned(column, spacing, report, coarse_reports):
    rep = report if spacing == "full" else coarse_reports[spacing]
    assert [c.tol for c in rep.checks if c.name not in FIXED_TOLERANCES] == [FD_TOLERANCES[column]] * 25
    assert ({c.name: c.tol for c in rep.checks if c.name in FIXED_TOLERANCES}
            == {name: tols[column] for name, tols in FIXED_TOLERANCES.items()})


@pytest.mark.parametrize("error,code", [(NumericalError, 1), (ValueError, 2)])
def test_worker_error_keeps_its_type(error, code, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error("injected breakdown")

    monkeypatch.setattr(acceptance, "ppfd_construct", broken)  # c6, inherited by the fork
    assert main(["acceptance", "--quick"]) == code
    assert "injected breakdown" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_failure_starts_no_queued_criterion(tmp_path, monkeypatch):
    # two workers take the first two of LONGEST_FIRST; the second fails at
    # once while the first is held, so every other criterion is still queued.
    # The held one returns a grace after the failure: fork_map waits for it
    # (it comes first in the list), and a pool that still handed out queued
    # criteria would have started one on the free worker by then
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    held, fails = acceptance.LONGEST_FIRST[:2]

    def marked(k):
        def criterion(*args):
            (tmp_path / f"c{k}").touch()
            if k == fails:
                raise NumericalError("injected breakdown")
            if k == held:
                deadline = time.monotonic() + 30
                while not (tmp_path / f"c{fails}").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.5)
            return []
        return criterion

    for k in range(1, 9):
        monkeypatch.setattr(acceptance, f"criterion_{k}", marked(k))
    with pytest.raises(NumericalError, match="injected breakdown"):
        run_acceptance(quick=True)
    assert {p.name for p in tmp_path.iterdir()} <= {f"c{fails}", f"c{held}"}
    assert (tmp_path / f"c{fails}").exists()
    assert multiprocessing.active_children() == []


def test_bad_spacing_rejected_before_any_worker(monkeypatch):
    # h = 1e-6 would give c3 and c8 profile axes of 2e6 samples
    monkeypatch.setattr(acceptance, "fork_map", None)  # a pool would be a TypeError
    with pytest.raises(ValueError, match="exceeds"):
        run_acceptance(h=1e-6)
