import dataclasses
import filecmp
import json
import multiprocessing
import os
import pathlib
import re
import shlex

import numpy as np
import pytest

from gordon import acceptance, cli, pool
from gordon import grid as grid_module
from gordon.cli import main
from gordon.families import eval_family, get_family
from gordon.grid import (
    MAGNITUDE_CAP,
    Grid2D,
    complex_field,
    dump_complex_csv,
    dump_scalar_csv,
    field,
    load_complex_csv,
    load_scalar_csv,
    make_grid,
)
from gordon.harmonic import ppfd_construct


def coarse(x0, x1, y0, y1, h=1 / 50):
    nx = int(round((x1 - x0) / h)) + 1
    ny = int(round((y1 - y0) / h)) + 1
    return json.dumps({"x0": x0, "x1": x1, "y0": y0, "y1": y1, "nx": nx, "ny": ny})


class TestFamilies:
    def test_list(self, capsys):
        assert main(["families", "list"]) == 0
        out = capsys.readouterr().out
        for fid in ("W_TAN_SPECIAL", "THETA_SQRT2", "U_EX2", "METRIC_SECTION3"):
            assert fid in out

    def test_list_json(self, capsys):
        assert main(["families", "list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 13
        assert {"id", "kind", "formula", "rectangle", "sign"} <= set(rows[0])

    def test_eval_scalar_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "w.csv")
        rc = main([
            "families", "eval", "--family", "W_TAN_SPECIAL", "--out", out,
            "--grid", coarse(-0.3, 0.3, -0.3, 0.3),
        ])
        assert rc == 0
        f = load_scalar_csv(out)
        assert f.values[f.grid.origin()] == 0.0
        assert (tmp_path / "w.csv.grid.json").exists()

    def test_eval_metric_writes_components(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        rc = main([
            "families", "eval", "--family", "METRIC_SECTION3", "--out", out,
            "--grid", coarse(0.05, 0.3, 0.05, 0.3),
        ])
        assert rc == 0
        for comp in ("E", "Fc", "G"):
            assert (tmp_path / f"m.{comp}.csv").exists()

    def test_eval_metric_components_share_its_mask(self, tmp_path, capsys):
        # around (0.3225, 0.58275) E and G pass MAGNITUDE_CAP at a valid point
        # of the metric, where Fc = 0: each component is written under the
        # metric's mask, not capped on its own
        h = 0.3 / 400
        x, y = 0.3 + 30 * h, 0.3 + 377 * h
        g = make_grid(x - 4 * h, x + 4 * h, y - 4 * h, y + 4 * h, 9, 9)
        metric = eval_family("METRIC_SECTION3", g)
        assert np.abs(metric.E[metric.mask]).max() > MAGNITUDE_CAP
        out = str(tmp_path / "m")
        assert main(["families", "eval", "--family", "METRIC_SECTION3", "--out", out,
                     "--grid", json.dumps(g.to_json())]) == 0
        for comp in ("E", "Fc", "G"):
            assert np.array_equal(load_scalar_csv(f"{out}.{comp}.csv").mask, metric.mask), comp

    def test_unknown_family_is_config_error(self, capsys):
        assert main(["families", "eval", "--family", "NOPE", "--out", "/tmp/x.csv"]) == 2
        assert capsys.readouterr().err == "error: unknown family id: NOPE\n"  # no KeyError quotes

    def test_unknown_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main(["families", "frobnicate"])


class TestVerify:
    def test_sinh_family_passes(self, capsys):
        rc = main([
            "verify", "--family", "W_TAN_SPECIAL",
            "--grid", coarse(-0.3, 0.3, -0.3, 0.3), "--tol", "0.1",
        ])
        assert rc == 0
        assert "W_TAN_SPECIAL.sinh_residual" in capsys.readouterr().out

    def test_tolerance_failure_is_exit_one(self, capsys):
        rc = main([
            "verify", "--family", "W_TAN_SPECIAL",
            "--grid", coarse(-0.3, 0.3, -0.3, 0.3), "--tol", "1e-12",
        ])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_grid_json(self, tmp_path, capsys):
        rc = main(["verify", "--family", "W_TAN_SPECIAL", "--grid", "{not json"])
        assert rc == 2
        p = tmp_path / "grid.json"  # the same text in a file: the error names the file
        p.write_text("{not json")
        capsys.readouterr()
        assert main(["verify", "--family", "W_TAN_SPECIAL", "--grid", str(p)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {p}: ")

    def test_bad_tol(self, capsys):
        rc = main([
            "verify", "--family", "W_TAN_SPECIAL",
            "--grid", coarse(-0.3, 0.3, -0.3, 0.3), "--tol", "-1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("h", ["0.01", "0.0025"])
    def test_constant_theta_convergence_passes(self, h, tmp_path, capsys):
        # theta = pi/2 has a residual at rounding on every grid (ratio 1): the
        # h-halving band is not required below the Laplacian's rounding floor
        out = tmp_path / "v.json"
        assert main(["verify", "--family", "THETA_CONST_HALFPI", "--h", h,
                     "--convergence", "--json", str(out)]) == 0
        (check,) = json.loads(out.read_text())["checks"]
        assert check["passed"] and check["convergence_ratio"] == 1.0

    @pytest.mark.parametrize("fid,kind", [("METRIC_EX2", "target_metric"), ("U_EX1", "harmonic_map")])
    def test_convergence_rejected_for_maps_and_metrics(self, fid, kind, tmp_path, capsys):
        # only a PDE residual has an h-halving ratio; the flag is not dropped silently
        out = tmp_path / "v.json"
        assert main(["verify", "--family", fid, "--h", "0.02", "--convergence", "--json", str(out)]) == 2
        cap = capsys.readouterr()
        assert f"{fid} is a {kind}" in cap.err and "--convergence" in cap.err
        assert cap.out == "" and not out.exists()

    def test_a_report_with_an_empty_check_is_strict_json(self, tmp_path, capsys):
        # W_ONE_SOLITON is valid only where x < 0: no point of this grid is, so
        # the check has no sup and no ratio, and fails
        out = tmp_path / "r.json"
        assert main(["verify", "--family", "W_ONE_SOLITON", "--grid",
                     '{"x0":0.1,"x1":0.5,"y0":-0.5,"y1":0.5,"nx":41,"ny":101}', "--convergence",
                     "--json", str(out)]) == 1
        assert "sup=nan" in capsys.readouterr().out

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        (check,) = json.loads(out.read_text(), parse_constant=reject)["checks"]
        assert check["valid_points"] == 0 and check["passed"] is False
        assert check["sup_norm"] is None and check["convergence_ratio"] is None

    def test_json_report_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = [
            "verify", "--family", "THETA_EX2",
            "--grid", coarse(-0.15, 0.15, -0.15, 0.15), "--tol", "0.1",
        ]
        assert main(args + ["--json", a]) == 0
        assert main(args + ["--json", b]) == 0
        assert filecmp.cmp(a, b, shallow=False)
        rep = json.loads((tmp_path / "a.json").read_text())
        assert rep["passed"] is True
        names = [c["name"] for c in rep["checks"]]
        assert names == sorted(names)


class TestBacklund:
    def test_t2w_run(self, tmp_path, capsys):
        out = str(tmp_path / "w.csv")
        rc = main([
            "backlund", "run", "--direction", "t2w", "--family", "THETA_EX2",
            "--w00", "0", "--out", out,
            "--grid", coarse(-0.15, 0.15, -0.15, 0.15, h=1 / 100), "--tol", "0.1",
        ])
        assert rc == 0
        w = load_scalar_csv(out)
        assert w.mask.any()
        text = capsys.readouterr().out
        assert "backlund.r1" in text and "backlund.r2" in text and "FAIL" not in text

    def test_singular_seed_point_is_config_error(self, tmp_path, capsys):
        # the grid is stretched to the axes, and W_ONE_SOLITON's w is infinite on x = 0
        out = tmp_path / "theta.csv"
        rc = main(["backlund", "run", "--direction", "w2t", "--family", "W_ONE_SOLITON",
                   "--out", str(out), "--h", "0.01"])
        assert rc == 2
        assert not out.exists()
        assert "seed point (0, 0)" in capsys.readouterr().err

    def test_w2t_needs_sinh_family(self, capsys):
        rc = main([
            "backlund", "run", "--direction", "w2t", "--family", "THETA_EX2",
            "--out", "/tmp/x.csv",
        ])
        assert rc == 2


class TestHarmonic:
    def test_build_then_verify(self, tmp_path, capsys):
        prefix = str(tmp_path / "map")
        rc = main([
            "harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2",
            "--R0", "0", "--S0", "0.5", "--out", prefix,
            "--grid", coarse(0.0, 0.6, -0.35, 0.35, h=0.025), "--tol", "0.1",
        ])
        assert rc == 0
        u, family = load_complex_csv(prefix + ".u.csv")
        assert family is None
        assert np.all(u.im[u.mask] > 0)
        for name in ("I1", "I2", "I3", "I4"):
            assert (tmp_path / f"map.{name}.csv").exists()
        rep = json.loads((tmp_path / "map.report.json").read_text())
        assert rep["passed"] is True

        capsys.readouterr()
        rc = main(["harmonic", "verify", "--u", prefix + ".u.csv", "--tol", "0.1"])
        assert rc == 0
        assert "harmonic.hopf" in capsys.readouterr().out

    def test_build_rejects_bad_pair(self, capsys):
        rc = main([
            "harmonic", "build", "--pair", "THETA_SQRT2,W_SQRT2",
            "--out", "/tmp/x",
        ])
        assert rc == 2

    @pytest.mark.parametrize("second,message", [
        ("NOPE", "pair member 'NOPE' is neither a family id nor a file"),
        ("t.csv", "--pair members must be two family ids or two files, got 'W_SQRT2' and 't.csv'"),
    ], ids=["unknown-id", "id-and-file"])
    def test_pair_error_names_the_member_at_fault(self, second, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "t.csv").write_text("x,y,value,valid\n")
        assert main(["harmonic", "build", "--pair", f"W_SQRT2,{second}", "--out", "map"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_verify_with_metric(self, tmp_path, capsys):
        # a target metric's curvature check on the grid of a map's dump
        out = str(tmp_path / "u.csv")
        rc = main([
            "families", "eval", "--family", "U_SQRT2", "--out", out,
            "--grid", coarse(0.05, 0.3, 0.05, 0.3, h=1 / 100),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "verify", "--family", "METRIC_SECTION3", "--grid", out + ".grid.json",
            "--tol", "0.1",
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "PASS  METRIC_SECTION3.curvature: sup=0.00658313 tol=0.1 n=484" in text

    @pytest.mark.parametrize("fid,h,line", [
        # the target-metric weight of the record, as `verify --family` at the same h
        ("U_EX2", 0.0025,
         "PASS  harmonic.hopf: sup=0.000117149 tol=0.001 n=3081 weight=target-metric weight"),
        ("U_EX_SECTION3", 0.0025,
         "PASS  harmonic.hopf: sup=0.000219644 tol=0.001 n=25281 weight=target-metric weight"),
        # no weight in the record: the half-plane check, as before
        ("U_SQRT2", 0.01, "PASS  harmonic.hopf: sup=0.000580935 tol=0.001 n=5451 weight=half-plane 1/S^2"),
    ], ids=["U_EX2", "U_EX_SECTION3", "U_SQRT2"])
    def test_verify_takes_the_weight_of_the_dumped_family(self, fid, h, line, tmp_path, capsys):
        out = str(tmp_path / "u.csv")
        assert main(["families", "eval", "--family", fid, "--out", out, "--h", str(h)]) == 0
        sidecar = json.loads(pathlib.Path(out + ".grid.json").read_text())
        assert sidecar.get("family") == (None if fid == "U_SQRT2" else fid)
        capsys.readouterr()
        assert main(["harmonic", "verify", "--u", out]) == 0
        assert capsys.readouterr().out.splitlines() == [line]

    @pytest.mark.parametrize("family", ["U_SQRT2", "NOPE"])
    def test_verify_rejects_a_sidecar_family_without_a_weight(self, family, tmp_path, capsys):
        out = str(tmp_path / "u.csv")
        assert main(["families", "eval", "--family", "U_SQRT2", "--out", out, "--h", "0.05"]) == 0
        sidecar = pathlib.Path(out + ".grid.json")
        sidecar.write_text(json.dumps(json.loads(sidecar.read_text()) | {"family": family}))
        assert main(["harmonic", "verify", "--u", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sidecar}: ") and family in err

    def test_missing_file_is_config_error(self, capsys):
        assert main(["harmonic", "verify", "--u", "/nonexistent/u.csv"]) == 2
        err = capsys.readouterr().err  # named as itself, not as a missing sidecar
        assert "/nonexistent/u.csv" in err and "grid.json" not in err

    @pytest.mark.parametrize("read", ["companion", "parsing"])
    def test_verify_reads_the_map_sidecar_once(self, read, tmp_path, capsys, monkeypatch):
        # the family comes back with the map: harmonic verify opens no sidecar itself
        monkeypatch.chdir(tmp_path)
        assert main(["families", "eval", "--family", "U_EX2", "--out", "u.csv", "--h", "0.05"]) == 0
        if read == "parsing":
            os.unlink("u.csv.npy")
        reads = []
        real_open = open

        def spy(file, *args, **kwargs):
            if str(file).endswith(".grid.json"):
                reads.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        assert main(["harmonic", "verify", "--u", "u.csv"]) in (0, 1)
        assert "target-metric weight" in capsys.readouterr().out
        assert reads == ["u.csv.grid.json"]

    def test_degenerate_map_is_a_failure(self, tmp_path, capsys):
        # a constant map has dz_u = 0 everywhere: a numerical breakdown, exit 1
        g = make_grid(0.0, 0.5, 0.5, 1.0, 11, 11)
        u_path, w_path = str(tmp_path / "u.csv"), str(tmp_path / "w.csv")
        dump_complex_csv(complex_field(g, np.zeros((11, 11)), np.ones((11, 11))), u_path)
        dump_scalar_csv(field(g, np.zeros((11, 11))), w_path)
        assert main(["harmonic", "verify", "--u", u_path, "--w", w_path]) == 1
        assert "dz_u degenerate" in capsys.readouterr().err

    def test_build_requires_the_construction_convention(self, tmp_path, capsys, monkeypatch):
        # the reflected map -R + iS is harmonic too and passes the Hopf check,
        # but its correspondence reads exp(+2w), not the construction's exp(-2w)
        def reflected(pair, R0, S0):
            res = ppfd_construct(pair, R0, S0)
            return dataclasses.replace(res, u=complex_field(pair.grid, -res.u.re, res.u.im, res.u.mask))

        monkeypatch.setattr(cli, "ppfd_construct", reflected)
        prefix = str(tmp_path / "map")
        assert main([
            "harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2", "--S0", "0.5", "--out", prefix,
            "--grid", coarse(0.0, 0.6, -0.35, 0.35, h=0.025), "--tol", "0.1",
        ]) == 1
        checks = {c["name"]: c for c in json.loads((tmp_path / "map.report.json").read_text())["checks"]}
        assert checks["harmonic.hopf"]["passed"]
        corr = checks["harmonic.correspondence"]
        assert corr["flags"]["convention"] == "exp(+2w)" and corr["sup_norm"] < 0.1
        assert not corr["passed"]

    @pytest.mark.parametrize("fid", ["U_EX_SECTION3", "U_EX1", "U_EX2", "U_SQRT2"])
    def test_verify_of_a_dump_equals_verify_family(self, fid, tmp_path, capsys, monkeypatch):
        """`harmonic verify` of a map's dump and its partner measures what `verify --family` does."""
        fam = get_family(fid)
        monkeypatch.chdir(tmp_path)
        assert main(["families", "eval", "--family", fid, "--out", "u.csv", "--h", "0.01"]) == 0
        assert main(["families", "eval", "--family", fam.partner, "--out", "w.csv",
                     "--params", json.dumps(fam.partner_params), "--grid", "u.csv.grid.json"]) == 0
        assert main(["harmonic", "verify", "--u", "u.csv", "--w", "w.csv", "--json", "dump.json"]) in (0, 1)
        assert main(["verify", "--family", fid, "--grid", "u.csv.grid.json", "--json", "family.json"]) in (0, 1)
        dump, family = ({c["name"]: c for c in json.loads(pathlib.Path(f).read_text())["checks"]}
                        for f in ("dump.json", "family.json"))
        for check, flag in (("hopf", "weight"), ("correspondence", "convention")):
            got, want = dump[f"harmonic.{check}"], family[f"{fid}.{check}"]
            keys = lambda c: (c["sup_norm"], c["valid_points"], c["flags"][flag])
            assert keys(got) == keys(want), check


class TestAcceptanceCommand:
    def test_quick_smoke(self, tmp_path, capsys):
        rep_path = str(tmp_path / "acc.json")
        rc = main(["acceptance", "--quick", "--json", rep_path])
        assert rc == 0
        text = capsys.readouterr().out
        assert "elapsed:" in text
        rep = json.loads((tmp_path / "acc.json").read_text())
        assert rep["passed"] is True
        assert len(rep["checks"]) >= 30
        assert "elapsed" not in rep

    def test_diagnostics_leave_the_report_bytes(self, tmp_path, capsys):
        plain, with_diag = tmp_path / "a.json", tmp_path / "b.json"
        diag_path = tmp_path / "diag.json"
        assert main(["acceptance", "--quick", "--json", str(plain)]) == 0
        assert main(["acceptance", "--quick", "--json", str(with_diag),
                     "--diagnostics", str(diag_path)]) == 0
        assert filecmp.cmp(plain, with_diag, shallow=False)
        diag = json.loads(diag_path.read_text())
        assert diag["workers"] == min(pool.workers(), 8)
        assert sorted(diag["criteria"]) == [f"c{k}" for k in range(1, 9)]
        runs = diag["criteria"].values()
        pids = {r["pid"] for r in runs}
        assert all(sorted(r) == ["cpu_s", "minor_faults", "pid", "seconds"] for r in runs)
        assert all(r["seconds"] > 0 and r["cpu_s"] >= 0 and r["minor_faults"] >= 0 for r in runs)
        assert len(pids) <= diag["workers"]
        assert (os.getpid() in pids) == (diag["workers"] == 1)  # one worker runs inline
        assert diag["wall_s"] >= max(r["seconds"] for r in runs)

    def test_quick_excludes_h(self, capsys):
        # --quick fixes its own spacing, so a --h beside it would be ignored
        with pytest.raises(SystemExit) as e:
            main(["acceptance", "--quick", "--h", "0.005"])
        assert e.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_bad_tol_flag_is_config_error(self, tol, capsys):
        assert main(["acceptance", "--quick", "--tol", tol]) == 2
        assert main([
            "verify", "--family", "W_TAN_SPECIAL",
            "--grid", coarse(-0.3, 0.3, -0.3, 0.3), "--tol", tol,
        ]) == 2


class TestRejectedInput:
    @pytest.mark.parametrize("h", ["0", "-0.01", "nan", "inf"])
    def test_bad_spacing_families_eval(self, h, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main(["families", "eval", "--family", "W_TAN_SPECIAL", "--out", str(out), f"--h={h}"])
        assert rc == 2
        assert not out.exists()
        assert "spacing" in capsys.readouterr().err

    @pytest.mark.parametrize("h", ["0", "-0.01", "nan", "inf"])
    def test_bad_spacing_acceptance(self, h, capsys):
        assert main(["acceptance", f"--h={h}"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("family,params", [
        ("W_SQRT2", "[1]"),
        ("W_SQRT2", '{"bogus": 1}'),
        ("U_EX1", '{"eps": "a"}'),
        ("U_EX1", "{not json"),
    ])
    def test_bad_params(self, family, params, tmp_path, capsys):
        out = tmp_path / "f.csv"
        rc = main([
            "families", "eval", "--family", family, "--out", str(out), "--params", params,
            "--h", "0.05",
        ])
        assert rc == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,start,message", [
        (["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2"], ["--S0", "nan"], "finite"),
        (["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2"], ["--S0=inf"], "finite"),
        (["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2"], ["--R0=-inf"], "finite"),
        (["backlund", "run", "--direction", "t2w", "--family", "THETA_SQRT2"], ["--w00", "nan"], "finite"),
        (["backlund", "run", "--direction", "w2t", "--family", "W_SQRT2"], ["--theta00", "inf"], "finite"),
        # the grid is stretched to the axes, and W_ONE_SOLITON's w is infinite on x = 0
        (["harmonic", "build", "--pair", "W_ONE_SOLITON,THETA_SQRT2"], [], "seed point (0, 0)"),
    ], ids=["S0-nan", "S0-inf", "R0-minus-inf", "w00-nan", "theta00-inf", "pair-invalid-at-origin"])
    def test_non_finite_start_value(self, command, start, message, tmp_path, capsys):
        rc = main(command + start + ["--out", str(tmp_path / "out"), "--h", "0.05"])
        assert rc == 2
        assert list(tmp_path.iterdir()) == []
        assert message in capsys.readouterr().err

    def test_csv_pair_invalid_at_origin(self, tmp_path, capsys):
        spec = coarse(-0.5, 0.0, -0.5, 0.5, h=1 / 20)
        for fid in ("W_ONE_SOLITON", "THETA_SQRT2"):
            assert main(["families", "eval", "--family", fid, "--out", str(tmp_path / f"{fid}.csv"),
                         "--grid", spec]) == 0
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["harmonic", "build", "--pair", f"{tmp_path}/W_ONE_SOLITON.csv,{tmp_path}/THETA_SQRT2.csv",
                   "--out", str(out / "m")])
        assert rc == 2
        assert list(out.iterdir()) == []
        assert "seed point (0, 0)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["acceptance"],
        ["verify", "--family", "THETA_EX2"],
        ["backlund", "run", "--direction", "t2w", "--family", "THETA_EX2", "--tol", "1", "--out", "w.csv"],
    ])
    def test_sign_probe_rejection_names_family_and_grid(self, command, tmp_path, monkeypatch, capsys):
        # THETA_EX2's rectangle holds 7 x 7 points at this spacing, too few to probe its sign;
        # backlund run probes before its dump, so it writes nothing
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--h", "0.05"]) == 2
        err = capsys.readouterr().err
        assert "sign probe" in err and "THETA_EX2" in err and "7 x 7 grid" in err
        assert list(tmp_path.iterdir()) == []

    def test_swapped_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert main([
            "families", "eval", "--family", "U_SQRT2", "--out", str(out),
            "--grid", coarse(0.05, 0.3, 0.05, 0.3, h=1 / 100),
        ]) == 0
        lines = out.read_text().splitlines(True)
        lines[5], lines[6] = lines[6], lines[5]
        out.write_text("".join(lines))
        capsys.readouterr()
        assert main(["harmonic", "verify", "--u", str(out)]) == 2
        assert "y-major" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_args", [
        ["--h", "1e-320"],
        ["--h", "1e-7"],
        ["--grid", '{"x0": 0, "x1": 1, "y0": 0, "y1": 1, "nx": 1000000000, "ny": 5}'],
        # spacings that overflow to inf and underflow to 0
        ["--grid", '{"x0": -1e308, "x1": 1e308, "y0": 0, "y1": 1, "nx": 5, "ny": 5}'],
        ["--grid", '{"x0": 0, "x1": 5e-324, "y0": 0, "y1": 1, "nx": 5, "ny": 5}'],
    ])
    def test_grid_too_large(self, grid_args, tmp_path, capsys):
        # rejected from the point count or the spacing, before any array is allocated
        out = tmp_path / "w.csv"
        rc = main(["families", "eval", "--family", "W_SQRT2", "--out", str(out), *grid_args])
        assert rc == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["inline", "file"])
    def test_grid_family_not_a_string(self, form, tmp_path, capsys):
        # one validator for both forms of --grid: the family check is Grid2D.from_json's
        spec = '{"x0": 0, "x1": 1, "y0": 0, "y1": 1, "nx": 5, "ny": 5, "family": 3}'
        if form == "file":
            (tmp_path / "grid.json").write_text(spec)
            spec = str(tmp_path / "grid.json")
        out = tmp_path / "w.csv"
        assert main(["families", "eval", "--family", "W_SQRT2", "--out", str(out), "--grid", spec]) == 2
        assert not out.exists() and not (tmp_path / "w.csv.grid.json").exists()
        assert "family must be a string, got 3" in capsys.readouterr().err

    def test_csv_cut_at_a_grid_row(self, tmp_path, capsys):
        # both members lose their last grid row, so their rows still agree
        # with each other; only the sidecars show the cut
        grid = coarse(0.0, 0.6, -0.35, 0.35, h=0.025)
        nx = json.loads(grid)["nx"]
        paths = [tmp_path / "w.csv", tmp_path / "theta.csv"]
        for fid, p in zip(("W_SQRT2", "THETA_SQRT2"), paths):
            assert main(["families", "eval", "--family", fid, "--out", str(p), "--grid", grid]) == 0
            p.write_text("".join(p.read_text().splitlines(True)[:-nx]))
        capsys.readouterr()
        rc = main(["harmonic", "build", "--pair", ",".join(map(str, paths)),
                   "--out", str(tmp_path / "map")])
        assert rc == 2
        assert "sidecar" in capsys.readouterr().err

    def test_map_cut_at_a_grid_row(self, tmp_path, capsys):
        # the rows left are a smaller grid's; the sidecar the build wrote shows the cut
        prefix = str(tmp_path / "map")
        assert main(["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2", "--S0", "0.5", "--out", prefix,
                     "--grid", coarse(0.0, 0.6, -0.35, 0.35, h=0.025), "--tol", "0.1"]) == 0
        u = pathlib.Path(prefix + ".u.csv")
        nx = load_complex_csv(str(u))[0].grid.nx
        u.write_text("".join(u.read_text().splitlines(True)[:-nx]))
        capsys.readouterr()
        assert main(["harmonic", "verify", "--u", str(u)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {u}: ") and "sidecar" in err

    @pytest.mark.parametrize("edit,message", [
        ("one row", "expected 42 rows"),
        ("blank valid", "could not convert string ''"),
        ("header only", "columns"),
        ("empty", "columns"),
        ("x and y swapped in the header", "expected the columns 'x,y,"),
        ("nan at a valid point", "non-finite values at valid points"),
        ("sidecar not an object", "f.csv.grid.json: a grid is a JSON object"),
        ("sidecar missing a key", "f.csv.grid.json: a grid is a JSON object with the keys"),
        ("sidecar nx not integral", "f.csv.grid.json: a grid needs finite bounds and integral counts"),
        ("sidecar family not a string", "f.csv.grid.json: family must be a string"),
        ("no sidecar", "its grid sidecar"),
    ])
    @pytest.mark.parametrize("command", ["verify --u", "build --pair"])
    def test_csv_rejection_names_the_file(self, command, edit, message, tmp_path, capsys, recwarn):
        g = make_grid(0.1, 0.4, 0.2, 0.5, 7, 6)
        X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
        p = tmp_path / "f.csv"
        if command == "verify --u":
            dump_complex_csv(complex_field(g, X, Y), str(p))
            argv = ["harmonic", "verify", "--u", str(p)]
        else:
            dump_scalar_csv(field(g, X + Y), str(p))
            argv = ["harmonic", "build", "--pair", f"{p},{p}", "--out", str(tmp_path / "map")]
        lines = p.read_text().splitlines(True)
        row = lines[3].split(",")
        sidecars = {"sidecar not an object": [1, 2], "sidecar missing a key": {"x0": 0.1},
                    "sidecar nx not integral": g.to_json() | {"nx": 7.5},
                    "sidecar family not a string": g.to_json() | {"family": ["U_EX2"]}}
        if edit == "no sidecar":  # the rows are intact
            pathlib.Path(f"{p}.grid.json").unlink()
        elif edit in sidecars:
            pathlib.Path(f"{p}.grid.json").write_text(json.dumps(sidecars[edit]))
        else:
            p.write_text("".join({
                "one row": lines[:2], "header only": lines[:1], "empty": [],
                "x and y swapped in the header": ["y,x," + lines[0][4:]] + lines[1:],
                "blank valid": lines[:3] + [",".join(row[:-1]) + ",\n"] + lines[4:],
                "nan at a valid point": lines[:3] + [",".join(row[:2] + ["nan"] + row[3:])] + lines[4:],
            }[edit]))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and message in err
        assert not recwarn.list  # numpy's warning on a file with no data rows is silenced

    @pytest.mark.parametrize("bad", ["theta", "both"])
    def test_csv_rejection_in_a_forked_load_names_the_file(self, bad, tmp_path, capsys, monkeypatch):
        # the two members load one after the other in this process, even on two
        # CPUs; when both are bad, w, the first, is named
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        w, theta = tmp_path / "w.csv", tmp_path / "theta.csv"
        for p, n in ((w, 201), (theta, 7)):
            g = make_grid(0.1, 0.4, 0.2, 0.5, n, n)
            X, Y = np.meshgrid(g.x(), g.y(), indexing="ij")
            dump_scalar_csv(field(g, X + Y), str(p))
            if p == theta or bad == "both":  # nan at the last row's valid point
                *lines, row = p.read_text().splitlines(True)
                row = row.split(",")
                p.write_text("".join(lines + [",".join(row[:2] + ["nan"] + row[3:])]))
        assert main(["harmonic", "build", "--pair", f"{w},{theta}", "--out", str(tmp_path / "map")]) == 2
        err = capsys.readouterr().err
        named = w if bad == "both" else theta
        assert err.startswith(f"error: {named}: ") and "non-finite values at valid points" in err
        assert multiprocessing.active_children() == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["theta.csv", "theta.csv.grid.json", "theta.csv.npy",
                                                              "w.csv", "w.csv.grid.json", "w.csv.npy"]

    def test_params_that_are_not_json_name_the_option(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        rc = main(["families", "eval", "--family", "U_EX1", "--out", str(out), "--params", "{eps: 1}",
                   "--h", "0.05"])
        assert rc == 2
        assert not out.exists()
        assert "--params is not valid JSON: Expecting property name" in capsys.readouterr().err

    @pytest.mark.parametrize("command,files", [
        (["harmonic", "verify", "--u", "u.csv", "--w", "w.csv"], (("U_SQRT2", "u.csv"), ("W_SQRT2", "w.csv"))),
        (["harmonic", "build", "--pair", "w.csv,theta.csv", "--out", "map"],
         (("W_SQRT2", "w.csv"), ("THETA_SQRT2", "theta.csv"))),
    ], ids=["verify", "build"])
    def test_csvs_on_two_grids_are_named(self, command, files, tmp_path, capsys, monkeypatch):
        # the same rectangle at two spacings: 13 x 15 and 25 x 29 points
        monkeypatch.chdir(tmp_path)
        for (fid, name), h in zip(files, (0.05, 0.025)):
            assert main(["families", "eval", "--family", fid, "--out", name,
                         "--grid", coarse(0.0, 0.6, -0.35, 0.35, h=h)]) == 0
        written = sorted(os.listdir())
        capsys.readouterr()
        assert main(command) == 2
        err = capsys.readouterr().err
        first, second = files[0][1], files[1][1]
        assert f"{first} is on a 13 x 15 grid" in err and f"{second} is on a 25 x 29 grid" in err, err
        assert sorted(os.listdir()) == written

    @pytest.mark.parametrize("command,path", [
        (["families", "eval", "--family", "W_SQRT2", "--out", "missing/w.csv"], "missing/w.csv"),
        (["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2", "--out", "missing/map", "--tol", "0.1"],
         "missing/map.u.csv"),
        (["verify", "--family", "W_SQRT2", "--json", "missing/r.json"], "missing/r.json"),
    ], ids=["families-eval", "harmonic-build", "verify-json"])
    def test_write_error_names_the_requested_path(self, command, path, tmp_path, capsys, monkeypatch):
        # the file is written to a .tmp first; the error names the file asked for
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--grid", coarse(0.0, 0.6, -0.35, 0.35, h=0.025)]) == 2
        err = capsys.readouterr().err
        assert f"'{path}'" in err and ".tmp" not in err, err
        assert os.listdir() == []

    def test_declared_params_listed(self, capsys):
        assert main(["families", "list", "--json"]) == 0
        rows = {r["id"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["U_EX1"]["params"] == {"eps": 1.0}


class TestVerifyParity:
    """`gordon verify` and the acceptance criteria build their checks alike."""

    H = 0.01
    TOL = 1e-3

    @pytest.mark.parametrize("fid,criteria", [
        ("W_SQRT2", (1,)),
        ("THETA_EX2", (2,)),
        ("U_EX2", (5, 7)),
        ("METRIC_EX2", (7,)),
    ])
    def test_verify_matches_criterion(self, fid, criteria, tmp_path, capsys):
        out = tmp_path / "v.json"
        ratio = ["--convergence"] if criteria in ((1,), (2,)) else []  # maps and metrics have no ratio
        rc = main(["verify", "--family", fid, "--h", str(self.H), *ratio, "--json", str(out)])
        assert rc in (0, 1)
        verified = json.loads(out.read_text())["checks"]
        run = {
            1: lambda: acceptance.criterion_1(self.H, self.TOL, True),
            2: lambda: acceptance.criterion_2(self.H, self.TOL, True),
            5: lambda: acceptance.criterion_5(self.H, self.TOL),
            7: lambda: acceptance.criterion_7(self.H, self.TOL),
        }
        accepted = {}
        for k in criteria:
            for c in run[k]():
                name = c.name.split(".", 1)[1]
                if name.startswith("pullback."):  # pullback.<id>.curvature
                    name = name.split(".")[1] + ".pullback_curvature"
                accepted[name] = c.to_json()
        keys = ("sup_norm", "valid_points", "tolerance", "passed", "convergence_ratio")
        assert verified
        for c in verified:
            assert c["name"] in accepted, c["name"]
            want = accepted[c["name"]]
            assert {k: c.get(k) for k in keys} == {k: want.get(k) for k in keys}, c["name"]


class TestAxisLines:
    """A spacing that does not divide a symmetric range still puts a grid line on 0."""

    def test_acceptance_at_h_0_003(self, capsys):
        assert main(["acceptance", "--h", "0.003"]) != 2
        assert "does not coincide" not in capsys.readouterr().err

    def test_backlund_run_at_h_0_003(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = main([
            "backlund", "run", "--direction", "t2w", "--family", "THETA_SQRT2",
            "--h", "0.003", "--out", str(out),
        ])
        assert rc != 2
        assert out.exists()


def test_cli_io_on_one_cpu_and_on_two(tmp_path, capsys, monkeypatch):
    """The CSV pair's build and verify give the same bytes inline and forked."""
    grid = coarse(0.0, 0.6, -0.35, 0.35, h=0.025)
    for fid, name in (("W_SQRT2", "w.csv"), ("THETA_SQRT2", "theta.csv")):
        assert main(["families", "eval", "--family", fid, "--out", str(tmp_path / name), "--grid", grid]) == 0
    workers = []

    def spied_fork_map(calls):
        workers.append(min(pool.workers(), len(calls)))
        return pool.fork_map(calls)

    monkeypatch.setattr(cli, "fork_map", spied_fork_map)
    runs = {}
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        run_dir = tmp_path / f"cpus{cpus}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        capsys.readouterr()
        codes = [main(argv) for argv in (
            ["harmonic", "build", "--pair", "../w.csv,../theta.csv", "--S0", "0.5", "--out", "map",
             "--tol", "0.1"],
            ["harmonic", "verify", "--u", "map.u.csv", "--w", "../w.csv", "--tol", "0.1",
             "--json", "verify.report.json"],
        )]
        assert multiprocessing.active_children() == []
        runs[cpus] = codes, capsys.readouterr(), sorted(p.name for p in run_dir.iterdir())
    assert workers == [1, 2]  # build's dumps; the pair loads in process
    assert runs[1] == runs[2]
    codes, _, names = runs[1]
    assert codes == [0, 0]
    csvs = ["map.u.csv", "map.I1.csv", "map.I2.csv", "map.I3.csv", "map.I4.csv"]
    assert names == sorted(csvs + [c + ".grid.json" for c in csvs] + [c + ".npy" for c in csvs]
                           + ["map.grid.json", "map.report.json", "verify.report.json"])
    for name in names:
        assert filecmp.cmp(tmp_path / "cpus1" / name, tmp_path / "cpus2" / name, shallow=False), name


def test_every_csv_has_its_grid_sidecar(tmp_path, capsys, monkeypatch):
    """Each CSV the CLI writes has `<csv>.grid.json`, holding its grid, its data digest and, for a weighted map,
    its family, and its companion `<csv>.npy`."""
    grid = coarse(0.0, 0.6, -0.35, 0.35, h=0.025)
    g = Grid2D.from_json(json.loads(grid))
    monkeypatch.chdir(tmp_path)
    for argv in (["families", "eval", "--family", "W_SQRT2", "--out", "w.csv"],
                 ["families", "eval", "--family", "U_SQRT2", "--out", "u.csv"],
                 ["families", "eval", "--family", "U_EX2", "--out", "u_ex2.csv"],
                 ["families", "eval", "--family", "METRIC_SECTION3", "--out", "m"],
                 ["backlund", "run", "--direction", "t2w", "--family", "THETA_SQRT2", "--out", "t2w.csv",
                  "--tol", "0.1"],
                 ["harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2", "--S0", "0.5", "--out", "map",
                  "--tol", "0.1"]):
        assert main(argv + ["--grid", grid]) == 0, argv
    csvs = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert csvs == sorted(["w.csv", "u.csv", "u_ex2.csv", "m.E.csv", "m.Fc.csv", "m.G.csv", "t2w.csv",
                           "map.u.csv", "map.I1.csv", "map.I2.csv", "map.I3.csv", "map.I4.csv"])
    for name in csvs:
        sidecar = json.loads(pathlib.Path(name + ".grid.json").read_text())
        assert re.fullmatch("[0-9a-f]{64}", sidecar.pop("data_sha256")), name
        assert sidecar == g.to_json() | ({"family": "U_EX2"} if name == "u_ex2.csv" else {}), name
        assert pathlib.Path(name + ".npy").is_file(), name
        if name in ("u.csv", "u_ex2.csv", "map.u.csv"):  # the map comes back with the family its sidecar names
            u, family = load_complex_csv(name)
            assert (u.grid, family) == (g, "U_EX2" if name == "u_ex2.csv" else None), name  # u.csv: U_SQRT2
        else:
            assert load_scalar_csv(name).grid == g, name


def test_cli_loads_its_own_dumps_from_their_companions(tmp_path, capsys, monkeypatch):
    """Every load in the chain eval -> harmonic build -> harmonic verify reads a companion and parses nothing."""
    grid = coarse(0.0, 0.6, -0.35, 0.35, h=0.025)
    monkeypatch.chdir(tmp_path)
    for fid, out in (("W_SQRT2", "w.csv"), ("THETA_SQRT2", "theta.csv"), ("U_EX2", "u_ex2.csv"),
                     ("METRIC_SECTION3", "m")):
        assert main(["families", "eval", "--family", fid, "--out", out, "--grid", grid]) == 0
    loaded = []
    real = grid_module._read_companion

    def companion(path, *rest):
        read = real(path, *rest)
        loaded.append((path, read is not None))
        return read

    monkeypatch.setattr(grid_module, "_read_companion", companion)
    monkeypatch.setattr(grid_module, "_read_checked", None)  # a parsing read would be a TypeError
    assert main(["harmonic", "build", "--pair", "w.csv,theta.csv", "--S0", "0.5", "--out", "map",
                 "--tol", "0.1"]) == 0
    assert main(["harmonic", "verify", "--u", "map.u.csv", "--w", "w.csv", "--tol", "0.1"]) == 0
    assert main(["harmonic", "verify", "--u", "u_ex2.csv"]) in (0, 1)
    for comp in ("E", "Fc", "G"):  # no command reads a metric back
        load_scalar_csv(f"m.{comp}.csv")
    assert loaded == [(p, True) for p in ("w.csv", "theta.csv", "map.u.csv", "w.csv", "u_ex2.csv",
                                          "m.E.csv", "m.Fc.csv", "m.G.csv")]


def test_harmonic_build_and_verify_agree(tmp_path, capsys):
    """`harmonic verify` of a built map and its partner repeats the build's checks."""
    grid = coarse(0.0, 0.6, -0.35, 0.35, h=0.025)
    prefix, w = str(tmp_path / "map"), str(tmp_path / "w.csv")
    assert main([
        "harmonic", "build", "--pair", "W_SQRT2,THETA_SQRT2", "--S0", "0.5",
        "--out", prefix, "--grid", grid, "--tol", "0.1",
    ]) == 0
    assert main(["families", "eval", "--family", "W_SQRT2", "--out", w, "--grid", grid]) == 0
    report = tmp_path / "verify.json"
    assert main([
        "harmonic", "verify", "--u", prefix + ".u.csv", "--w", w, "--tol", "0.1",
        "--json", str(report),
    ]) == 0
    built = json.loads((tmp_path / "map.report.json").read_text())["checks"]
    verified = json.loads(report.read_text())["checks"]
    assert [c["name"] for c in verified] == ["harmonic.correspondence", "harmonic.hopf"]
    assert verified == built


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    """Every `gordon ...` line of the README's CLI block exits 0, run in order."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("gordon ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, " ".join(argv)
