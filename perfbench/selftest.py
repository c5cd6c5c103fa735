"""Self-tests of the benchmark itself.  Run from the checkout root:

    python3 perfbench/selftest.py

They take about a minute: two short benchmark runs, one field-io operation,
a quick acceptance suite, and a run in a directory without the sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

import run

run.cap_threads()
run.import_gordon()

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gordon import acceptance, cli  # noqa: E402
from gordon.grid import ScalarField  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCRATCH = os.path.join(run.OUT, "selftest")

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=run.ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += list(measure.END_TO_END) + list(measure.PER_LAYER)
        for name in names:
            self.assertRegex(name, NAME)

    def test_declared_metrics_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, measure.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, measure.PER_LAYER)
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_every_declared_metric_is_emitted_with_its_unit(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = bench("--workload", "field-io", "--seed", "3", "--seconds", "0", "--trace", trace)
            self.assertEqual(out.returncode, 0, out.stderr)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(res["correct"], out.stdout)
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            self.assertEqual(set(res["metrics"]), set(declared))
            for name, v in res["metrics"].items():
                self.assertEqual(v["unit"], declared[name])
                self.assertIsInstance(v["value"], (int, float))
            for name in declared:  # the human-readable lines name every metric with its unit
                self.assertRegex(out.stdout, rf"(?m)^{re.escape(name)} \S+ {re.escape(declared[name])}$")
            if trace == "0":  # the declared operation time is the wall-clock one rescaled by the host's speed
                speed = float(re.search(r"wall seconds x (\S+) = reference seconds", out.stdout)[1])
                wall = float(re.search(r"(?m)^op_s_p50_wall (\S+) s$", out.stdout)[1])
                self.assertAlmostEqual(res["metrics"]["op_s_p50"]["value"], wall * speed, delta=1e-5 * wall)


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fio = workloads.FieldIO(5, os.path.join(SCRATCH, "field-io"))
        cls.fio.build_oracle()

    @classmethod
    def tearDownClass(cls):
        cls.fio.close()

    def _fresh_field_io(self):
        self.fio.prepare()
        result = self.fio.op()
        self.assertTrue(self.fio.check(result).ok)
        return result

    def test_field_io_flags_two_swapped_rows(self):
        result = self._fresh_field_io()
        path = self.fio.paths["theta"]
        with open(path) as fh:
            lines = fh.readlines()
        lines[101], lines[102] = lines[102], lines[101]
        with open(path, "w") as fh:
            fh.writelines(lines)
        outcome = self.fio.check(result)
        self.assertFalse(outcome.ok)
        self.assertTrue(any("theta.csv" in p for p in outcome.problems), outcome.problems)

    def test_field_io_flags_one_changed_value(self):
        result = self._fresh_field_io()
        path = self.fio.paths["map"] + ".u.csv"
        with open(path) as fh:
            lines = fh.readlines()
        x, y, re_, im, valid = lines[5000].rstrip("\n").split(",")
        lines[5000] = f"{x},{y},{float(re_) + 1e-9!r},{im},{valid}\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        outcome = self.fio.check(result)
        self.assertFalse(outcome.ok)
        self.assertTrue(any("map.u.csv" in p for p in outcome.problems), outcome.problems)

    def test_march_gate(self):
        # the closed-form pair stands in for the march outputs: it passes the gate
        wl = workloads.MarchFine(0)
        wl.theta00 = 0.0  # theta_sqrt2(0, 0), so the closed forms are a valid result
        self.assertTrue(wl.check((wl.w, wl.theta)).ok)
        i, j = wl.grid.nx // 2, wl.grid.ny // 2
        bumped = wl.theta.values.copy()
        bumped[i, j] += 1e-3

        outcome = wl.check((wl.w, ScalarField(wl.grid, bumped, wl.theta.mask.copy())))
        self.assertFalse(outcome.ok)
        self.assertTrue(any("residual" in p for p in outcome.problems), outcome.problems)
        mask = wl.w.mask.copy()
        mask[i, j] = False
        outcome = wl.check((ScalarField(wl.grid, wl.w.values.copy(), mask), wl.theta))
        self.assertFalse(outcome.ok)
        self.assertTrue(any("lost 1 valid points" in p for p in outcome.problems), outcome.problems)

    def test_acceptance_gate(self):
        wl = workloads.AcceptanceFull(0)
        rep = acceptance.run_acceptance(quick=True)
        self.assertTrue(wl.check(rep).ok)
        rep.checks[3].sup *= 1 + 1e-15
        outcome = wl.check(rep)
        self.assertFalse(outcome.ok)
        self.assertTrue(any("digest" in p for p in outcome.problems), outcome.problems)
        rep.checks[3].passed = False
        self.assertFalse(wl.check(rep).ok)


class Tracing(unittest.TestCase):
    def test_self_times_of_nested_spans(self):
        s = [(0, 0, None, "op", 0.0, 10.0), (0, 1, 0, "a", 1.0, 5.0), (0, 2, 1, "b", 2.0, 3.0),
             (0, 3, 0, "b", 6.0, 7.0), (1, 4, None, "op", 20.0, 21.0)]
        self.assertEqual(spans.self_times(s, 0), {"op": 5.0, "a": 3.0, "b": 2.0})

    def test_self_times_never_exceed_the_operation_wall_time(self):
        wl = workloads.FieldIO(6, os.path.join(SCRATCH, "field-io-traced"))
        try:
            wl.build_oracle()
            tracer = spans.Tracer()
            ops = measure.run_ops(wl, 0.0, True, tracer)
        finally:
            wl.close()
        traced = [o for o in ops if o.traced]
        self.assertTrue(traced and all(o.outcome.ok for o in ops))
        for o in traced:
            st = spans.self_times(tracer.spans, o.index)
            self.assertLessEqual(sum(st.values()), o.wall)
            self.assertTrue(all(v >= 0 for v in st.values()), st)
            # cli bound load_scalar_csv with `from .grid import`; that site is traced too
            self.assertGreater(st.get("grid.csv_read", 0.0), 0.0)
        self.assertGreater(traced[0].counts["grid.csv_read_bytes"], 0)
        # the originals are back in place once the traced operation ends
        self.assertFalse(hasattr(cli.load_scalar_csv, "__wrapped__"))


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for f in os.listdir(run.HERE):
            if f.endswith(".py"):
                shutil.copy(os.path.join(run.HERE, f), os.path.join(bare, "perfbench"))
        try:
            out = bench("--workload", "field-io", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("metrics", out.stdout)


if __name__ == "__main__":
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
