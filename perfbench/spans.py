"""Spans and counters recorded around gordon's public functions, from outside.

The program is not edited: `instrumented(tracer)` replaces each listed
function at every place it is bound (the defining module and every gordon
module that imported it with `from ... import`), and restores the originals
on exit.  Spans carry name, start, end, parent and the operation id; they
are kept in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # (op_id, span_id, parent_id, name, start, end)
        self.counts = Counter()  # counters of the current operation
        self.op_id = None
        self.missing = set()  # listed functions this version of gordon lacks
        self._stack = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((self._next_id, parent, name, time.perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        span_id, parent, name, start = self._stack.pop()
        self.spans.append((self.op_id, span_id, parent, name, start, time.perf_counter()))

    def to_json(self) -> list:
        keys = ("op", "id", "parent", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]


def self_times(spans, op_id) -> dict:
    """Per-name self time of one operation: span length minus its children's.

    Spans nest (one thread, one stack), so the children of a span are
    disjoint and their lengths add up to the part of it they cover.
    """
    ops = [s for s in spans if s[0] == op_id]
    covered = defaultdict(float)
    for _, _, parent, _, t0, t1 in ops:
        if parent is not None:
            covered[parent] += t1 - t0
    out = defaultdict(float)
    for _, span_id, _, name, t0, t1 in ops:
        out[name] += (t1 - t0) - covered[span_id]
    return dict(out)


def inclusive_times(spans, op_id) -> dict:
    out = defaultdict(float)
    for op, _, _, name, t0, t1 in spans:
        if op == op_id:
            out[name] += t1 - t0
    return dict(out)


# ---------------------------------------------------------------------------
# what is wrapped, and the counters each wrapper updates after the call


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_march(counts, args, kwargs, out):
    from gordon import backlund

    src = args[0]
    g = src.grid
    # computed, not observed: one RK4 substep sequence per cell along the
    # seed line and along every swept line (the sweep advances a vector)
    counts["backlund.rk4_substeps"] += backlund.MARCH_SUBSTEPS * ((g.nx - 1) + (g.ny - 1))
    counts["backlund.march_in_valid"] += int(np.count_nonzero(src.mask))
    counts["backlund.march_out_valid"] += int(np.count_nonzero(out.mask))


def _after_integrate(counts, args, kwargs, out):
    from gordon import profiles

    # computed from the axis and ODE_REFINEMENT: the lead-in march from
    # t = 0 to the anchor sample, then ODE_REFINEMENT substeps per cell
    t = np.asarray(_arg(args, kwargs, 1, "axis"), dtype=float)
    n, h, r = len(t), t[1] - t[0], profiles.ODE_REFINEMENT
    k0 = int(np.clip(round(-t[0] / h), 0, n - 1))
    lead = abs(t[k0])
    lead_steps = max(r, int(math.ceil(lead / h)) * r) if lead > 0 else 0
    counts["profiles.rk4_substeps"] += r * (n - 1) + lead_steps


def _bytes_of(pos, name, counter):
    def after(counts, args, kwargs, out):
        counts[counter] += os.path.getsize(_arg(args, kwargs, pos, name))

    return after


# (span name, module, function names, hook run after each call)
SPANNED = [
    ("backlund.march", "gordon.backlund", ("theta_to_w", "w_to_theta"), _after_march),
    ("backlund.residual", "gordon.backlund", ("backlund_residuals",), None),
    ("profiles.integrate", "gordon.profiles", ("integrate_profile",), _after_integrate),
    ("grid.csv_write", "gordon.grid", ("dump_scalar_csv", "dump_complex_csv", "dump_grid_sidecar"),
     _bytes_of(1, "path", "grid.csv_write_bytes")),
    ("grid.csv_read", "gordon.grid", ("load_scalar_csv", "load_complex_csv"),
     _bytes_of(0, "path", "grid.csv_read_bytes")),
    ("grid.stencil", "gordon.grid", ("laplacian", "partial_x", "partial_y", "wirtinger"), None),
    ("grid.quadrature", "gordon.grid", ("cumulative_integral_x", "cumulative_integral_y"), None),
    ("families.eval", "gordon.families", ("eval_family", "hopf_weight"), None),
    ("families.residual", "gordon.families",
     ("residual_sinh_gordon", "residual_sine_gordon", "sign_probe"), None),
    ("harmonic.ppfd", "gordon.harmonic", ("ppfd_construct",), None),
    ("harmonic.hopf", "gordon.harmonic", ("hopf_residual",), None),
    ("harmonic.correspondence", "gordon.harmonic", ("correspondence_check",), None),
    ("harmonic.curvature", "gordon.harmonic", ("pullback_metric", "gaussian_curvature"), None),
    *[(f"acceptance.c{k}", "gordon.acceptance", (f"criterion_{k}",), None) for k in range(1, 9)],
    ("cli.families_eval", "gordon.cli", ("cmd_families_eval",), None),
    ("cli.harmonic_build", "gordon.cli", ("cmd_harmonic_build",), None),
    ("cli.harmonic_verify", "gordon.cli", ("cmd_harmonic_verify",), None),
]

# span names whose call counts are reported
CALL_COUNTED = ("backlund.march", "profiles.integrate", "grid.stencil", "grid.quadrature")


def _spanned(tracer, fn, name, after):
    counted = name in CALL_COUNTED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counted:
            tracer.counts[name + "_calls"] += 1
        if after is not None:
            after(tracer.counts, args, kwargs, out)
        return out

    return wrapper


def _counting_scalar_callable(tracer, fn):
    """scalar_callable whose returned callables count their calls (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if inner is None:
            return None

        def call(x, y):
            tracer.counts["families.analytic_evals"] += 1
            return inner(x, y)

        return call

    return wrapper


def _report_write(tracer, fn):
    @functools.wraps(fn)
    def write(self, path):
        tracer.begin("report.write")
        try:
            fn(self, path)
        finally:
            tracer.end()
        tracer.counts["report.bytes"] += os.path.getsize(path)

    return write


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the listed functions at every binding site inside gordon."""
    import gordon.report

    replace = {}  # id(original) -> (original, wrapper)
    for name, modname, attrs, after in SPANNED:
        mod = sys.modules[modname]
        for attr in attrs:
            fn = getattr(mod, attr, None)
            if fn is None:
                tracer.missing.add(f"{modname}.{attr}")
                continue
            replace[id(fn)] = (fn, _spanned(tracer, fn, name, after))
    fam = sys.modules["gordon.families"]
    replace[id(fam.scalar_callable)] = (
        fam.scalar_callable, _counting_scalar_callable(tracer, fam.scalar_callable))

    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "gordon" and not modname.startswith("gordon."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, obj))
    cls = gordon.report.VerificationReport
    write = cls.write
    cls.write = _report_write(tracer, write)
    try:
        yield
    finally:
        cls.write = write
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
