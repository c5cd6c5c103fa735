"""The measured loop of one workload and the metrics derived from it."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass

import numpy as np

import spans
import workloads

# end-to-end metrics, printed with --trace 0 (name -> unit).  Their times are
# reference seconds (see reference_kernel); the operation time is the median
# of the run's timed operations.  The same quantities in wall-clock seconds
# are printed beside them with the suffix `_wall`.
END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "points_per_s": "1/s",
    "ok_ratio": "ratio",
    "err_sup": "1",
    "peak_rss_mb": "MB",
}

_TIMED = [name for name, *_ in spans.SPANNED] + ["report.write"]
# per-module metrics, printed with --trace 1 (name -> unit); `_s` are self times
PER_LAYER = {
    **{f"{name}_s": "s" for name in _TIMED},
    **{f"acceptance.c{k}_incl_s": "s" for k in range(1, 9)},
    **{f"{name}_calls": "count" for name in spans.CALL_COUNTED},
    "backlund.rk4_substeps": "count",
    "profiles.rk4_substeps": "count",
    "families.analytic_evals": "count",
    "grid.csv_write_bytes": "B",
    "grid.csv_read_bytes": "B",
    "report.bytes": "B",
    "backlund.march_valid_ratio": "ratio",
    "backlund.sampled_edge_err": "1",
    "backlund.sampled_r1_sup": "1",
    "trace.unattributed_s": "s",
    "trace.op_s_p50_untraced": "s",
    "trace.op_s_p50_traced": "s",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly for one seed; the substep counts are
# computed from grid sizes and MARCH_SUBSTEPS / ODE_REFINEMENT
EXACT = [n for n, u in PER_LAYER.items() if u in ("count", "B")]
COMPUTED = ("backlund.rk4_substeps", "profiles.rk4_substeps")
# values the march-fine gate measures; 0 where the workload runs no such march
FROM_GATE = ("backlund.sampled_edge_err", "backlund.sampled_r1_sup")


# On a shared host a process runs up to about 1.5 times slower for minutes at
# a time, as other tenants load the physical cores.  On a 2-vCPU Xeon host the
# wall-clock median operation time of acceptance-full moved between 2.9 s and
# 4.9 s over five runs of the same code in ten minutes.  So every declared
# time is divided by the host's speed, measured in the same run: a fixed
# reference kernel, which runs no gordon code, is timed after every
# operation, and a time t is declared as
# t * REF_KERNEL_S / (mean kernel time of the run).  REF_KERNEL_S is the
# kernel's time on that host when its core is not shared, so reference seconds
# read close to wall-clock seconds there.  A change to gordon moves the
# operation time and leaves the kernel as it is.  Over ten seeds per workload
# the spread (IQR / median) of the operation time was 0.08 to 0.10 in
# reference seconds, 0.06 to 0.20 for the wall-clock median and 0.19 to 0.25
# for the fastest operation.
REF_KERNEL_S = 0.1
# Set-up time is mostly imports, whose speed drifted apart from the kernel's:
# between two sets of ten runs the wall-clock set-up median rose by 11 to 18%
# while the operation times stayed put.  Each set-up probe first imports numpy
# and scipy.interpolate, which gordon imports, and times that alone; setup_s
# is the median over probes of set-up time * REF_IMPORT_S / that import time.
# So gordon's own set-up work (its import and the workload's inputs) moves
# setup_s, and a change to how gordon imports scipy does not.
REF_IMPORT_S = 0.7


def reference_kernel() -> float:
    """Seconds taken by fixed work that uses no gordon code.

    It mixes what the workloads spend their time on: float text formatting
    and parsing in the interpreter, and whole-array numpy passes over a grid
    of march-fine's size.
    """
    t0 = time.perf_counter()
    xs = [k * 0.7071067811865476 for k in range(30000)]
    text = "\n".join(f"{x!r},{-x!r}" for x in xs)
    back = [float(f) for line in text.split("\n") for f in line.split(",")]
    a = np.linspace(0.0, 1.0, 481 * 561).reshape(481, 561)
    for _ in range(6):
        a = np.cumsum(np.sin(a) * 0.5, axis=0) * 1e-3 + np.gradient(a, axis=1)
    elapsed = time.perf_counter() - t0
    if len(back) != 2 * len(xs) or not np.isfinite(a).all():
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


@dataclass
class Op:
    index: int
    traced: bool
    wall: float
    outcome: workloads.Outcome
    counts: Counter
    kernel_s: float  # the reference kernel, timed right after this operation

    @property
    def timed(self) -> bool:
        """Op 0 warms caches and allocators up; it is checked but not timed."""
        return self.index > 0


def run_ops(wl, seconds: float, trace: bool, tracer=None) -> list:
    """A warm-up op, then timed ops for `seconds`; with trace, even-numbered ops are traced.

    No operation starts that the median duration so far says would end past
    the deadline, so a run lasts `seconds` however long an operation takes.
    At least one untraced timed operation runs, and with trace one traced.
    """
    ops, spent = [], []
    deadline = None
    reference_kernel()  # its first call pays for page faults and numpy set-up
    while True:
        k = len(ops)
        traced = trace and k > 0 and k % 2 == 0
        t_iter = time.perf_counter()
        wl.prepare()
        gc.collect()  # start every operation with the same collector state
        counts = Counter()
        wall = None
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op_id, tracer.counts = k, counts
                with spans.instrumented(tracer):
                    t0 = time.perf_counter()
                    tracer.begin("op")
                    try:
                        result = wl.op()
                    finally:
                        tracer.end()
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                result = wl.op()
                wall = time.perf_counter() - t0
            outcome = wl.check(result)
        except Exception as e:  # a failed operation is counted, not fatal
            if wall is None:
                wall = time.perf_counter() - t0
            traceback.print_exc()
            outcome = workloads.Outcome(False, float("inf"), 0, [f"raised {type(e).__name__}: {e}"])
        result = None
        ops.append(Op(k, traced, wall, outcome, counts, reference_kernel()))
        now = time.perf_counter()
        if deadline is None:
            deadline = now + seconds
            continue
        spent.append(now - t_iter)
        if len(ops) >= (3 if trace else 2) and now + statistics.median(spent) > deadline:
            return ops


def tail_note(walls: list) -> str:
    """The p90 when at least 10 samples lie beyond it, else why none is printed."""
    if len(walls) >= 100:
        return f"op_s_p90 {statistics.quantiles(walls, n=10)[-1]:.6g} s"
    return (f"no tail percentile printed: {len(walls)} operations leave fewer than 10 samples "
            f"beyond any percentile above the median")


def _finite(x: float) -> float:
    return x if x == x and abs(x) != float("inf") else sys.float_info.max


def end_to_end(walls, ops, setup_ref, speed) -> dict:
    """The declared end-to-end metrics; `walls` are the timed untraced operations."""
    ok = [o for o in ops if o.outcome.ok]
    points = ok[0].outcome.points if ok else 0
    return {
        "setup_s": setup_ref,
        "op_s_p50": statistics.median(walls) * speed,
        "points_per_s": points / (statistics.median(walls) * speed),
        "ok_ratio": len(ok) / len(ops),
        "err_sup": _finite(max(o.outcome.err_sup for o in ops)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(ops, tracer) -> tuple:
    """(metrics, problems) from the traced operations that passed their gate."""
    traced = [o for o in ops if o.traced and o.outcome.ok] or [o for o in ops if o.traced]
    untraced = [o for o in ops if o.timed and not o.traced]
    rows = []
    for o in traced:
        st = spans.self_times(tracer.spans, o.index)
        inc = spans.inclusive_times(tracer.spans, o.index)
        m = {f"{name}_s": st.get(name, 0.0) for name in _TIMED}
        m.update({f"acceptance.c{k}_incl_s": inc.get(f"acceptance.c{k}", 0.0) for k in range(1, 9)})
        m["trace.unattributed_s"] = st.get("op", 0.0)
        m.update({name: o.counts.get(name, 0) for name in EXACT})
        n_in = o.counts.get("backlund.march_in_valid", 0)
        m["backlund.march_valid_ratio"] = o.counts.get("backlund.march_out_valid", 0) / n_in if n_in else 0.0
        m.update({name: o.outcome.extra.get(name, 0.0) for name in FROM_GATE})
        rows.append(m)
    problems = []
    for name in EXACT:
        seen = sorted({r[name] for r in rows})
        if len(seen) > 1:
            problems.append(f"count {name} differs between operations of one seed: {seen}")
    out = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    out["trace.op_s_p50_untraced"] = statistics.median(o.wall for o in untraced)
    out["trace.op_s_p50_traced"] = statistics.median(o.wall for o in traced)
    out["trace.overhead_s"] = out["trace.op_s_p50_traced"] - out["trace.op_s_p50_untraced"]
    return out, problems


def compare_counts(path: str, counts: dict) -> str:
    """Compare the exact counts with the previous run of the same seed, then store them."""
    note = "first run of this seed: nothing to compare"
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        diff = sorted(k for k in counts if prev.get(k) != counts[k])
        note = ("match the previous run of this seed" if not diff
                else "MISMATCH with the previous run of this seed: " + ", ".join(diff))
    with open(path, "w") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return note


def run(args, setup_times, import_times, env, out_dir) -> int:
    wl = workloads.make(args.workload, args.seed, out_dir)
    try:
        return _run(wl, args, setup_times, import_times, env, out_dir)
    finally:
        wl.close()


def _run(wl, args, setup_times, import_times, env, out_dir) -> int:
    wl.build_oracle()
    tracer = spans.Tracer() if args.trace else None
    t_run = time.perf_counter()
    ops = run_ops(wl, args.seconds, bool(args.trace), tracer)
    t_run = time.perf_counter() - t_run
    failed = [o for o in ops if not o.outcome.ok]
    problems = [f"op {o.index}: {p}" for o in failed for p in o.outcome.problems]
    ok_ops = [o for o in ops if o.outcome.ok]
    walls = [o.wall for o in ops if o.timed and not o.traced]
    digest = ok_ops[0].outcome.extra.get("report_sha256", "n/a") if ok_ops else "n/a"

    kernels = [o.kernel_s for o in ops]
    speed = REF_KERNEL_S / statistics.fmean(kernels)  # wall seconds to reference seconds
    setup_ref = statistics.median(REF_IMPORT_S * s / i for s, i in zip(setup_times, import_times))
    e2e = end_to_end(walls, ops, setup_ref, speed)
    lines = [
        f"workload {wl.name}, seed {args.seed} ({wl.seed_note})",
        f"environment {json.dumps(env, sort_keys=True)}",
        f"closed loop, one client: {len(ops)} operations in {t_run:.2f} s, the first a warm-up"
        + (", even-numbered ones traced" if args.trace else ""),
        f"acceptance report sha256 {digest}",
        f"timed untraced operations n={len(walls)}; {tail_note(walls)}",
        f"reference kernel {statistics.fmean(kernels):.6g} s mean over n={len(kernels)}, "
        f"{REF_KERNEL_S} s at the reference speed: wall seconds x {speed:.6g} = reference seconds",
        f"numpy and scipy import {statistics.median(import_times):.6g} s median over n={len(import_times)}, "
        f"{REF_IMPORT_S} s at the reference speed",
        f"setup_s_wall {statistics.median(setup_times):.10g} s",
        f"op_s_p50_wall {statistics.median(walls):.10g} s",
        f"op_s_min_wall {min(walls):.10g} s",
        f"points_per_s_wall {ok_ops[0].outcome.points / statistics.median(walls) if ok_ops else 0:.10g} 1/s",
        f"failed_ratio {len(failed) / len(ops):.6g} ratio ({len(failed)} of {len(ops)} failed)",
    ]
    accuracy = wl.accuracy_versus_h(ok_ops[0].outcome) if ok_ops else None
    if accuracy:
        lines.append(accuracy)
    for name, value in e2e.items():
        lines.append(f"{name} {value:.10g} {END_TO_END[name]}")

    result = {"workload": wl.name, "seed": args.seed, "seed_note": wl.seed_note,
              "environment": env, "report_sha256": digest,
              "setup_times_s": setup_times, "import_times_s": import_times, "op_walls_s": [o.wall for o in ops],
              "kernel_s": kernels,
              "traced": [o.traced for o in ops], "end_to_end": e2e, "problems": problems}
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in e2e.items()}
    if args.trace:
        layer, count_problems = per_layer(ops, tracer)
        problems += count_problems
        exact = {name: layer[name] for name in EXACT}
        note = compare_counts(os.path.join(out_dir, f"counts-{wl.name}-seed{args.seed}.json"), exact)
        lines.append(f"exact counts {note}; {', '.join(COMPUTED)} are computed from grid sizes")
        if tracer.missing:
            lines.append("not traced, absent from gordon: " + ", ".join(sorted(tracer.missing)))
        for name, value in layer.items():
            lines.append(f"{name} {value:.10g} {PER_LAYER[name]}")
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in layer.items()}
        result["per_layer"] = layer
        result["counts_vs_previous_run"] = note
        with open(os.path.join(out_dir, f"spans-{wl.name}-seed{args.seed}.json"), "w") as fh:
            json.dump(tracer.to_json(), fh)

    with open(os.path.join(out_dir, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for p in problems:
        lines.append(f"PROBLEM {p}")
    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0
