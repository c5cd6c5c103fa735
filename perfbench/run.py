"""Benchmark of gordon's verification workloads.

    python3 perfbench/run.py --workload acceptance-full --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a gordon checkout; the package is imported from its
`src/` directory.  One process runs one workload as a closed loop with one
client: an operation starts once the previous one has been checked.  Every
operation's output passes the workload's gate before it counts as done.

--trace 0 prints the end-to-end metrics, whose times are reference seconds:
wall-clock seconds rescaled by the host's speed, which a fixed reference
kernel timed after every operation measures, and set-up time is rescaled by
the time the same interpreter took to import numpy and scipy (see
measure.REF_KERNEL_S); the wall-clock figures are printed beside them.  --trace 1 alternates untraced and
traced operations and prints the per-module metrics derived from the spans,
with the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.  Spans, counts and the full result go to `.bench_out/` in the
checkout.  `--workload all` runs the three workloads one after another, each
in a child process, and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("acceptance-full", "field-io", "march-fine")
SETUP_RUNS = 5  # fresh interpreters per run; setup_s is their median
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT = 170


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap native thread pools at nproc; must run before numpy is imported."""
    n = nproc()
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= n:
            os.environ[var] = str(n)
    # the acceptance tolerance is part of the workload, not of the machine
    os.environ.pop("GORDON_TOL", None)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_gordon():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gordon

    if os.path.dirname(os.path.dirname(os.path.abspath(gordon.__file__))) != SRC:
        raise ImportError(f"gordon imported from {gordon.__file__}, not from {SRC}")
    return gordon


def setup_probe(args) -> int:
    """Time, in this fresh interpreter, importing gordon and building the inputs.

    numpy and scipy.interpolate, which gordon imports, are imported first and
    also timed on their own, as the host's speed at importing.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.interpolate  # noqa: F401

    import_ref = time.perf_counter() - t0
    import_gordon()
    import workloads

    wl = workloads.make(args.workload, args.seed, OUT)
    elapsed = time.perf_counter() - t0
    wl.close()
    print(json.dumps({"setup_s": elapsed, "import_ref_s": import_ref}))
    return 0


def measure_setup(args) -> tuple:
    """(set-up times, numpy and scipy import times), one of each per fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    times, imports = [], []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        imports.append(probe["import_ref_s"])
    return times, imports


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": threads,
    }


def run_all(args) -> int:
    """Each workload in its own child process, so peak RSS is its own."""
    rows, combined, ok = [], {}, True
    attempted = failed = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            print(f"error: workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, v in res["metrics"].items():
            combined[f"{name}.{metric}"] = v
            rows.append((name, metric, v["value"], v["unit"]))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:34s} {value:<24.10g} {unit}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gordon")):
        print(f"error: no gordon package under {SRC}; run from a gordon checkout", file=sys.stderr)
        return 2
    threads = cap_threads()
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    import_gordon()
    import measure

    os.makedirs(OUT, exist_ok=True)
    setup_times, import_times = measure_setup(args)
    return measure.run(args, setup_times, import_times, environment(threads), OUT)


if __name__ == "__main__":
    sys.exit(main())
