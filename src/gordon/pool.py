"""One pool of forked workers for independent calls.

fork_map runs a list of calls on min(usable CPUs, calls) worker processes
and returns their results in call order.  The acceptance criteria run
through it, and so do the CLI's independent grid-CSV reads and writes; a
transformation march runs in the process that calls it.

Workers are forked, not spawned: a spawned worker re-imports numpy and gordon
(about 0.2 s), while a forked one inherits the parent's modules and memory,
so a call may be a closure over arrays the parent already holds.  Only the
call's index goes to a worker and only its result (or exception) comes back.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
import traceback
from multiprocessing.connection import wait


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def workers() -> int:
    """Workers fork_map starts for as many calls as usable CPUs or more.

    1 while other threads run: a fork copies only the calling thread, so a
    lock another thread holds would stay held in the worker.
    """
    if threading.active_count() > 1:
        return 1
    return usable_cpus()


# glibc's mallopt parameters (malloc.h) and the values a worker sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20  # glibc's 64-bit maximum: mallopt rejects more
TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory():
    """Keep the memory this process frees in its heap, for its short life.

    A grid operator's full-grid temporaries (0.5-4 MB) are above glibc's
    default mmap threshold, or are trimmed off the heap top once freed, so
    each next operator faults fresh zeroed pages in again.  Both thresholds
    are set: setting either one turns off glibc's dynamic adjustment of the
    other, and one alone faults more than the default.  Only forked workers
    call this: the setting is process-wide, and the caller of fork_map may
    be any program that imports gordon.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # glibc only, not macOS
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _unwind(signum, frame):
    sys.exit(128 + signum)


def _serve(calls, conn, parent_ends):
    """Worker loop: run calls[i] for each index i received, send (ok, result or exception)."""
    # fork_map stops a running call with SIGTERM; exiting through SystemExit
    # runs the call's finally and except blocks (atomic_open removes its .tmp)
    signal.signal(signal.SIGTERM, _unwind)
    _keep_freed_memory()
    for c in parent_ends:  # inherited from the fork: held here, they would hide the parent's EOF
        c.close()
    while True:
        try:
            i = conn.recv()
        except EOFError:  # the parent closed its end: no call is left
            return
        fn, *args = calls[i]
        try:
            out = (True, fn(*args))
        except Exception as exc:  # raised again in the parent, with its own type
            out = (False, (exc, traceback.format_exc()))
        conn.send(out)


def fork_map(calls: list) -> list:
    """[fn(*args) for fn, *args in calls], with the calls run on forked workers.

    Each idle worker takes the next call not yet started, in list order, so
    put the longest calls first.  With one worker (see workers) the calls
    run inline, in order.  When a call raises, no further call starts, the
    running calls after it in the list are stopped and those before it are
    waited for; the exception of the first call in the list that raised is
    raised here with its own type, as inline.  No worker outlives the call
    of fork_map.  A stopped call unwinds (SystemExit is raised in it), so
    its finally and except blocks run; a call must leave nothing but its
    result, and its result must pickle.
    """
    n = min(workers(), len(calls))
    if n <= 1:
        return [fn(*args) for fn, *args in calls]
    ctx = multiprocessing.get_context("fork")
    results = [None] * len(calls)
    procs, busy = {}, {}  # by the parent's end of each worker's pipe: process, running call
    first, failure = len(calls), None  # the first call in the list that raised, and its exception
    try:
        for i in range(n):
            conn, child = ctx.Pipe()
            procs[conn] = ctx.Process(target=_serve, args=(calls, child, [*procs, conn]))
            try:
                procs[conn].start()
            finally:
                child.close()  # the worker, if it started, holds its own copy
            conn.send(i)
            busy[conn] = i
        queued = iter(range(n, len(calls)))
        while before := [conn for conn, i in busy.items() if i < first]:
            for conn in wait(before):
                i = busy.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:  # killed, or its result did not pickle
                    procs[conn].join()
                    ok, value = False, (RuntimeError(f"a worker exited (code {procs[conn].exitcode})"
                                                     " before returning its result"), None)
                if not ok:
                    if i < first:
                        first, failure = i, value
                    continue
                results[i] = value
                i = next(queued, None) if failure is None else None
                if i is not None:
                    conn.send(i)
                    busy[conn] = i
    finally:
        for conn, proc in procs.items():
            if conn in busy:  # its result is no longer needed
                proc.terminate()
            conn.close()  # an idle worker sees EOF and exits
        for proc in procs.values():
            if proc.pid is not None:  # None if its start raised (no pid left)
                proc.join()
    if failure is not None:
        exc, tb = failure
        raise exc from (ChildProcessError(f"in a forked worker:\n{tb}") if tb else None)
    return results
