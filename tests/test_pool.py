import ctypes
import multiprocessing
import multiprocessing.connection
import os
import resource
import threading
import time

import numpy as np

import pytest

from gordon import pool
from gordon.grid import atomic_open
from gordon.pool import fork_map


def test_results_in_call_order(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
    results = fork_map([(divmod, k, 3) for k in range(7)] + [(os.getpid,)])
    assert results[:7] == [divmod(k, 3) for k in range(7)]
    assert results[7] != os.getpid()


def test_inline_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert fork_map([(os.getpid,), (os.getpid,)]) == [os.getpid()] * 2
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()


def _write_until_stopped(path):
    with atomic_open(path) as fh:
        fh.write(b"x,y,value,valid\n")
        fh.flush()
        time.sleep(60)


def _raise_once_a_tmp_exists(directory):
    deadline = time.monotonic() + 30
    while not list(directory.glob("*.tmp")) and time.monotonic() < deadline:
        time.sleep(0.01)
    raise ValueError("the other call fails")


def test_a_stopped_call_unwinds(monkeypatch, tmp_path):
    # the writer, after the failing call in the list, is stopped inside
    # atomic_open's with block: its .tmp goes too
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    start = time.monotonic()
    with pytest.raises(ValueError, match="the other call fails"):
        fork_map([(_raise_once_a_tmp_exists, tmp_path), (_write_until_stopped, str(tmp_path / "f.csv"))])
    assert time.monotonic() - start < 30
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def _raise_after(seconds, message):
    time.sleep(seconds)
    raise ValueError(message)


def test_the_first_failing_call_in_the_list_is_raised(monkeypatch):
    # the second call fails first in time; the first call's failure is raised, as inline
    calls = [(_raise_after, 0.5, "the first call"), (_raise_after, 0, "the second call")]
    for cpus in (1, 2):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        with pytest.raises(ValueError, match="the first call"):
            fork_map(calls)
        assert multiprocessing.active_children() == []



def test_a_worker_that_fails_to_start_raises_its_error(monkeypatch):
    # no pid left: the second start raises, the first worker is stopped
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    start = multiprocessing.context.ForkProcess.start
    starts = []

    def start_once(proc):
        starts.append(proc)
        if len(starts) == 2:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start_once)
    with pytest.raises(BlockingIOError):
        fork_map([(time.sleep, 30), (os.getpid,)])
    assert len(starts) == 2
    assert multiprocessing.active_children() == []


class _RecordingEnd:
    """The parent's end of a worker's pipe: records each index sent, marks a failure received."""

    def __init__(self, conn, sent, marker):
        self._conn, self._sent, self._marker = conn, sent, marker

    def send(self, i):
        self._sent.append(i)
        self._conn.send(i)

    def recv(self):
        out = self._conn.recv()
        if not out[0]:
            self._marker.touch()
        return out

    def __getattr__(self, name):  # fileno for wait, close
        return getattr(self._conn, name)


def _hold_until(marker):
    deadline = time.monotonic() + 30
    while not marker.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_a_failure_hands_out_no_queued_call(monkeypatch, tmp_path):
    # call 0 returns only once the parent holds call 1's failure, so its
    # worker goes idle with every later call still queued
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    sent, marker = [], tmp_path / "failure-received"
    pipe = multiprocessing.connection.Pipe

    def recording_pipe(duplex=True):
        conn, child = pipe(duplex)
        return _RecordingEnd(conn, sent, marker), child

    monkeypatch.setattr(multiprocessing.connection, "Pipe", recording_pipe)
    with pytest.raises(ValueError, match="the second call"):
        fork_map([(_hold_until, marker), (_raise_after, 0, "the second call")]
                 + [(os.getpid,)] * 4)
    assert marker.exists()
    assert sorted(sent) == [0, 1]
    assert multiprocessing.active_children() == []


def _faults_in_churn():
    """Minor page faults of five rounds of three full-grid temporaries, after one round."""
    def churn():
        a = np.ones((481, 561))
        b = a + a
        c = a * b
        del a, b, c

    churn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        churn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
def test_a_worker_keeps_its_freed_memory(monkeypatch):
    # with glibc's default thresholds each round faults its 3 x 2.2 MB in
    # again (about 7,800 faults); a worker keeps the freed blocks
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    assert max(fork_map([(_faults_in_churn,)] * 2)) < 100
