import multiprocessing
import os
import threading
import time

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
        fh.write("x,y,value,valid\n")
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

