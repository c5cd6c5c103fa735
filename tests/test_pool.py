import os
import threading

from gordon import pool
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
