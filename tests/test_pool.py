import os
import sys
import threading
import time

import numpy as np
import pytest

from wrtkit import _pool
from wrtkit.errors import ValidationError


@pytest.mark.parametrize("env, want", [("", None), ("0", None), ("3", 3), (" 2 ", 2)])
def test_workers_follow_wrtkit_threads(monkeypatch, env, want):
    monkeypatch.setenv("WRTKIT_THREADS", env)
    assert _pool.workers() == (want or len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("env", ["notanumber", "-1", "1.5"])
def test_bad_wrtkit_threads_is_a_validation_error(monkeypatch, env):
    monkeypatch.setenv("WRTKIT_THREADS", env)
    with pytest.raises(ValidationError):
        _pool.workers()


def test_limit_overrides_the_environment(monkeypatch):
    monkeypatch.setenv("WRTKIT_THREADS", "3")
    monkeypatch.setattr(_pool, "limit", 1)
    assert _pool.workers() == 1
    monkeypatch.setattr(_pool, "limit", -2)
    with pytest.raises(ValidationError):
        _pool.workers()


def test_one_worker_runs_inline(monkeypatch):
    monkeypatch.setenv("WRTKIT_THREADS", "1")
    monkeypatch.setattr(_pool, "_pool", None)  # calling it would raise TypeError
    caller = threading.get_ident()
    assert _pool.map(lambda share: (share, threading.get_ident()), range(5)) == [(range(5), caller)]


def test_map_cuts_contiguous_shares_in_order(monkeypatch):
    monkeypatch.setenv("WRTKIT_THREADS", "3")
    seen = _pool.map(lambda share: (share, threading.get_ident()), range(7))
    assert [share for share, _ in seen] == [range(0, 2), range(2, 4), range(4, 7)]
    assert seen[0][1] == threading.get_ident()  # the caller takes the first share
    assert _pool.map(len, list("ab")) == [1, 1]  # fewer items than workers
    assert _pool.map(len, []) == []


@pytest.mark.parametrize("failing", [0, 1])
def test_map_reraises_only_after_every_share_finished(monkeypatch, failing):
    # one item raises once the other has started; the other records when it
    # finishes; the exception must reach the caller, with its type, after that
    monkeypatch.setenv("WRTKIT_THREADS", "2")
    started, finished = threading.Event(), []

    def fn(share):
        if share == [failing]:
            assert started.wait(10.0)
            raise KeyError("boom")
        started.set()
        time.sleep(0.2)
        finished.append(time.perf_counter())
        return share

    with pytest.raises(KeyError):
        _pool.map(fn, [0, 1])
    raised = time.perf_counter()
    assert len(finished) == 1 and finished[0] <= raised


def test_map_reraises_the_first_exception_in_item_order(monkeypatch):
    monkeypatch.setenv("WRTKIT_THREADS", "2")

    def fn(share):
        if share == [1]:
            raise ValueError("second share")
        time.sleep(0.05)
        raise KeyError("first share")

    with pytest.raises(KeyError):
        _pool.map(fn, [0, 1])


def test_concurrent_callers_with_more_workers_than_cores(monkeypatch):
    # several callers share one pool; shares a busy pool has not started run
    # on their caller, so every call completes with its own results
    monkeypatch.setenv("WRTKIT_THREADS", str(2 * len(os.sched_getaffinity(0)) + 2))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, errors = {}, []

    def caller(k):
        try:
            for _ in range(20):
                out = _pool.map(lambda share: [float(np.sum(np.full(2000, x + k))) for x in share],
                                range(16))
                assert sum(out, []) == [2000.0 * (x + k) for x in range(16)]
            results[k] = True
        except BaseException as exc:
            errors.append(exc)

    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and sorted(results) == [0, 1, 2, 3]
