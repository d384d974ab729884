"""Worker threads for independent slices, columns and rays.

The t1 backprojection shares out its slices, the closed-form oracle and
the factored route of ``windowed_ray_transform`` their v columns,
``wrt_columns`` its planned source calls (base points for the
analytic-signal window) and ``wrt_polar_perp`` its rho rows.  That
work spends its time in numpy ufuncs, pocketfft, BLAS and
``ndimage.map_coordinates``, which release the interpreter lock, so threads
run it on separate cores.  The factored route's GEMMs run on the pool
threads; where it can, it keeps each small enough that OpenBLAS runs it on
one thread, so the workers do not contend for OpenBLAS's own threads.  The
worker count comes from the CLI's ``--threads`` or the WRTKIT_THREADS
environment variable; unset or 0 means one worker per core this process
may run on.  With one worker nothing is threaded.

Granularity: a share's numpy calls should each cover a block of work, not
one small slice.  The interpreter lock passes between the workers around
every call, and on a slice of a few thousand values those handoffs cost
more than the arithmetic, so two workers can lose to one; the oracle, for
one, fills a block of columns per call.  Likewise ``wrt_columns`` plans its
source calls on the caller (runs of rays that keep the same panels) and
shares out whole calls, each share of about equal work and of at least
2^19 ray nodes; shares of base points, regrouped by panels within each
share, made more and smaller calls the more workers there were.  No
forward value depends on the count; t1 sums its workers' spectra in share
order, so it repeats bit for bit at a given count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from .errors import ValidationError

limit = None  # the running CLI command's --threads; None: WRTKIT_THREADS decides

_lock = threading.Lock()
_executor = None
_executor_size = 0


def requested(value=None):
    """``value``, else WRTKIT_THREADS, as a thread count >= 0 (0: unset)."""
    if value is None:
        env = os.environ.get("WRTKIT_THREADS", "").strip()
        if not env:
            return 0
        try:
            value = int(env)
        except ValueError:
            raise ValidationError(f"WRTKIT_THREADS={env!r} is not an integer")
    if value < 0:
        raise ValidationError("thread count must be >= 0")
    return value


def workers():
    """The worker count: the requested thread count, else the usable cores."""
    n = requested(limit)
    if n:
        return n
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _pool(size):
    """An executor with at least ``size`` threads, made on first need.  A
    smaller one it replaces is not shut down, since another caller may still
    submit to it; its threads exit once it is garbage-collected."""
    global _executor, _executor_size
    with _lock:
        if _executor_size < size:
            _executor = ThreadPoolExecutor(size, thread_name_prefix="wrtkit")
            _executor_size = size
        return _executor


def map(fn, items):
    """``[fn(share) for share in shares]``: the sequence ``items`` (a range
    slices into ranges) cut into one contiguous share per worker, in order.
    The calling thread runs the first share; a share no pool thread has
    started by then runs on the caller too.  Returns, or re-raises the first
    exception in share order, only after every share has finished."""
    n = min(workers(), len(items))
    shares = [items[len(items) * k // n:len(items) * (k + 1) // n] for k in range(n)]
    if n <= 1:
        return [fn(share) for share in shares]
    pool = _pool(n - 1)
    futures = [None] + [pool.submit(fn, share) for share in shares[1:]]
    results, errors = [], []
    for share, fut in zip(shares, futures):
        try:
            if fut is None or fut.cancel():  # the caller's share, or one not started yet
                results.append(None if errors else fn(share))
            else:
                results.append(fut.result())
        except BaseException as exc:  # the other shares still finish before the re-raise
            errors.append(exc)
    if errors:
        wait(futures[1:])  # also after an interrupt that cut a result() wait short
        raise errors[0]
    return results
