"""Deterministic fan-out of independent replicates over worker processes.

``map_indexed`` runs in-process for one worker. For more, it forks a pool
of worker processes, and ``Pool.map`` hands each a few contiguous chunks of
indices. Forking passes the mapped function to the children as it stands,
closures included, so only the indices, the results and any exception
are pickled. A ``map_indexed`` called inside a worker runs serially
there. Where ``fork`` is not available the map runs serially. A fork
copies only the calling thread, so the caller's other threads must hold no
lock that the mapped function takes; the package itself starts no threads.
"""

import operator
import threading

__all__ = ["map_indexed"]

# held while a pool runs; a forked child inherits it held, so a nested
# map_indexed (or one from another thread of the caller) runs serially
_busy = threading.Lock()
# the mapped function, set before the pool forks so the children inherit it
_fn = None


def _call(i):
    return _fn(i)


def _count(value, name, least):
    """``value`` as an int, when it is an integer (not a bool) >= ``least``;
    ValueError naming ``name`` otherwise. Every count of replicates,
    samples, paths or workers that the package takes passes through it."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if isinstance(value, bool) or count is None or count < least:
        raise ValueError("%s must be an integer >= %d, got %r"
                         % (name, least, value))
    return count


def map_indexed(fn, count, threads=1):
    """Evaluate ``fn(i)`` for i in range(count), results in index order.

    ``count`` is an integer >= 0 and ``threads``, the number of worker
    processes, an integer >= 1 (ValueError otherwise); with one worker,
    ``fn`` runs in the calling process.
    Each unit of work must derive all of its randomness from its own index
    (via a substream keyed by i), so the result list is identical for every
    worker count. An exception raised by ``fn`` in a worker reaches the
    caller with its type and message.
    """
    count = _count(count, "count", 0)
    workers = _count(threads, "the worker count", 1)
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not _busy.acquire(blocking=False)):
        return [fn(i) for i in range(count)]
    global _fn
    _fn = fn
    try:
        context = multiprocessing.get_context("fork")
        with context.Pool(min(workers, count)) as pool:
            # the default chunk size, ceil(count / (4 * workers)), makes
            # about 4 contiguous chunks per worker: several, so one that
            # finishes early takes another; few, so each hand-off carries
            # many replicates
            return pool.map(_call, range(count))
    finally:
        _fn = None
        _busy.release()
