"""Deterministic fan-out of independent replicates over worker processes.

``map_indexed`` runs in-process for one worker. For more, it forks a pool
of worker processes and hands each a few contiguous chunks of indices.
Forking passes the mapped function to the children as it stands, closures
included, so nothing but the results (and any exception) is pickled. A
``map_indexed`` called inside a worker runs serially there. Where ``fork``
is not available the map runs serially. A fork copies only the calling
thread, so the caller's other threads must hold no lock that the mapped
function takes; the package itself starts no threads.
"""

import operator
import os
import threading

__all__ = ["default_threads", "map_indexed"]

# contiguous chunks per worker: several, so a worker that finishes early
# takes another; few, so each hand-off carries many replicates
_CHUNKS_PER_WORKER = 4

# held while a pool runs; a forked child inherits it held, so a nested
# map_indexed (or one from another thread of the caller) runs serially
_busy = threading.Lock()
# the mapped function, set before the pool forks so the children inherit it
_fn = None


def _run_chunk(bounds):
    lo, hi = bounds
    return [_fn(i) for i in range(lo, hi)]


def default_threads():
    """Worker count from the GRENBOOT_THREADS environment variable: 1 when it
    is unset or empty, else it must be a positive integer (ValueError)."""
    raw = os.environ.get("GRENBOOT_THREADS", "")
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError("GRENBOOT_THREADS must be a positive integer, got %r"
                         % raw)
    return threads


def map_indexed(fn, count, threads=1):
    """Evaluate ``fn(i)`` for i in range(count), results in index order.

    ``threads`` is the number of worker processes, an integer >= 1
    (ValueError otherwise); with one, ``fn`` runs in the calling process.
    Each unit of work must derive all of its randomness from its own index
    (via a substream keyed by i), so the result list is identical for every
    worker count. An exception raised by ``fn`` in a worker reaches the
    caller with its type and message.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    try:
        workers = operator.index(threads)
    except TypeError:
        workers = 0
    if isinstance(threads, bool) or workers < 1:
        raise ValueError("the worker count must be an integer >= 1, got %r"
                         % (threads,))
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or not _busy.acquire(blocking=False)):
        return [fn(i) for i in range(count)]
    global _fn
    _fn = fn
    try:
        n_chunks = min(count, _CHUNKS_PER_WORKER * workers)
        cuts = [count * k // n_chunks for k in range(n_chunks + 1)]
        context = multiprocessing.get_context("fork")
        with context.Pool(min(workers, count)) as pool:
            chunks = pool.map(_run_chunk, zip(cuts[:-1], cuts[1:]),
                              chunksize=1)
    finally:
        _fn = None
        _busy.release()
    return [result for chunk in chunks for result in chunk]
