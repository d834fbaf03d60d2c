"""Deterministic fan-out of independent replicates over worker threads."""

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["default_threads", "map_indexed"]


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

    Each unit of work must derive all of its randomness from its own index
    (via a substream keyed by i), so the result list is identical for every
    thread count and schedule.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=int(threads)) as pool:
        return list(pool.map(fn, range(count)))
