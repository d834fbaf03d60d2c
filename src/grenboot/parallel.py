"""Deterministic fan-out of independent replicates over worker processes.

``map_indexed`` runs in-process for one worker. For more, it runs indices 0
and 1, keeps only the workers that the time of index 1 pays for
(``_FORK_SECONDS``), at most one per two indices, cuts the indices into one
contiguous range per worker, forks a child for every range but the first,
and runs the first itself. Indices 0 and 1 run before any fork: the children
inherit what they built, and an error they raise ends the map before any
child exists. Forking hands the mapped function to the children as it
stands, closures included. Each child pickles its results, or its
exception's type and message, into a pipe of its own and exits; the parent
reads the pipes in order. A child that dies without writing leaves its pipe
empty, and the parent raises. When the parent's own range raises, Ctrl-C
included, every child is killed and reaped first. Where the caller ignores
SIGCHLD, the kernel reaps each child itself. A ``map_indexed`` called
inside a worker, the parent's range included, runs serially there. Where
``fork`` is not available the map runs serially. A fork copies only the
calling thread, so the caller's other threads must hold no lock that the
mapped function takes; the package itself starts no threads.
"""

import operator
import os
import pickle
import signal
import sys
import threading
import time

__all__ = ["map_indexed"]

# held while a fan-out runs; a forked child inherits it held, so a nested
# map_indexed (or one from another thread of the caller) runs serially
_busy = threading.Lock()

# one forked child's cost to a run, in seconds, fitted on 2 CPUs. W workers
# take W of these plus T/W for serial time T: least for W(W-1) <= T/c < W(W+1)
_FORK_SECONDS = 0.015


class InputError(ValueError):
    """A value that the caller passed is out of its domain. The message
    starts with the parameter's name; the command line swaps that name for
    its flag. It lives here, beside ``_count``, so that this module stays
    stdlib-only, and it keeps a one-message constructor, with which
    ``_receive`` rebuilds it from a forked worker."""


def _count(value, name, least):
    """``value`` as an int, when it is an integer (not a bool) >= ``least``;
    InputError naming ``name`` otherwise. Every count of replicates,
    samples, paths or workers, and every seed, that the package takes
    passes through it."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if isinstance(value, bool) or count is None or count < least:
        raise InputError("%s must be an integer >= %d, got %r"
                         % (name, least, value))
    return count


def _child(fn, indices, fd):
    """In a forked child: write ``fn``'s results over ``indices``, or the
    type and message of what it raised, to the pipe ``fd``; never returns."""
    try:
        try:
            payload = (True, [fn(i) for i in indices])
        except BaseException as e:   # Ctrl-C too: the parent raises it
            payload = (False, (type(e), str(e)))
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        except Exception as e:   # a result or an exception type pickle refuses
            data = pickle.dumps((False, (RuntimeError, "%s: %s"
                                         % (type(e).__name__, e))))
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _receive(pid, pipe):
    """The results the child ``pid`` wrote to ``pipe``, read to its end; the
    child's exception is raised again with its type and message."""
    try:
        ok, value = pickle.loads(pipe.read())
    except Exception:   # an empty pipe, or one cut off by the child's death
        raise RuntimeError("worker process %d exited without a result"
                           % pid) from None
    if ok:
        return value
    error, message = value
    try:
        exc = error(message)
    except Exception:   # a constructor that takes more than a message
        exc = RuntimeError("%s: %s" % (error.__name__, message))
    raise exc


def _fan_out(fn, count, workers):
    results = [fn(0)]   # may build what the rest reuse, so it is not timed
    start = time.perf_counter()
    results.append(fn(1))
    serial = count * (time.perf_counter() - start)   # T, from index 1
    workers = min(workers, int(0.5 + (0.25 + serial / _FORK_SECONDS) ** 0.5))
    bounds = [count * w // workers for w in range(workers + 1)]
    sys.stdout.flush()
    sys.stderr.flush()
    children = {}   # pid -> read end of its pipe, until the child is reaped
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _child(fn, range(bounds[w], bounds[w + 1]), write)
            # closed before the next fork, so that only this child holds it
            # and its death ends the pipe
            os.close(write)
            children[pid] = os.fdopen(read, "rb")
        results += [fn(i) for i in range(2, bounds[1])]
        for pid in list(children):
            results += _receive(pid, children[pid])
            children.pop(pid).close()
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:   # reaped already: SIGCHLD is ignored
                pass
        return results
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):   # reaped already
                pass


def map_indexed(fn, count, threads=1):
    """Evaluate ``fn(i)`` for i in range(count), results in index order.

    ``count`` is an integer >= 0 and ``threads``, the most worker processes
    the map may use, an integer >= 1 (ValueError otherwise); with one,
    ``fn`` runs in the calling process, and with more, the calling process
    runs indices 0 and 1, then forks the workers that index 1's time pays for.
    Each unit of work must derive all of its randomness from its own index
    (via a substream keyed by i), so the result list is identical for every
    worker count. An exception raised by ``fn`` in a worker reaches the
    caller with its type and message; a worker that dies without a result
    raises RuntimeError.
    """
    count = _count(count, "count", 0)
    workers = min(_count(threads, "the worker count", 1), count // 2)
    if (workers <= 1 or not hasattr(os, "fork")
            or not _busy.acquire(blocking=False)):
        return [fn(i) for i in range(count)]
    try:
        return _fan_out(fn, count, workers)
    finally:
        _busy.release()
