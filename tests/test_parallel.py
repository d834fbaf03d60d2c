import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from grenboot import (BIWEIGHT, DEFAULT_L1_RULE, DegenerateEstimateError,
                      EnvelopeError, LimitSimConfig, RngStream,
                      WindowTooSmallError, doubled_scaling_check,
                      estimate_constants, fit_smoothed, l1_band,
                      rejection_sample, sample_from_analytic,
                      smoothed_pointwise_ci, sup_distance,
                      supersample_centering, triangular_density,
                      trunc_exp_density)
from grenboot.experiments import (run_band_coverage, run_inconsistency,
                                  run_l1_clt, run_pointwise_coverage, run_rate)
from grenboot.parallel import InputError, map_indexed


def _assert_no_children():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# InputError too, which the command line reports as a usage error
@pytest.mark.parametrize("error", [DegenerateEstimateError, EnvelopeError,
                                   WindowTooSmallError, InputError])
def test_worker_exception_reaches_caller(error, cheap_forks):
    parent = os.getpid()

    def fn(i):
        # raised only in a worker, so a serial run would not raise at all
        if i == 5 and os.getpid() != parent:
            raise error("replicate %d failed" % i)
        return i

    with pytest.raises(error) as info:
        map_indexed(fn, 8, 2)
    assert type(info.value) is error
    assert str(info.value) == "replicate 5 failed"
    _assert_no_children()


def test_nested_map_runs_in_the_calling_worker(cheap_forks):
    parent = os.getpid()

    def outer(i):
        return os.getpid(), map_indexed(lambda j: os.getpid(), 3, 2)

    results = map_indexed(outer, 4, 2)
    # the parent runs the first contiguous range, one child the second
    assert [pid == parent for pid, _ in results] == [True, True, False, False]
    assert results[2][0] == results[3][0]
    for pid, inner in results:
        assert inner == [pid] * 3
    _assert_no_children()


def test_killed_worker_raises_within_a_second(cheap_forks):
    parent = os.getpid()

    def fn(i):
        # the child holding indices 4 and 5 of 6 dies as the OOM killer
        # would kill it, without raising; the one holding 2 and 3 succeeds
        if i == 5 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    def hung(signum, frame):
        raise TimeoutError("map_indexed waited on a killed worker")

    # a map that waits on the dead child fails here instead of hanging
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(10)
    try:
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="exited without a result"):
            map_indexed(fn, 6, 3)
        assert time.monotonic() - start < 1.0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_children()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_share_error_kills_and_reaps_every_child(error, cheap_forks):
    parent = os.getpid()

    def fn(i):
        # indices 0 and 1 run before the fork, index 2 after it
        if os.getpid() == parent and i == 2:
            raise error("parent share failed")
        if os.getpid() != parent:
            time.sleep(60)
        return i

    start = time.monotonic()
    with pytest.raises(error, match="parent share failed"):
        map_indexed(fn, 9, 3)
    # the sleeping children were killed, not waited for
    assert time.monotonic() - start < 10.0
    _assert_no_children()


class TwoArg(Exception):
    """An exception whose constructor takes two arguments, not a message."""

    def __init__(self, first, second):
        super().__init__(first, second)


def test_worker_exception_without_a_message_constructor(cheap_forks):
    parent = os.getpid()

    def fn(i):
        if i == 5 and os.getpid() != parent:
            raise TwoArg("x", "y")
        return i

    with pytest.raises(RuntimeError, match=r"^TwoArg: \('x', 'y'\)$"):
        map_indexed(fn, 8, 2)
    _assert_no_children()


def test_worker_result_that_pickle_refuses(cheap_forks):
    # a lambda pickles by name, and a local one has none to look up
    with pytest.raises(RuntimeError, match="pickle"):
        map_indexed(lambda i: lambda: i, 8, 2)
    _assert_no_children()


@pytest.fixture
def sigchld_ignored():
    """SIGCHLD ignored, as daemons often set it: the kernel reaps every
    child as it exits, and waitpid finds none."""
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    yield
    signal.signal(signal.SIGCHLD, previous)


def test_map_with_sigchld_ignored(sigchld_ignored, cheap_forks,
                                  counted_forks):
    assert map_indexed(lambda i: i * i, 8, 2) == [i * i for i in range(8)]
    assert len(counted_forks) == 1
    _assert_no_children()


def test_parent_share_error_with_sigchld_ignored(sigchld_ignored,
                                                 cheap_forks):
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent and i == 2:
            raise ValueError("parent share failed")
        if os.getpid() != parent:
            time.sleep(60)
        return i

    start = time.monotonic()
    with pytest.raises(ValueError, match="parent share failed"):
        map_indexed(fn, 9, 3)
    assert time.monotonic() - start < 10.0
    _assert_no_children()


@pytest.mark.parametrize("count, workers",
                         [(0, 3), (1, 3), (2, 4), (3, 4), (11, 3), (50, 3),
                          (7, np.int64(2))])
def test_results_in_index_order(count, workers, cheap_forks, counted_forks):
    assert map_indexed(lambda i: (i, i * i), count, workers) == [
        (i, i * i) for i in range(count)]
    # a fork made all but free: every worker the map may use, at most one
    # per two indices, is a child but the caller
    assert len(counted_forks) == max(min(count // 2, workers) - 1, 0)
    _assert_no_children()


def test_runs_serially_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    parent = os.getpid()
    assert map_indexed(lambda i: os.getpid(), 5, 3) == [parent] * 5


@pytest.mark.parametrize("threads", [2, 64])
def test_trivial_map_forks_no_child(threads, monkeypatch):
    # the fork cost as shipped: a map of microseconds stays in-process, and
    # a fork here would raise instead of starting a child
    def no_fork():
        raise AssertionError("a trivial map forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_indexed(lambda i: i * i, 128, threads) == [
        i * i for i in range(128)]


def test_index_0_is_not_timed(monkeypatch):
    # index 0 builds for 50 ms what the rest reuse, and the rest take
    # microseconds: timed from index 1, the map stays in-process
    def no_fork():
        raise AssertionError("a map of microseconds forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert map_indexed(lambda i: time.sleep(0.05 * (i == 0)) or i, 64,
                       4) == list(range(64))


def test_a_long_map_forks(counted_forks):
    # 20 replicates of 5 ms with the shipped cost: T / c is about 7, so
    # three workers would pay, capped at 2
    assert map_indexed(lambda i: time.sleep(0.005) or i, 20, 2) == list(
        range(20))
    assert len(counted_forks) == 1
    _assert_no_children()


@pytest.mark.parametrize("bad", [0, -3, 2.0, "2", None, True])
def test_worker_count_must_be_an_integer_at_least_one(bad):
    with pytest.raises(ValueError, match="worker count"):
        map_indexed(lambda i: i, 4, bad)


_TRI = triangular_density()
_DATA = sample_from_analytic(_TRI, 60, RngStream(38))
_SMOOTH = fit_smoothed(_DATA, BIWEIGHT, DEFAULT_L1_RULE)

# (name, least, ok, run): run(v, constants) calls an entry point with the
# count v and returns the count as the result records it, or the result
# where it records none; ok is a cheap accepted value
_COUNTS = {
    "sample_from_analytic": ("n", 1, 5, lambda v, c: sample_from_analytic(
        _TRI, v, RngStream(1)).n),
    "rejection_sample": ("n", 1, 5, lambda v, c: rejection_sample(
        _SMOOTH, v, RngStream(1)).n),
    "bandwidth": ("n", 1, 5, lambda v, c: DEFAULT_L1_RULE.bandwidth(v)),
    "pointwise_ci": ("n_boot", 20, 20, lambda v, c: smoothed_pointwise_ci(
        _DATA, 0.5, n_boot=v, rng=RngStream(1)).n_boot),
    "l1_band-n_boot": ("n_boot", 50, 50, lambda v, c: l1_band(
        _DATA, n_boot=v, m=600, rng=RngStream(1)).n_boot),
    "l1_band-m": ("supersample size m", 600, 600, lambda v, c: l1_band(
        _DATA, n_boot=50, m=v, rng=RngStream(1)).m),
    "supersample_centering": ("supersample size m", 61, 61,
                              lambda v, c: supersample_centering(
                                  _SMOOTH, v, RngStream(1))),
    "sup_distance": ("grid_size", 2, 2, lambda v, c: sup_distance(
        _SMOOTH, _TRI, v)),
    "run_pointwise_coverage": ("replicates", 1, 1, lambda v, c:
                               run_pointwise_coverage(
                                   _TRI, n=60, replicates=v, n_boot=20,
                                   rng=RngStream(1))[0]["replicates"]),
    "run_band_coverage": ("replicates", 1, 1, lambda v, c: run_band_coverage(
        _TRI, n=60, replicates=v, n_boot=50, m=600,
        rng=RngStream(1))[0]["replicates"]),
    "run_inconsistency-replicates": ("replicates", 2, 2, lambda v, c:
                                     run_inconsistency(
                                         _TRI, c, n=60, replicates=v,
                                         rng=RngStream(1))[0]["replicates"]),
    "run_inconsistency-n": ("n", 2, 20, lambda v, c: run_inconsistency(
        _TRI, c, n=v, replicates=20, rng=RngStream(1))[0]["n"]),
    "run_rate-replicates": ("replicates", 1, 1, lambda v, c: run_rate(
        _TRI, n_grid=(30, 60), replicates=v, grid_size=101,
        rng=RngStream(1))[0]["replicates"]),
    "run_rate-n_grid": ("each n_grid size", 1, 30, lambda v, c: run_rate(
        _TRI, n_grid=(v, 60), replicates=1, grid_size=101,
        rng=RngStream(1))[0]["n_grid"][0]),
    "run_l1_clt": ("replicates", 2, 2, lambda v, c: run_l1_clt(
        _TRI, c, n=60, replicates=v, rng=RngStream(1))[0]["replicates"]),
    "doubled_scaling_check": ("the scaling check's n_paths", 2, 2,
                              lambda v, c: doubled_scaling_check(
                                  v, 0.05, 2.0, RngStream(1))["n_paths"]),
    "LimitSimConfig-n_paths": ("n_paths", 4, 4, lambda v, c: LimitSimConfig(
        n_paths=v, n_batches=2)),
    "LimitSimConfig-n_batches": ("n_batches", 2, 2, lambda v, c:
                                 LimitSimConfig(n_batches=v)),
    "map_indexed-count": ("count", 0, 3, lambda v, c: len(map_indexed(
        lambda i: i, v, 2))),
    "map_indexed-workers": ("the worker count", 1, 1, lambda v, c: map_indexed(
        lambda i: i, 3, v)),
}


@pytest.mark.parametrize("site", sorted(_COUNTS))
def test_every_count_is_an_integer_at_least_its_minimum(site, limit_constants):
    name, least, ok, run = _COUNTS[site]
    message = r"^%s must be an integer >= %d, got " % (re.escape(name), least)
    for bad in (2.5, True, least - 1):
        with pytest.raises(ValueError, match=message + re.escape(repr(bad))):
            run(bad, limit_constants)
    recorded = run(np.int64(ok), limit_constants)
    if isinstance(recorded, (int, np.integer)):
        assert type(recorded) is int and recorded == ok


def _constants(threads, limit_constants):
    config = LimitSimConfig(step=0.02, window=2.0, n_paths=120, lag_max=3.0,
                            lag_step=0.5, n_batches=10)
    return estimate_constants(config, RngStream(31), threads=threads).to_dict()


def _scaling(threads, limit_constants):
    return doubled_scaling_check(60, 0.02, 2.0, RngStream(32), threads=threads)


def _pointwise(threads, limit_constants):
    return run_pointwise_coverage(triangular_density(), n=60, replicates=3,
                                  n_boot=25, rng=RngStream(33), threads=threads)


def _band(threads, limit_constants):
    return run_band_coverage(triangular_density(), n=100, replicates=3,
                             n_boot=50, m=1200, rng=RngStream(34),
                             threads=threads)


def _inconsistency(threads, limit_constants):
    return run_inconsistency(triangular_density(), limit_constants, n=100,
                             replicates=20, rng=RngStream(35), threads=threads)


def _rate(threads, limit_constants):
    return run_rate(triangular_density(), n_grid=(200, 400), replicates=3,
                    grid_size=201, rng=RngStream(36), threads=threads)


def _l1_clt(threads, limit_constants):
    return run_l1_clt(trunc_exp_density(), limit_constants, n=100,
                      replicates=20, rng=RngStream(37), threads=threads)


@pytest.mark.parametrize("run", [_constants, _scaling, _pointwise, _band,
                                 _inconsistency, _rate, _l1_clt],
                         ids=lambda f: f.__name__.strip("_"))
def test_result_independent_of_worker_count(run, limit_constants,
                                            cheap_forks):
    assert run(1, limit_constants) == run(3, limit_constants)


def test_cli_import_loads_no_pool_module():
    # scipy.optimize may itself load concurrent.futures (numpy.testing does),
    # so the check is on what grenboot adds to its dependencies
    code = ("import sys, numpy.polynomial, scipy.interpolate, scipy.optimize; "
            "before = set(sys.modules); import grenboot.cli; "
            "added = set(sys.modules) - before; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in added), 'multiprocessing' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    assert r.stdout.strip() == "[] False"
