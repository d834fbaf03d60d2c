import os
import subprocess
import sys

import numpy as np
import pytest

from grenboot import (DegenerateEstimateError, EnvelopeError, LimitSimConfig,
                      RngStream, WindowTooSmallError, doubled_scaling_check,
                      estimate_constants, triangular_density,
                      trunc_exp_density)
from grenboot.experiments import (run_band_coverage, run_inconsistency,
                                  run_l1_clt, run_pointwise_coverage, run_rate)
from grenboot.parallel import map_indexed


@pytest.mark.parametrize("error", [DegenerateEstimateError, EnvelopeError,
                                   WindowTooSmallError])
def test_worker_exception_reaches_caller(error):
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


def test_nested_map_runs_in_the_calling_worker():
    parent = os.getpid()

    def outer(i):
        return os.getpid(), map_indexed(lambda j: os.getpid(), 3, 2)

    for pid, inner in map_indexed(outer, 4, 2):
        assert pid != parent
        assert inner == [pid] * 3


@pytest.mark.parametrize("count, workers",
                         [(0, 3), (1, 3), (2, 4), (3, 4), (11, 3), (50, 3),
                          (7, np.int64(2))])
def test_results_in_index_order(count, workers):
    assert map_indexed(lambda i: (i, i * i), count, workers) == [
        (i, i * i) for i in range(count)]


def test_runs_serially_without_fork(monkeypatch):
    import multiprocessing
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    parent = os.getpid()
    assert map_indexed(lambda i: os.getpid(), 5, 3) == [parent] * 5


@pytest.mark.parametrize("bad", [0, -3, 2.0, "2", None, True])
def test_worker_count_must_be_an_integer_at_least_one(bad):
    with pytest.raises(ValueError, match="worker count"):
        map_indexed(lambda i: i, 4, bad)


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
def test_result_independent_of_worker_count(run, limit_constants):
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
