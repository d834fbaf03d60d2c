import os

import pytest

from grenboot import LimitSimConfig, RngStream, estimate_constants, parallel


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run tests marked slow (extended acceptance suite)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def cheap_forks(monkeypatch):
    """Make a fork look all but free to ``map_indexed``, so that a map of
    however little work forks every worker it may use. The tests that check
    the fork mechanism take it in place of a larger map, or a patched CPU
    count."""
    monkeypatch.setattr(parallel, "_FORK_SECONDS", 1e-12)


@pytest.fixture
def counted_forks(monkeypatch):
    """The list of forks made from here on, one entry per child, appended
    in the parent before it forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture(scope="session")
def limit_constants():
    """Moderate-scale limit constants shared across the fast suite.

    Accurate to a couple of percent; the acceptance checks that need the
    full-scale constants run their own simulation.
    """
    config = LimitSimConfig(step=0.005, window=2.5, n_paths=4000,
                            lag_max=6.0, lag_step=0.25, n_batches=20)
    return estimate_constants(config, RngStream(90001), threads=4)


@pytest.fixture(scope="session")
def acceptance_constants():
    """Full-scale limit constants for the acceptance criteria."""
    config = LimitSimConfig(step=0.002, window=3.0, n_paths=20000,
                            lag_max=8.0, lag_step=0.25, n_batches=20)
    return estimate_constants(config, RngStream(90002), threads=4)
