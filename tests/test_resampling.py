import numpy as np
import pytest
from scipy import stats

from grenboot import (EPANECHNIKOV, EnvelopeError, RngStream, Sample,
                      SmoothedDensity, envelope_bound, fit_smoothed,
                      multinomial_bootstrap, rejection_sample,
                      sample_from_analytic, subsample_without_replacement,
                      triangular_density, uniform_density)


# -- RngStream -----------------------------------------------------------------


def test_stream_determinism():
    a = RngStream(123).gen.uniform(size=8)
    b = RngStream(123).gen.uniform(size=8)
    assert np.array_equal(a, b)


def test_substream_paths_distinct():
    root = RngStream(9)
    a = root.substream(0).gen.uniform(size=4)
    b = root.substream(1).gen.uniform(size=4)
    assert not np.array_equal(a, b)


def test_substream_path_reproducible():
    x = RngStream(7).substream(3, 1).gen.uniform()
    y = RngStream(7).substream(3, 1).gen.uniform()
    assert x == y


def test_substream_rejects_bad_indices():
    with pytest.raises(ValueError):
        RngStream(1).substream(-2)


def test_sibling_substreams_uncorrelated():
    root = RngStream(99)
    a = np.empty(10000)
    b = np.empty(10000)
    for i in range(10000):
        a[i] = root.substream(i, 0).gen.uniform()
        b[i] = root.substream(i, 1).gen.uniform()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


# -- synthetic data ---------------------------------------------------------------


def test_triangular_inverse_cdf_endpoints():
    tri = triangular_density()
    assert tri.ppf(0.0) == 0.0
    assert abs(tri.ppf(1.0) - 1.0) < 1e-12
    u = 0.64
    assert abs(tri.ppf(u) - (1 - np.sqrt(1 - u))) < 1e-14


def test_uniform_inverse_is_identity():
    uni = uniform_density()
    u = np.linspace(0, 1, 11)
    assert np.allclose(uni.ppf(u), u)


def test_sample_from_analytic_ks():
    tri = triangular_density()
    passes = 0
    for seed in range(100):
        s = sample_from_analytic(tri, 10000, RngStream(20000 + seed))
        stat = stats.kstest(s.values, tri.cdf).statistic
        crit = stats.kstwobign.ppf(0.99) / np.sqrt(10000)
        passes += stat < crit
    assert passes >= 98


# -- multinomial bootstrap ---------------------------------------------------------


def test_bootstrap_single_point():
    s = Sample([0.3])
    bs = multinomial_bootstrap(s, RngStream(4))
    assert np.array_equal(bs.values, [0.3])


def test_bootstrap_values_subset():
    s = sample_from_analytic(triangular_density(), 40, RngStream(8))
    bs = multinomial_bootstrap(s, RngStream(9))
    assert bs.n == s.n
    assert np.all(np.isin(bs.values, s.values))


def test_bootstrap_inclusion_frequency():
    n = 50
    s = Sample(np.linspace(0.01, 0.99, n))
    root = RngStream(10)
    freq = np.zeros(n)
    reps = 10000
    for r in range(reps):
        bs = multinomial_bootstrap(s, root.substream(r))
        freq += np.isin(s.values, bs.values)
    theory = 1 - (1 - 1 / n) ** n
    assert abs(freq.mean() / reps - theory) < 0.02


# -- subsampling --------------------------------------------------------------------


def test_subsample_full_size_is_identity():
    s = sample_from_analytic(triangular_density(), 25, RngStream(11))
    sub = subsample_without_replacement(s, 25, RngStream(12))
    assert np.array_equal(sub.values, s.values)


def test_subsample_zero_rejected():
    s = Sample([0.2, 0.8])
    with pytest.raises(ValueError):
        subsample_without_replacement(s, 0, RngStream(1))
    with pytest.raises(ValueError):
        subsample_without_replacement(s, 3, RngStream(1))


def test_subsample_single_uniform():
    n = 8
    s = Sample(np.linspace(0.1, 0.9, n))
    root = RngStream(13)
    counts = np.zeros(n)
    reps = 10000
    for r in range(reps):
        v = subsample_without_replacement(s, 1, root.substream(r)).values[0]
        counts[np.searchsorted(s.values, v)] += 1
    p = 1 / n
    sigma = np.sqrt(reps * p * (1 - p))
    assert np.all(np.abs(counts - reps * p) < 3 * sigma + 1e-9)


# -- rejection sampling ---------------------------------------------------------------


class _FlatTarget:
    """Stand-in smoothed density whose positive part is constant."""

    def __init__(self, c):
        self.c = c
        self.quad_breakpoints = np.array([0.0, 1.0])

    def extended(self, t, order=0):
        t = np.asarray(t, dtype=float)
        if order == 0:
            return np.full(t.shape, self.c)
        return np.zeros(t.shape)


def test_rejection_flat_target_tight_envelope():
    # constant target: the grid envelope is tight, so acceptance is ~1 and
    # exactly n proposals are consumed in the first batch
    target = _FlatTarget(1.0)
    target.envelope = 1.0
    s = rejection_sample(target, 500, RngStream(14))
    assert s.n == 500


def test_rejection_flat_target_slack_envelope_half_rate():
    target = _FlatTarget(1.0)
    target.envelope = 2.0
    root = RngStream(15)
    # acceptance indicator is u <= 1 with u ~ U(0, 2): empirical rate near 1/2
    accepted = rejection_sample(target, 4000, root)
    assert accepted.n == 4000


def test_envelope_flat_function_tight():
    target = _FlatTarget(0.7)
    m = envelope_bound(target)
    assert 0.7 <= m < 0.7 + 1e-6


def test_envelope_dominates_everywhere():
    s = sample_from_analytic(triangular_density(), 60, RngStream(16))
    sd = SmoothedDensity(s, EPANECHNIKOV, 0.15)
    m = envelope_bound(sd)
    t = RngStream(17).gen.uniform(size=100000)
    assert np.all(np.maximum(sd.extended(t), 0.0) <= m)


def test_envelope_single_point_peak():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert envelope_bound(sd) >= 3.75


def test_rejection_matches_smoothed_law():
    s = sample_from_analytic(triangular_density(), 500, RngStream(18))
    sd = fit_smoothed(s)
    draws = rejection_sample(sd, 10000, RngStream(19))
    stat = stats.kstest(draws.values, sd.cdf).statistic
    crit = stats.kstwobign.ppf(0.99) / np.sqrt(10000)
    assert stat < crit


def test_rejection_broken_envelope_raises():
    target = _FlatTarget(1e-7)
    target.envelope = 10.0   # acceptance rate 1e-8, far below the floor
    with pytest.raises(EnvelopeError):
        rejection_sample(target, 50, RngStream(20))


def test_rejection_deterministic():
    s = sample_from_analytic(triangular_density(), 200, RngStream(21))
    sd = fit_smoothed(s)
    a = rejection_sample(sd, 300, RngStream(22))
    b = rejection_sample(sd, 300, RngStream(22))
    assert np.array_equal(a.values, b.values)
