import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.interpolate import PPoly

from grenboot import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                      EPANECHNIKOV, DegenerateEstimateError, EnvelopeError,
                      Kernel, RngStream, Sample, SmoothedDensity,
                      fit_smoothed, multinomial_bootstrap, rejection_sample,
                      sample_from_analytic, triangular_density,
                      trunc_exp_density, uniform_density)
from grenboot.resampling import _CELLS, _sampler_table
from .oracles import every_proposal_sample


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


def test_stream_repr():
    assert (repr(RngStream(3).substream(1, 2))
            == "RngStream(seed=3, path=(1, 2))")


def test_substream_rejects_bad_indices():
    with pytest.raises(ValueError):
        RngStream(1).substream(-2)


def test_stream_rejects_negative_seed():
    # at construction, not at the first draw
    with pytest.raises(ValueError, match="seed must be an integer >= 0, "
                                         "got -1"):
        RngStream(-1)


@pytest.mark.parametrize("seed", [2.7, True, float("nan")])
def test_stream_rejects_a_seed_that_is_no_integer(seed):
    # 2.7 used to draw seed 2's stream, and True seed 1's
    with pytest.raises(ValueError, match="seed must be an integer >= 0, "
                                         "got " + re.escape(repr(seed))):
        RngStream(seed)


def test_substream_rejects_an_index_that_is_no_integer():
    # 1.9 used to give the path (1,)
    with pytest.raises(ValueError, match=r"path index must be an integer "
                                         r">= 0, got 1\.9"):
        RngStream(1).substream(1.9)
    assert RngStream(np.int64(7), (np.int64(3),)).substream(1).path == (3, 1)


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


# -- rejection sampling ---------------------------------------------------------------


class _FlatTarget:
    """Stand-in smoothed density that is the constant c, drawn under the
    constant ``envelope``."""

    def __init__(self, c, envelope):
        self.quad_breakpoints = np.array([0.0, 1.0])
        self.ppoly = PPoly([[c]], self.quad_breakpoints)
        # per-cell bounds of the target for the sampler's squeeze: c itself,
        # widened by a margin, on each of the sampler's cells
        self.sampler_table = (envelope, np.full(_CELLS, c * (1.0 - 1e-9)),
                              np.full(_CELLS, c * (1.0 + 1e-9)))


def test_rejection_flat_target_tight_envelope():
    # constant target: the grid envelope is tight, so acceptance is ~1 and
    # exactly n proposals are consumed in the first batch
    target = _FlatTarget(1.0, 1.0)
    s = rejection_sample(target, 500, RngStream(14))
    assert s.n == 500


def test_rejection_flat_target_slack_envelope_half_rate():
    target = _FlatTarget(1.0, 2.0)
    root = RngStream(15)
    # acceptance indicator is u <= 1 with u ~ U(0, 2): empirical rate near 1/2
    accepted = rejection_sample(target, 4000, root)
    assert accepted.n == 4000


def test_envelope_flat_function_tight():
    envelope, lo, hi = _sampler_table(_FlatTarget(0.7, None))
    assert 0.7 <= envelope < 0.7 + 1e-6
    assert np.all((lo <= 0.7) & (0.7 <= hi) & (hi - lo < 1e-6))


def test_envelope_of_a_zero_target_raises():
    with pytest.raises(ValueError,
                       match=r"^degenerate rejection envelope 0\.0$"):
        _sampler_table(_FlatTarget(0.0, None))


def test_envelope_dominates_everywhere():
    s = sample_from_analytic(triangular_density(), 60, RngStream(16))
    sd = SmoothedDensity(s, EPANECHNIKOV, 0.15)
    m = sd.sampler_table[0]
    t = RngStream(17).gen.uniform(size=100000)
    assert np.all(sd.pdf(t) <= m)


def test_envelope_single_point_peak():
    # the kernel's support lies inside [h, 1 - h], so the mass is 1 and the
    # peak is K(0) / h
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert abs(sd.pdf(0.5) - 3.75) < 1e-14
    assert sd.sampler_table[0] >= sd.pdf(0.5)


def test_rejection_matches_smoothed_law():
    s = sample_from_analytic(triangular_density(), 500, RngStream(18))
    sd = fit_smoothed(s)
    draws = rejection_sample(sd, 10000, RngStream(19))
    stat = stats.kstest(draws.values, sd.cdf).statistic
    crit = stats.kstwobign.ppf(0.99) / np.sqrt(10000)
    assert stat < crit


def test_rejection_broken_envelope_raises():
    # acceptance rate 1e-8, far below the floor
    target = _FlatTarget(1e-7, 10.0)
    with pytest.raises(EnvelopeError):
        rejection_sample(target, 50, RngStream(20))


def test_rejection_deterministic():
    s = sample_from_analytic(triangular_density(), 200, RngStream(21))
    sd = fit_smoothed(s)
    a = rejection_sample(sd, 300, RngStream(22))
    b = rejection_sample(sd, 300, RngStream(22))
    assert np.array_equal(a.values, b.values)


_TRI_1000 = sample_from_analytic(triangular_density(), 1000, RngStream(23))

SQUEEZE_CASES = {
    "epanechnikov": lambda: SmoothedDensity(
        _TRI_1000, EPANECHNIKOV, DEFAULT_POINTWISE_RULE.bandwidth(1000)),
    "biweight": lambda: SmoothedDensity(
        _TRI_1000, BIWEIGHT, DEFAULT_L1_RULE.bandwidth(1000)),
    "single_point": lambda: SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2),
    # the right extension crosses zero at about 0.867
    "zero_crossing": lambda: SmoothedDensity(
        Sample(np.linspace(0.05, 0.7, 40)), BIWEIGHT, 0.2),
}


@pytest.mark.parametrize("case", sorted(SQUEEZE_CASES))
def test_rejection_squeeze_matches_every_proposal_oracle(case):
    sd = SQUEEZE_CASES[case]()
    if case == "zero_crossing":
        assert sd.quad_breakpoints.size == 5
    for seed in range(24, 28):
        for n in (1, 1000):
            ours = rejection_sample(sd, n, RngStream(seed, (n,)))
            oracle = every_proposal_sample(sd, n, RngStream(seed, (n,)))
            assert np.array_equal(ours.values, oracle.values), (seed, n)


def test_rejection_squeeze_matches_oracle_at_supersample_size():
    # the band's default supersample size, which takes several batches
    sd = SQUEEZE_CASES["biweight"]()
    ours = rejection_sample(sd, 31623, RngStream(28))
    oracle = every_proposal_sample(sd, 31623, RngStream(28))
    assert np.array_equal(ours.values, oracle.values)


# dips below zero, so the raw estimate can go negative inside [h, 1-h]
FOURTH_ORDER = Kernel("fourth_order", [45 / 32, 0.0, -150 / 32, 0.0, 105 / 32])


@st.composite
def squeeze_smoothers(draw):
    """Smoothers with n from 1 to 400 and h from 0.01 to 0.5, on triangular
    or trunc-exp data, some rounded to 2 or 3 decimals so ties are common."""
    n = draw(st.integers(1, 400))
    density = draw(st.sampled_from([triangular_density(),
                                    trunc_exp_density(2.0)]))
    seed = draw(st.integers(0, 10 ** 6))
    values = sample_from_analytic(density, n, RngStream(seed)).values
    decimals = draw(st.sampled_from([None, 2, 3]))
    if decimals is not None:
        values = np.round(values, decimals)
    kernel = draw(st.sampled_from([EPANECHNIKOV, BIWEIGHT, FOURTH_ORDER]))
    h = draw(st.floats(0.01, 0.5))
    try:
        return SmoothedDensity(Sample(values), kernel, h)
    except DegenerateEstimateError:
        assume(False)


@given(squeeze_smoothers(),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_squeeze_brackets_target(sd, extra):
    # random points, every knot of the smoother and the point just below
    # it, and every cell edge: the sampler draws t from [0, 1)
    knots = sd.ppoly.x
    t = np.concatenate([extra, RngStream(30).gen.uniform(size=5000), knots,
                        np.nextafter(knots[1:], 0.0),
                        np.arange(_CELLS) / _CELLS])
    t = t[t < 1.0]
    _, lo, hi = sd.sampler_table
    k = (t * _CELLS).astype(int)
    target = sd.pdf(t)
    assert np.all(lo[k] <= target)
    assert np.all(target <= hi[k])
