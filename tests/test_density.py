import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PPoly

from grenboot import (BIWEIGHT, DEFAULT_L1_RULE, EPANECHNIKOV,
                      AnalyticDensity, DegenerateEstimateError, RngStream,
                      Sample, StepDensity, density, fit_smoothed,
                      grenander_fit, l1_distance, l1_shape_integral,
                      multinomial_bootstrap, rate_constant,
                      sample_from_analytic, sup_distance, triangular_density,
                      trunc_exp_density, uniform_density)
from .oracles import (brute_force_grenander_heights, hull_majorant,
                      l1_to_step, reexpand, two_sided_sup_distance,
                      unique_grenander)

unit_floats = st.floats(0.001, 1.0, allow_nan=False, allow_infinity=False)


# -- Sample ------------------------------------------------------------------


def test_sample_sorts_and_freezes():
    s = Sample([0.9, 0.1, 0.5])
    assert np.all(np.diff(s.values) >= 0)
    with pytest.raises(ValueError):
        s.values[0] = 0.3


def test_sample_len_and_repr():
    s = Sample([0.9, 0.1, 0.5])
    assert len(s) == 3
    assert repr(s) == "Sample(n=3, min=0.1, max=0.9)"


def test_sample_rejects_out_of_range():
    with pytest.raises(ValueError):
        Sample([0.5, 1.2])
    with pytest.raises(ValueError):
        Sample([-0.1])
    with pytest.raises(ValueError):
        Sample([np.nan, 0.3])


# -- Grenander fit -------------------------------------------------------------


def test_grenander_two_point_heights():
    fit = grenander_fit(Sample([0.25, 0.75]))
    assert np.allclose(fit.breakpoints, [0.25, 0.75, 1.0])
    assert np.allclose(fit.heights, [2.0, 1.0, 0.0])


def test_grenander_merged_step():
    fit = grenander_fit(Sample([0.5, 0.6]))
    assert np.allclose(fit.breakpoints, [0.6, 1.0])
    assert np.allclose(fit.heights, [5 / 3, 0.0])


@given(unit_floats)
@settings(max_examples=50, deadline=None)
def test_grenander_single_point(x):
    fit = grenander_fit(Sample([x]))
    assert abs(fit(x / 2) - 1.0 / x) < 1e-9 * (1 / x)
    if x < 1.0:
        assert fit((1 + x) / 2) == 0.0


def test_grenander_accepts_an_array_like():
    fit, want = grenander_fit([0.2, 0.5]), grenander_fit(Sample([0.2, 0.5]))
    assert np.array_equal(fit.breakpoints, want.breakpoints)
    assert np.array_equal(fit.heights, want.heights)


def test_grenander_rejects_observation_at_zero():
    with pytest.raises(DegenerateEstimateError, match="degenerate"):
        grenander_fit(Sample([0.0, 0.5]))


def test_lcm_dominates_and_touches():
    # the fit's CDF is the least concave majorant of the ECDF
    rng = RngStream(5).gen
    for _ in range(50):
        n = int(rng.integers(1, 40))
        s = Sample(rng.uniform(0.01, 1.0, n))
        fit = grenander_fit(s)
        vx = np.concatenate([[0.0], fit.breakpoints])
        vy = np.concatenate([[0.0], np.cumsum(fit.heights * np.diff(vx))])
        grid = np.linspace(0, 1, 10001)
        F = np.searchsorted(s.values, grid, "right") / s.n
        assert np.all(np.interp(grid, vx, vy) >= F - 1e-12)
        # interior vertices coincide with ECDF jump targets
        Fv = np.searchsorted(s.values, vx[1:-1], "right") / s.n
        assert np.all(np.abs(Fv - vy[1:-1]) < 1e-12)
        assert np.all(np.diff(fit.heights) < 1e-12)


def test_grenander_matches_brute_force_oracle():
    rng = RngStream(17).gen
    for trial in range(300):
        n = int(rng.integers(1, 9))
        s = Sample(np.round(rng.uniform(0.02, 1.0, n), 3))
        fit = grenander_fit(s)
        oracle_h, oracle_x = brute_force_grenander_heights(s.values)
        ours = fit(oracle_x - 1e-9)
        assert np.all(np.abs(ours - oracle_h) < 1e-12), (s.values, ours, oracle_h)


def test_grenander_on_bootstrap_resamples_matches_oracles():
    # a multinomial resample repeats about a third of its points, so the
    # runs of ties are what the fit reads its counts from
    rng = RngStream(19)
    for trial in range(200):
        n = int(rng.substream(trial).gen.integers(1, 9))
        data = sample_from_analytic(triangular_density(), n,
                                    rng.substream(trial, 0))
        star = multinomial_bootstrap(data, rng.substream(trial, 1))
        fit = grenander_fit(star)
        oracle_h, oracle_x = brute_force_grenander_heights(star.values)
        assert np.all(np.abs(fit(oracle_x - 1e-9) - oracle_h) < 1e-12)
        bp, hv = unique_grenander(star)
        assert np.array_equal(fit.breakpoints, bp)
        assert np.array_equal(fit.heights, hv)
    data = sample_from_analytic(triangular_density(), 1000, rng)
    for b in range(20):
        star = multinomial_bootstrap(data, rng.substream(1000, b))
        fit = grenander_fit(star)
        bp, hv = unique_grenander(star)
        assert np.array_equal(fit.breakpoints, bp)
        assert np.array_equal(fit.heights, hv)


def test_grenander_invariants_larger_n():
    rng = RngStream(23)
    for n in (10, 1000, 100000):
        s = sample_from_analytic(triangular_density(), n, rng.substream(n))
        fit = grenander_fit(s)
        assert np.all(np.diff(fit.heights) <= 1e-12)
        assert abs(fit.mass - 1.0) < 1e-12
        assert fit.heights[-1] >= 0.0


@st.composite
def rounded_samples(draw):
    """Samples rounded to 2 or 3 decimals, so ties and collinear ECDF points
    are common, with points at 1.0 and n from 1 up."""
    scale = draw(st.sampled_from([100, 1000]))
    point = st.integers(1, scale).map(lambda k: k / scale)
    base = draw(st.lists(point, min_size=1, max_size=30))
    ties = draw(st.lists(st.sampled_from(base), max_size=5))
    return base + ties


@given(rounded_samples())
@settings(max_examples=300, deadline=None)
def test_property_grenander_matches_hull_oracle(values):
    # the two may split a collinear run of ECDF points into different
    # blocks, so compare the fits as functions, not their block arrays
    s = Sample(values)
    fit = grenander_fit(s)
    vx, vy = hull_majorant(s.values)
    knots = np.union1d(np.concatenate([[0.0], s.values]), [1.0])
    mid = 0.5 * (knots[:-1] + knots[1:])
    heights = np.diff(vy) / np.diff(vx)
    expected = heights[np.searchsorted(vx[1:], mid)]
    np.testing.assert_allclose(fit(mid), expected, rtol=1e-12, atol=0.0)


def test_grenander_equals_hull_on_continuous_draws():
    rng = RngStream(29)
    for n in (10, 1000, 100000):
        for k, density in enumerate((triangular_density(), trunc_exp_density(2.0))):
            s = sample_from_analytic(density, n, rng.substream(n, k))
            fit = grenander_fit(s)
            vx, vy = hull_majorant(s.values)
            assert np.array_equal(fit.breakpoints, vx[1:])
            assert np.array_equal(fit.heights, np.diff(vy) / np.diff(vx))


# -- StepDensity ----------------------------------------------------------------


def test_step_density_left_convention():
    d = StepDensity([0.25, 0.75, 1.0], [2.0, 1.0, 0.0])
    assert d(0.25) == 2.0       # value on (0, 0.25]
    assert d(0.250001) == 1.0
    assert d(0.0) == 2.0        # value at 0 equals the first height
    assert d(1.0) == 0.0


def test_step_density_validation():
    with pytest.raises(ValueError):
        StepDensity([0.5, 1.0], [1.0, 2.0])       # increasing heights
    with pytest.raises(ValueError):
        StepDensity([0.5, 1.0], [3.0, 0.0])       # mass 1.5
    with pytest.raises(ValueError):
        StepDensity([0.5, 0.9], [2.0, 0.0])       # does not end at 1


_MATCHING = "breakpoints and heights must be matching 1-d arrays"
_FINITE = "breakpoints and heights must be finite"
_INCREASING = "breakpoints must be strictly increasing within (0, 1]"


@pytest.mark.parametrize("breakpoints,heights,message", [
    ([0.5, 1.0], [2.0], _MATCHING),
    ([], [], _MATCHING),
    ([[0.5, 1.0]], [[1.0, 1.0]], _MATCHING),
    ([np.nan, 1.0], [1.0, 1.0], _FINITE),
    ([0.5, 1.0], [1.0, np.inf], _FINITE),
    ([0.5, 0.5, 1.0], [1.0, 1.0, 1.0], _INCREASING),
    ([0.6, 0.5, 1.0], [1.0, 1.0, 1.0], _INCREASING),
    ([0.0, 1.0], [1.0, 1.0], _INCREASING),
    ([-0.5, 1.0], [1.0, 1.0], _INCREASING),
    ([0.5, 0.9], [2.0, 0.0], "last breakpoint must be 1"),
    ([0.5, 1.0 + 1e-11], [1.0, 1.0], "last breakpoint must be 1"),
    ([0.5, 1.0], [2.0, -1e-3], "heights must be nonnegative"),
    ([0.5, 1.0], [1.0, 1.0 + 1e-9], "heights must be non-increasing"),
    ([0.5, 1.0], [3.0, 0.0], "step density must integrate to 1, got 1.5"),
    # where several checks fail, the first in this order speaks
    ([0.6, 0.5], [np.nan, 1.0], _FINITE),
    ([0.6, 0.5], [1.0, 2.0], _INCREASING),
    ([0.5, 2.0], [-1.0, 1.0], "last breakpoint must be 1"),
    ([0.5, 1.0], [-1.0, 1.0], "heights must be nonnegative"),
    ([0.5, 1.0], [1.0, 3.0], "heights must be non-increasing"),
])
def test_step_density_rejects_each_bad_input_with_its_message(
        breakpoints, heights, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        StepDensity(breakpoints, heights)


def test_step_density_snaps_within_its_tolerances():
    bp, hv = np.array([0.5, 1.0 - 1e-13]), np.array([2.0, -1e-16])
    d = StepDensity(bp, hv)
    assert d.breakpoints[-1] == 1.0 and d.heights[-1] == 0.0
    # the inputs are copied, the stored arrays frozen
    assert bp[-1] < 1.0 and hv[-1] < 0.0
    assert not (d.breakpoints.flags.writeable or d.heights.flags.writeable)
    # heights may rise by rounding
    assert StepDensity([0.5, 1.0], [1.0, 1.0 + 1e-13]).heights[1] > 1.0


def test_step_density_mass_is_the_pairwise_sum_of_its_steps():
    # the mass fit writes: np.sum's pairwise sum, not a dot product
    for seed in range(20):
        sample = sample_from_analytic(triangular_density(), 1000,
                                      RngStream(seed))
        d = grenander_fit(sample)
        widths = np.diff(np.concatenate([[0.0], d.breakpoints]))
        assert d.mass == float(np.sum(d.heights * widths))


def test_step_density_is_left_continuous():
    d = StepDensity([0.5, 1.0], [1.8, 0.2])
    assert d(0.0) == d(0.5) == 1.8
    assert d(np.nextafter(0.5, 1.0)) == d(1.0) == 0.2


# -- the evaluation guard ----------------------------------------------------------


_STEP = StepDensity([0.5, 1.0], [1.8, 0.2])
_EXP = trunc_exp_density(2.0)
_SMOOTH = fit_smoothed(sample_from_analytic(triangular_density(), 200,
                                            RngStream(3)))


@pytest.mark.parametrize("evaluate", [
    _STEP, _EXP, _EXP.dpdf, _EXP.cdf, _EXP.ppf,
    _SMOOTH, _SMOOTH.pdf, _SMOOTH.dpdf, _SMOOTH.d2pdf, _SMOOTH.cdf,
], ids=["step", "analytic", "analytic.dpdf", "analytic.cdf", "analytic.ppf",
        "smoothed", "smoothed.pdf", "smoothed.dpdf", "smoothed.d2pdf",
        "smoothed.cdf"])
def test_evaluators_reject_points_outside_unit_interval(evaluate):
    for bad in (-0.5, 1.5, np.nan):
        for t in (bad, np.array([0.25, bad])):
            with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
                evaluate(t)
    assert type(evaluate(0.25)) is float
    values = evaluate(np.array([0.25, 0.75]))
    assert isinstance(values, np.ndarray) and values.shape == (2,)


# -- analytic zoo ----------------------------------------------------------------


@pytest.mark.parametrize("density", [uniform_density(), triangular_density(),
                                     trunc_exp_density(1.0), trunc_exp_density(3.0)])
def test_zoo_ppf_inverts_cdf(density):
    u = np.linspace(0.01, 0.99, 37)
    assert np.allclose(density.cdf(density.ppf(u)), u, atol=1e-10)


def test_zoo_flags():
    for density in (triangular_density(), uniform_density(),
                    trunc_exp_density()):
        assert density.nonincreasing


def test_monotonicity_is_measured():
    uniform = StepDensity([1.0], [1.0])
    falling = AnalyticDensity("falling", lambda t: 2.0 * (1.0 - t),
                              cdf=lambda t: t * (2.0 - t))
    assert falling.nonincreasing
    assert abs(l1_distance(uniform, falling) - 0.5) < 1e-15
    # 2t could once be declared non-increasing, and then its L1 distance to
    # the uniform step read 0.0 where the exact value is 0.5
    rising = AnalyticDensity("rising", lambda t: 2.0 * t, cdf=lambda t: t * t)
    assert not rising.nonincreasing
    with pytest.raises(ValueError, match="nonincreasing AnalyticDensity"):
        l1_distance(uniform, rising)
    # one step up of 1e-9 in a flat density is a rise, however small
    step_up = AnalyticDensity(
        "step up", lambda t: np.where(t < 0.5, 1.0 - 5e-10, 1.0 + 5e-10))
    assert not step_up.nonincreasing
    # flat to rounding, and steep near 0
    assert trunc_exp_density(1e-17).nonincreasing
    assert trunc_exp_density(1e20).nonincreasing


def test_triangular_values():
    tri = triangular_density()
    assert tri(0.0) == 2.0 and tri(1.0) == 0.0
    assert tri.dpdf(0.3) == -2.0
    assert abs(tri.cdf(0.5) - 0.75) < 1e-15


@pytest.mark.parametrize("rate", [1e-17, 1e-9])
def test_trunc_exp_small_rate_matches_closed_form(rate):
    # 1 - exp(-rate) cancels at these rates; the closed form in 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(rate)
        want = (1 - (-r / 2).exp()) / (1 - (-r).exp())
    d = trunc_exp_density(rate)
    assert abs(d.cdf(0.5) - float(want)) <= 1e-15
    t = np.linspace(0.0, 1.0, 101)
    assert np.allclose(d.ppf(d.cdf(t)), t, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rate", [1e4, 1e8, 1e15, 1e20, 1e100, 1.7e308])
def test_trunc_exp_large_rate_passes_mass_check(rate):
    # nearly all of the mass lies within a few multiples of 1/rate of 0,
    # far inside the first of 64 equal panels; at the largest rate, within
    # a few multiples of the smallest normal double
    d = trunc_exp_density(rate)
    assert d(0.0) == rate and d.cdf(1.0) == 1.0


@pytest.mark.parametrize("pdf", [
    lambda t: 2.0 * (1.0 - t),
    lambda t: 1e4 * np.exp(-1e4 * t) / -np.expm1(-1e4),
    lambda t: 1e15 * np.exp(-1e15 * t),
    lambda t: 1e100 * np.exp(-1e100 * t),
], ids=["triangular", "trunc_exp_1e4", "trunc_exp_1e15", "trunc_exp_1e100"])
def test_mass_check_rejects_scaled_pdf(pdf):
    with pytest.raises(ValueError, match=r"integrates to 1\.0(1|09)"):
        AnalyticDensity("scaled", lambda t: 1.01 * pdf(t))


@pytest.mark.parametrize("rate", [20.0, 36.0, 50.0, 1e4])
def test_trunc_exp_ppf_stays_in_unit_interval(rate):
    # z = 1 - exp(-rate) rounds within an ulp of 1, or to 1 at rate 50
    d = trunc_exp_density(rate)
    assert d.ppf(1.0) == 1.0 and d.ppf(0.0) == 0.0


# -- distances -------------------------------------------------------------------


def test_l1_step_vs_uniform():
    step = StepDensity([0.25, 0.75, 1.0], [2.0, 1.0, 0.0])
    assert abs(l1_distance(step, uniform_density()) - 0.5) < 1e-10


def test_l1_identity():
    # the uniform density is also a one-step density
    one_step = StepDensity([1.0], [1.0])
    assert l1_distance(one_step, one_step) == 0.0
    assert l1_distance(one_step, uniform_density()) == 0.0


def test_l1_uniform_vs_triangular_closed_form():
    # |1 - 2(1-t)| = |2t - 1| integrates to two triangles of area 1/4 each
    one_step = StepDensity([1.0], [1.0])
    assert abs(l1_distance(one_step, triangular_density()) - 0.5) < 1e-15
    assert abs(l1_distance(triangular_density(), one_step) - 0.5) < 1e-15


@pytest.mark.parametrize("truth", [trunc_exp_density(1.0), trunc_exp_density(2.0),
                                   triangular_density()], ids=lambda d: d.name)
@pytest.mark.parametrize("n", [1, 30, 1000])
def test_l1_step_vs_monotone_truth_matches_oracle(truth, n):
    # exact from CDF differences; the oracle integrates |step - truth| by
    # Gauss-Legendre split at the edges and the crossings found by scanning
    for r in range(3):
        fit = grenander_fit(sample_from_analytic(truth, n, RngStream(41).substream(n, r)))
        want = l1_to_step(truth, fit)
        assert abs(l1_distance(fit, truth) - want) < 1e-12
        assert l1_distance(truth, fit) == l1_distance(fit, truth)


def test_l1_unsupported_pairs_raise():
    fit = grenander_fit(Sample([0.2, 0.5]))
    flat = lambda t: np.ones_like(t)
    increasing = AnalyticDensity("rising", lambda t: 2.0 * t,
                                 cdf=lambda t: t * t)
    no_cdf = AnalyticDensity("flat", flat)
    smoothed = fit_smoothed(Sample([0.2, 0.5]))
    pairs = [(trunc_exp_density(), triangular_density()),
             (fit, increasing), (no_cdf, fit), (fit, object()),
             (smoothed, smoothed)]
    for a, b in pairs:
        with pytest.raises(ValueError, match="StepDensity against a density "
                           "with a ppoly, or against a nonincreasing "
                           "AnalyticDensity with a cdf"):
            l1_distance(a, b)


def test_l1_symmetry_and_triangle():
    rng = RngStream(31)
    tri = triangular_density()
    for k in range(10):
        a = grenander_fit(sample_from_analytic(tri, 30, rng.substream(k, 0)))
        b = grenander_fit(sample_from_analytic(tri, 30, rng.substream(k, 1)))
        c = grenander_fit(sample_from_analytic(tri, 30, rng.substream(k, 2)))
        ab, ba = l1_distance(a, b), l1_distance(b, a)
        assert abs(ab - ba) < 1e-12
        assert ab <= l1_distance(a, c) + l1_distance(c, b) + 1e-10
        assert l1_distance(a, a) == 0.0


def test_sup_step_vs_uniform():
    step = StepDensity([0.25, 0.75, 1.0], [2.0, 1.0, 0.0])
    assert abs(sup_distance(step, uniform_density()) - 1.0) < 1e-12


def test_sup_uniform_vs_triangular():
    assert abs(sup_distance(uniform_density(), triangular_density()) - 1.0) < 1e-12


def test_sup_identity():
    tri = triangular_density()
    assert sup_distance(tri, tri) == 0.0


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("kernel", [EPANECHNIKOV, BIWEIGHT], ids=lambda k: k.name)
def test_sup_smoother_against_analytic_matches_two_sided_oracle(kernel, n):
    # the rate experiment's pairs: a smoother of data from the truth
    for truth in (triangular_density(), trunc_exp_density(2.0)):
        for seed in range(3):
            data = sample_from_analytic(truth, n, RngStream(seed, (n,)))
            smoothed = fit_smoothed(data, kernel, DEFAULT_L1_RULE)
            for grid_size in (101, 501, 10001):
                ours = sup_distance(smoothed, truth, grid_size)
                assert ours == two_sided_sup_distance(smoothed, truth,
                                                      grid_size)
                assert ours == sup_distance(truth, smoothed, grid_size)


def test_sup_step_against_step_matches_two_sided_oracle():
    tri = triangular_density()
    rng = RngStream(40)
    for k in range(20):
        n = (5, 30, 300)[k % 3]
        a = grenander_fit(sample_from_analytic(tri, n, rng.substream(k, 0)))
        b = grenander_fit(sample_from_analytic(tri, n, rng.substream(k, 1)))
        for grid_size in (2, 11, 10001):
            ours = sup_distance(a, b, grid_size)
            assert ours == two_sided_sup_distance(a, b, grid_size)
            assert ours == sup_distance(b, a, grid_size)
    # the largest gap is on (0.25, 0.3], which no point of a two- or
    # three-point grid reaches: the kinks alone give it
    a = StepDensity([0.3, 0.6, 1.0], [1.5, 1.0, 0.625])
    b = StepDensity([0.25, 0.75, 1.0], [2.0, 0.8, 0.4])
    for grid_size in (2, 3, 10001):
        assert sup_distance(a, b, grid_size) == 1.5 - 0.8
        assert two_sided_sup_distance(a, b, grid_size) == 1.5 - 0.8


def test_split_matches_derivative_reexpansion():
    # random piecewise polynomials of degree 0 to 4, split at points inside
    # their pieces, at their breakpoints (skipped) and outside their range
    # (dropped); each coefficient's error is measured against the size
    # max_q |c_q| w^q of the piece it was cut from
    for seed in range(200):
        gen = np.random.default_rng(seed)
        degree = seed % 5
        x = np.unique(np.concatenate([[0.0, 1.0],
                                      gen.uniform(size=gen.integers(0, 8))]))
        scale = 10.0 ** gen.uniform(-3.0, 3.0, size=(degree + 1, 1))
        pp = PPoly(gen.normal(size=(degree + 1, x.size - 1)) * scale, x)
        at = np.unique(np.concatenate([gen.uniform(size=gen.integers(0, 12)),
                                       gen.choice(x, size=3), [-0.5, 1.5]]))
        xs, cs = density._split(pp, at)
        assert np.array_equal(xs, np.union1d(x, at[(at >= 0.0) & (at <= 1.0)]))
        piece = np.searchsorted(x, xs[:-1], side="right") - 1
        kept = xs[:-1] == x[piece]
        assert np.array_equal(cs[:, kept], pp.c), seed
        wq = np.diff(x)[piece] ** np.arange(degree, -1, -1)[:, None]
        size = np.max(np.abs(pp.c[:, piece]) * wq, axis=0)
        err = np.max(np.abs(cs - reexpand(pp, xs[:-1], degree)) * wq, axis=0)
        assert np.all(err <= 1e-13 * size), seed


# -- rate constant and shape integral ---------------------------------------------


def test_rate_constant_triangular():
    assert abs(rate_constant(triangular_density(), 0.5) - 2.0) < 1e-14


def test_rate_constant_boundary_rejected():
    with pytest.raises(ValueError):
        rate_constant(triangular_density(), 0.0)
    with pytest.raises(ValueError):
        rate_constant(triangular_density(), 1.0)


def test_rate_constant_flat_density_zero():
    assert rate_constant(uniform_density(), 0.5) == 0.0


def test_shape_integral_triangular_closed_form():
    val = l1_shape_integral(triangular_density())
    assert abs(val - 2 ** (1 / 3) * 0.75) < 1e-7


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 5.0])
def test_shape_integral_trunc_exp_closed_form(rate):
    # |g' g / 2|^(1/3) = (r^3 / (2 z^2))^(1/3) exp(-2 r t / 3), z = 1 - e^-r
    z = 1.0 - np.exp(-rate)
    want = ((rate ** 3 / (2 * z * z)) ** (1 / 3) * 1.5 / rate
            * (1.0 - np.exp(-2.0 * rate / 3.0)))
    assert abs(l1_shape_integral(trunc_exp_density(rate)) - want) < 1e-13


def test_shape_integral_uniform_zero():
    assert abs(l1_shape_integral(uniform_density())) < 1e-12


# -- input errors ------------------------------------------------------------------


def _root_pdf(t):
    # 1 / (2 sqrt(t)): unit mass, infinite at 0
    with np.errstate(divide="ignore"):
        return 0.5 / np.sqrt(t)


_FLAT = AnalyticDensity("flat", np.ones_like)


@pytest.mark.parametrize("call,message", [
    (lambda: AnalyticDensity("nan", lambda t: np.full_like(t, np.nan)),
     "integrand returned a non-finite value at t="),
    (lambda: Sample([]), "sample must be a nonempty 1-d array"),
    (lambda: Sample([[0.5]]), "sample must be a nonempty 1-d array"),
    (lambda: _FLAT.dpdf(0.5), "density flat has no derivative evaluator"),
    (lambda: _FLAT.cdf(0.5), "density flat has no closed-form CDF"),
    (lambda: _FLAT.ppf(0.5), "density flat has no inverse CDF"),
    (lambda: sup_distance(uniform_density(),
                          AnalyticDensity("root", _root_pdf)),
     "non-finite density value inside [0, 1]"),
], ids=["non-finite-pdf", "empty-sample", "2d-sample", "no-dpdf", "no-cdf",
        "no-ppf", "sup-infinite-at-0"])
def test_bad_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call()
