import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PPoly

from grenboot import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                      EPANECHNIKOV, BandwidthRule, DegenerateEstimateError,
                      Kernel, RngStream, Sample, SmoothedDensity, StepDensity,
                      check_kernel_conditions, density, fit_smoothed,
                      grenander_fit, kernel_by_name, kernel_satisfies,
                      l1_distance, l1_shape_integral, rejection_sample,
                      sample_from_analytic, triangular_density,
                      trunc_exp_density)
from .oracles import (DirectSmoother, gauss_legendre, grid_kernel_conditions,
                      kernel_deriv, kernel_sums, l1_exact, l1_to_step,
                      shape_integral, smoother_breakpoints)


# -- kernel conditions ---------------------------------------------------------


def test_epanechnikov_passes_pointwise():
    reports = check_kernel_conditions(EPANECHNIKOV, "pointwise")
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_biweight_passes_l1():
    reports = check_kernel_conditions(BIWEIGHT, "l1")
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_epanechnikov_fails_l1_on_second_derivative_mass():
    reports = {r.name: r for r in check_kernel_conditions(EPANECHNIKOV, "l1")}
    bad = reports["dderiv_mass_zero"]
    assert not bad.passed
    assert abs(bad.residual - 3.0) < 1e-9   # the integral is -3, not 0


def test_kernel_basic_shape():
    v = np.linspace(-1.5, 1.5, 101)
    for k in (EPANECHNIKOV, BIWEIGHT):
        vals = kernel_deriv(k, v, 0)
        assert np.all(vals >= 0)
        assert np.all(vals[np.abs(v) > 1] == 0)


def test_kernel_by_name():
    assert kernel_by_name("biweight") is BIWEIGHT
    assert kernel_by_name("epanechnikov") is EPANECHNIKOV
    with pytest.raises(ValueError):
        kernel_by_name("gaussian")


def test_kernel_satisfies_cached():
    assert kernel_satisfies(BIWEIGHT, "l1")
    assert not kernel_satisfies(EPANECHNIKOV, "l1")
    assert kernel_satisfies(EPANECHNIKOV, "pointwise")


def test_nonfinite_kernel_rejected():
    for coefficients in ([0.75, 0.0, -np.inf], [np.nan]):
        with pytest.raises(ValueError, match="finite"):
            Kernel("bad", coefficients)


def test_malformed_kernel_coefficients_rejected():
    for coefficients in ([], [[0.75, 0.0, -0.75]]):
        with pytest.raises(ValueError, match="1-d"):
            Kernel("bad", coefficients)


@st.composite
def even_kernels(draw):
    """Even polynomial kernels of degree up to 8, scaled to unit mass unless
    their mass is near 0."""
    even = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    coef = np.zeros(2 * len(even) - 1)
    coef[::2] = even
    mass = sum(2.0 * c / (2 * p + 1) for p, c in enumerate(even))
    if abs(mass) > 0.1:
        coef /= mass
    return Kernel("even", coef)


@given(even_kernels())
@settings(max_examples=60, deadline=None)
def test_property_exact_conditions_match_grid_oracle(kernel):
    oracle = grid_kernel_conditions(kernel, "l1")
    for r in check_kernel_conditions(kernel, "l1"):
        if r.name in ("nonnegative", "deriv_nonincreasing_sign"):
            # the grid samples the extremes the exact check locates
            assert r.residual >= oracle[r.name] - 1e-12, r
        else:
            assert abs(r.residual - oracle[r.name]) <= 1e-9, r


# -- bandwidth rules ------------------------------------------------------------


def test_bandwidth_anchor_values():
    assert abs(BandwidthRule(0.3).bandwidth(1000) - 0.125893) < 1e-6
    assert abs(BandwidthRule(0.18, regime="l1").bandwidth(10000) - 0.190546) < 1e-6


def test_bandwidth_clamped_to_half():
    assert BandwidthRule(0.3).bandwidth(2) == 0.5


def test_bandwidth_regime_validation():
    with pytest.raises(ValueError):
        BandwidthRule(0.35, regime="pointwise")     # outside (0, 1/3)
    with pytest.raises(ValueError):
        BandwidthRule(0.25, regime="l1")            # outside (1/6, 1/5)
    with pytest.raises(ValueError):
        BandwidthRule(0.3, scale=0.0)


@pytest.mark.parametrize("scale", [np.inf, np.nan, -1.0])
def test_bandwidth_scale_must_be_positive_and_finite(scale):
    # an infinite scale clamped every bandwidth to 1/2
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        BandwidthRule(0.3, scale=scale)


@pytest.mark.parametrize("call,message", [
    (lambda: check_kernel_conditions(EPANECHNIKOV, "sup"),
     "level must be 'pointwise' or 'l1'"),
    (lambda: BandwidthRule(0.3, regime="sup"),
     "regime must be one of ['l1', 'pointwise']"),
    (lambda: SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.0),
     "bandwidth must lie in (0, 1/2]"),
    (lambda: SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.6),
     "bandwidth must lie in (0, 1/2]"),
], ids=["kernel-check-level", "regime", "bandwidth-0", "bandwidth-0.6"])
def test_bad_smoother_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


def test_smoother_takes_a_plain_list():
    values = [0.9, 0.2, 0.5, 0.3]
    sample = Sample(values)
    for build in (lambda x: SmoothedDensity(x, EPANECHNIKOV, 0.3),
                  lambda x: fit_smoothed(x, BIWEIGHT, DEFAULT_L1_RULE)):
        got, want = build(values), build(sample)
        assert np.array_equal(got.sample.values, sample.values)
        assert np.array_equal(got.ppoly.c, want.ppoly.c)


def test_default_rules():
    assert DEFAULT_POINTWISE_RULE.alpha == 0.30
    assert DEFAULT_L1_RULE.alpha == 0.18


# -- raw / extended / normalized evaluators --------------------------------------


def _raw(sd, t, order=0):
    """The truncated extended estimate before normalizing, and its
    derivatives: ``ppoly`` times the normalizer."""
    return sd.normalizer * sd.ppoly(t, order)


def test_raw_single_point_center():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert abs(_raw(sd, 0.5) - 3.75) < 1e-14


def test_raw_outside_kernel_support():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert sd.pdf(0.8) == 0.0


def test_raw_symmetric_pair():
    sd = SmoothedDensity(Sample([0.4, 0.6]), EPANECHNIKOV, 0.2)
    assert abs(_raw(sd, 0.5) - 2.8125) < 1e-12
    assert sd.dpdf(0.5) == 0.0     # odd symmetry of the derivative


def test_extended_left_slope_anchored():
    # single point near 0 forces a negative left-seam slope: value at 0 is
    # f(h) + h * |slope|
    sd = SmoothedDensity(Sample([0.15]), EPANECHNIKOV, 0.2)
    f_h = _raw(sd, 0.2)
    s_h = _raw(sd, 0.2, order=1)
    assert s_h < 0
    assert abs(_raw(sd, 0.0) - (f_h + 0.2 * (-s_h))) < 1e-12
    assert abs(_raw(sd, 0.0) - 5.390625) < 1e-12


def test_extended_clamps_positive_slope():
    # mass concentrated right of the left seam gives a positive raw slope
    # there; the extension must stay constant
    sd = SmoothedDensity(Sample([0.35, 0.4, 0.45]), EPANECHNIKOV, 0.3)
    assert sd.dpdf(0.3) > 0
    assert abs(sd.pdf(0.0) - sd.pdf(0.3)) < 1e-12
    assert abs(sd.pdf(0.15) - sd.pdf(0.3)) < 1e-12


def test_extended_matches_interior_at_seams():
    rng = RngStream(41)
    s = sample_from_analytic(triangular_density(), 100, rng)
    sd = SmoothedDensity(s, BIWEIGHT, 0.25)
    for seam in (0.25, 0.75):
        interior = kernel_sums(s.values, seam, 0.25, BIWEIGHT)[0]
        assert abs(_raw(sd, seam) - interior) < 1e-14


def test_normalized_mass_and_nonnegativity():
    rng = RngStream(43)
    for k, n, h in ((EPANECHNIKOV, 30, 0.3), (BIWEIGHT, 200, 0.15),
                    (BIWEIGHT, 1000, 0.08)):
        s = sample_from_analytic(trunc_exp_density(), n, rng.substream(n))
        sd = SmoothedDensity(s, k, h)
        grid = np.linspace(0, 1, 10001)
        assert np.all(sd.pdf(grid) >= 0)
        mass = gauss_legendre(sd.pdf, smoother_breakpoints(sd))
        assert abs(mass - 1.0) < 1e-8


def test_seam_continuity():
    rng = RngStream(47)
    s = sample_from_analytic(triangular_density(), 300, rng)
    sd = SmoothedDensity(s, BIWEIGHT, 0.2)
    for t in (0.2, 0.8):
        assert abs(sd.pdf(t - 1e-12) - sd.pdf(t + 1e-12)) < 1e-10


def test_degenerate_when_no_mass_reaches_interior():
    # one observation at exactly 1: the kernel window never reaches
    # [h, 1-h], the raw estimate is identically zero there, both extension
    # slopes clamp to zero, and the positive part has no mass
    with pytest.raises(DegenerateEstimateError):
        SmoothedDensity(Sample([1.0]), EPANECHNIKOV, 0.2)


def test_degenerate_when_mass_is_rounding():
    # the exact estimate is flat, but its mass, 1.5e-9, is rounding against
    # one observation's peak of 0.94; normalized, it would tilt by 7e-8
    with pytest.raises(DegenerateEstimateError):
        SmoothedDensity(Sample([1.0, 0.99999]), BIWEIGHT, 0.5)


def test_pdf_scales_as_positive_part():
    for values, h in (([0.5], 0.2), ([0.05, 0.1, 0.7], 0.2)):
        sd = SmoothedDensity(Sample(values), EPANECHNIKOV, h)
        oracle = DirectSmoother(values, EPANECHNIKOV, h)
        grid = np.linspace(0, 1, 501)
        assert np.allclose(sd.pdf(grid), oracle.pdf(grid), rtol=0, atol=1e-12)


# -- derivatives -----------------------------------------------------------------


def test_derivative_on_extension_regions():
    sd = SmoothedDensity(Sample([0.15]), EPANECHNIKOV, 0.2)
    # order 1 on [0, h): the clamped constant slope over the normalizer
    oracle = DirectSmoother([0.15], EPANECHNIKOV, 0.2)
    assert oracle.s_lo < 0
    assert abs(sd.dpdf(0.1) - oracle.s_lo / sd.normalizer) < 1e-12
    # order 2 on the linear extension is identically 0
    sd2 = SmoothedDensity(Sample([0.15, 0.5, 0.52]), BIWEIGHT, 0.2)
    assert sd2.d2pdf(0.1) == 0.0
    assert sd2.d2pdf(0.95) == 0.0


def test_second_derivative_requires_l1_kernel():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    with pytest.raises(ValueError):
        sd.d2pdf(0.5)


def test_triangular_derivative_consistency():
    rng = RngStream(53)
    s = sample_from_analytic(triangular_density(), 10000, rng)
    sd = SmoothedDensity(s, BIWEIGHT, BandwidthRule(0.18, regime="l1").bandwidth(10000))
    assert abs(sd.dpdf(0.5) - (-2.0)) < 0.2


def test_sup_error_at_ten_thousand():
    rng = RngStream(59)
    s = sample_from_analytic(triangular_density(), 10000, rng)
    sd = SmoothedDensity(s, BIWEIGHT, DEFAULT_L1_RULE.bandwidth(10000))
    tri = triangular_density()
    grid = np.linspace(0, 1, 2001)
    assert np.max(np.abs(sd.pdf(grid) - tri(grid))) < 0.08


def test_plugin_shape_integral_near_truth():
    rng = RngStream(61)
    s = sample_from_analytic(triangular_density(), 10000, rng)
    sd = SmoothedDensity(s, BIWEIGHT, DEFAULT_L1_RULE.bandwidth(10000))
    assert abs(l1_shape_integral(sd) - 0.944940) < 0.05


@pytest.mark.parametrize("n", [300, 1000])
def test_shape_integral_meets_tolerance_across_kernel_knots(n):
    # the integrand kinks at every X_i +- h; the rule is accurate on these
    # samples only when split there
    sd = fit_smoothed(sample_from_analytic(triangular_density(), n, RngStream(0)))
    assert abs(l1_shape_integral(sd) - shape_integral(sd)) < 1e-8


@given(st.integers(5, 400), st.floats(0.02, 0.5), st.integers(0, 10 ** 6),
       st.sampled_from([EPANECHNIKOV, BIWEIGHT]))
@example(384, 0.1028814085321162, 739, EPANECHNIKOV)
@example(45, 0.11078525415484371, 899, BIWEIGHT)
@settings(max_examples=20, deadline=None)
def test_property_shape_integral_matches_oracle(n, h, seed, kernel):
    # g and g' have cube-root cusps at their zeros; the rule splits at the
    # roots of g, g' and g'', the oracle at sign changes found by scanning
    s = sample_from_analytic(trunc_exp_density(2.0), n, RngStream(seed))
    try:
        sd = SmoothedDensity(s, kernel, h)
    except DegenerateEstimateError:
        return
    assert abs(l1_shape_integral(sd) - shape_integral(sd)) < 1e-9


@given(st.integers(5, 400), st.floats(0.05, 0.45), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_property_mass_one_and_nonnegative(n, h, seed):
    s = sample_from_analytic(trunc_exp_density(2.0), n, RngStream(1000 + seed))
    kernel = BIWEIGHT if seed % 2 else EPANECHNIKOV
    sd = SmoothedDensity(s, kernel, h)
    grid = np.linspace(0, 1, 2001)
    vals = sd.pdf(grid)
    assert np.all(vals >= 0)
    mass = gauss_legendre(sd.pdf, smoother_breakpoints(sd))
    assert abs(mass - 1.0) < 1e-8


# -- the piecewise polynomial against direct kernel sums --------------------------


@st.composite
def smoother_inputs(draw):
    """Samples with ties and points at 1.0, n from 1 up, h up to the 1/2
    clamp where the interior [h, 1-h] is the single point 1/2."""
    point = st.one_of(st.just(1.0), st.floats(0.001, 1.0))
    base = draw(st.lists(point, min_size=1, max_size=12))
    ties = draw(st.lists(st.sampled_from(base), max_size=4))
    h = draw(st.one_of(st.just(0.5), st.floats(0.02, 0.5)))
    kernel = draw(st.sampled_from([EPANECHNIKOV, BIWEIGHT]))
    return np.array(base + ties), h, kernel


def _normalized_tol(sd):
    """1e-10, widened where the mass is small against one observation's
    peak: normalizing divides the raw estimate's rounding by the mass."""
    peak = (np.max(kernel_deriv(sd.kernel, np.linspace(-1.0, 1.0, 201), 0))
            / (sd.sample.n * sd.h))
    return 1e-10 + 1e-13 * peak / sd.normalizer


def _fit_both(values, h, kernel):
    oracle = DirectSmoother(values, kernel, h)
    try:
        return SmoothedDensity(Sample(values), kernel, h), oracle
    except DegenerateEstimateError:
        # rejected below 1e-6 of one observation's peak, plus rounding
        peak = (np.max(kernel_deriv(kernel, np.linspace(-1.0, 1.0, 201), 0))
                / (values.size * h))
        assert oracle.mass < (1e-6 + 1e-12) * peak
        return None, oracle


def _check_against_direct_sums(sd, oracle, t):
    """``normalizer * pdf`` against the oracle's positive part at ``t``, and
    ``normalizer * ppoly``'s derivatives against the oracle's where its value
    is positive beyond the tolerance, so that truncation is decided the same
    way, and more than 1e-9 from its knots, where one-sided derivatives
    follow different conventions. The tolerance is 1e-9 of the estimate's
    size, or of one observation's largest contribution where the estimate is
    nearly zero."""
    kernel, n, h = sd.kernel, sd.sample.n, sd.h
    v = np.linspace(-1.0, 1.0, 201)

    def tol(direct, order):
        one = np.max(np.abs(kernel_deriv(kernel, v, order)))
        return 1e-9 * max(np.max(np.abs(direct), initial=0.0),
                          one / (n * h ** (order + 1)))

    direct = oracle.extended(t, 0)
    fast = sd.normalizer * sd.pdf(t)
    assert np.max(np.abs(fast - np.maximum(direct, 0.0))) <= tol(direct, 0)
    i = np.clip(np.searchsorted(oracle.knots, t), 1, oracle.knots.size - 1)
    gap = np.minimum(t - oracle.knots[i - 1], oracle.knots[i] - t)
    t = t[(direct > tol(direct, 0)) & (gap > 1e-9)]
    for order in (1, 2):
        direct = oracle.extended(t, order)
        fast = sd.normalizer * sd.ppoly(t, order)
        err = np.max(np.abs(fast - direct), initial=0.0)
        assert err <= tol(direct, order), order


@given(smoother_inputs(), st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_property_ppoly_matches_direct_sums(inputs, extra):
    values, h, kernel = inputs
    sd, oracle = _fit_both(values, h, kernel)
    if sd is None:
        return
    t = np.concatenate([np.linspace(0.0, 1.0, 401), extra, oracle.knots])
    _check_against_direct_sums(sd, oracle, t)


TRIWEIGHT = Kernel("triweight", [35 / 32, 0, -105 / 32, 0, 105 / 32, 0, -35 / 32])


@pytest.mark.parametrize("kernel", [BIWEIGHT, TRIWEIGHT], ids=lambda k: k.name)
def test_ppoly_matches_direct_sums_at_real_size(kernel):
    # thousands of observations per block and a degree 6 kernel, which the
    # property test above never draws: the window power sums and the powers
    # of the knot offsets reach their largest here
    n = 4000
    s = sample_from_analytic(triangular_density(), n, RngStream(53))
    h = DEFAULT_L1_RULE.bandwidth(n)
    sd, oracle = SmoothedDensity(s, kernel, h), DirectSmoother(s.values, kernel, h)
    knots = oracle.knots
    t = np.concatenate([np.linspace(0.0, 1.0, 1001), knots[::4]])
    _check_against_direct_sums(sd, oracle, t)


@given(smoother_inputs())
@settings(max_examples=100, deadline=None)
def test_property_exact_l1_matches_quadrature(inputs):
    values, h, kernel = inputs
    sd, oracle = _fit_both(values, h, kernel)
    if sd is None:
        return
    step = grenander_fit(Sample(values))
    want = l1_to_step(oracle.pdf, step, oracle.knots)
    assert abs(l1_distance(step, sd) - want) <= _normalized_tol(sd)


@given(smoother_inputs(), st.integers(0, 2 ** 16))
@settings(max_examples=100, deadline=None)
def test_property_batched_l1_matches_single_and_merged(inputs, seed):
    values, h, kernel = inputs
    sd, oracle = _fit_both(values, h, kernel)
    if sd is None:
        return
    rng = RngStream(seed)
    refits = [grenander_fit(rejection_sample(sd, values.size, rng.substream(b)))
              for b in range(4)]
    batched = density._l1_steps(refits, sd.ppoly)
    for step, value in zip(refits, batched):
        assert abs(value - l1_distance(step, sd)) <= 1e-14
        assert abs(value - l1_exact(step.ppoly, sd.ppoly)) <= 1e-14
        want = l1_to_step(oracle.pdf, step, oracle.knots)
        assert abs(value - want) <= _normalized_tol(sd)


def _smoother_and_steps():
    sd = fit_smoothed(sample_from_analytic(trunc_exp_density(2.0), 200,
                                           RngStream(61)))
    x = sd.ppoly.x
    # steps whose breakpoints are all the smoother's own, every third one
    bp = np.append(x[3:-1:3], 1.0)
    mids = 0.5 * (np.concatenate([[0.0], bp[:-1]]) + bp)
    heights = np.sort(sd.pdf(mids))[::-1]
    heights /= np.sum(heights * np.diff(np.concatenate([[0.0], bp])))
    shared = StepDensity(bp, heights)
    return sd, [shared, StepDensity([1.0], [1.0]),
                grenander_fit(rejection_sample(sd, 200, RngStream(62)))]


def test_batched_l1_pinned_steps_match_merged_and_oracle():
    # breakpoints equal to the smoother's own split no piece; the one-step
    # uniform splits none either; a refit splits some
    sd, steps = _smoother_and_steps()
    oracle = DirectSmoother(sd.sample.values, sd.kernel, sd.h)
    batched = density._l1_steps(steps, sd.ppoly)
    for step, value in zip(steps, batched):
        assert abs(value - l1_exact(step.ppoly, sd.ppoly)) <= 1e-14
        assert abs(value - l1_to_step(oracle.pdf, step, oracle.knots)) <= 1e-10
        assert abs(value - l1_distance(sd, step)) <= 1e-14
    # a step against its own ppoly: every piece is identically zero
    assert density._l1_steps(steps[:1], steps[0].ppoly)[0] == 0.0


def test_batched_l1_piece_equal_to_step_height():
    # on [0, 1/2) the ppoly equals the step, so PPoly.roots reports nan
    # there; on [1/2, 1] |1/2 - (1 - 2u)| integrates to two triangles of 1/16
    pp = PPoly(np.array([[0.0, -2.0], [1.5, 1.0]]), [0.0, 0.5, 1.0])
    whole = StepDensity([0.5, 1.0], [1.5, 0.5])
    # the same with a step breakpoint inside the equal piece
    split = StepDensity([0.25, 0.5, 1.0], [1.5, 1.5, 0.5])
    for value in density._l1_steps([whole, split], pp):
        assert abs(value - 0.125) <= 1e-15


def test_batched_l1_non_unit_mass():
    # no unit mass is assumed of the ppoly: a lift by 0.3 is at distance 0.3
    sd, steps = _smoother_and_steps()
    refit = steps[2]
    lifted = PPoly(refit.ppoly.c + 0.3, refit.ppoly.x)
    assert abs(density._l1_steps([refit], lifted)[0] - 0.3) <= 1e-15
    doubled = PPoly(2.0 * sd.ppoly.c, sd.ppoly.x)
    for step, value in zip(steps, density._l1_steps(steps, doubled)):
        assert abs(value - l1_exact(step.ppoly, doubled)) <= 1e-14


@given(smoother_inputs(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_property_cdf_matches_cumulative_quadrature(inputs, ts):
    values, h, kernel = inputs
    sd, oracle = _fit_both(values, h, kernel)
    if sd is None:
        return
    assert sd.cdf(1.0) == 1.0
    assert sd.cdf(0.0) == 0.0
    for t in ts:
        assert abs(sd.cdf(t) - oracle.cdf(t)) <= _normalized_tol(sd)


def test_signed_kernel_truncated_at_interior_sign_breaks():
    # a fourth-order kernel, (15/32)(1 - v^2)(3 - 7v^2), dips below zero, so
    # the raw estimate goes negative between two separated clusters
    k4 = Kernel("fourth_order", [45 / 32, 0.0, -150 / 32, 0.0, 105 / 32])
    sd = SmoothedDensity(Sample([0.3, 0.31, 0.7]), k4, 0.15)
    oracle = DirectSmoother(sd.sample.values, k4, 0.15)
    qb = sd.quad_breakpoints
    breaks = qb[(qb > sd.h) & (qb < 1 - sd.h)]
    assert breaks.size >= 2
    # the breaks are zeros of the raw estimate, and the pdf is its positive
    # part
    assert np.allclose(oracle.extended(breaks), 0.0, rtol=0, atol=1e-12)
    assert np.allclose(sd.pdf(breaks), 0.0, rtol=0, atol=1e-12)
    grid = np.linspace(0, 1, 20001)
    assert np.all(sd.pdf(grid) >= 0)
    assert np.allclose(sd.normalizer * sd.pdf(grid), oracle.positive(grid),
                       rtol=0, atol=1e-12)
    assert abs(gauss_legendre(sd.pdf, smoother_breakpoints(sd)) - 1.0) < 1e-10
    assert sd.cdf(1.0) == 1.0


def test_shipped_kernels_derive_from_coefficients():
    v = np.linspace(-1.0, 1.0, 101)
    assert np.allclose(kernel_deriv(EPANECHNIKOV, v, 0), 0.75 * (1 - v * v),
                       rtol=0, atol=1e-15)
    assert np.allclose(kernel_deriv(BIWEIGHT, v, 0), 15 / 16 * (1 - v * v) ** 2,
                       rtol=0, atol=1e-15)
    assert np.allclose(kernel_deriv(BIWEIGHT, v, 3), 22.5 * v, rtol=0,
                       atol=1e-13)
