import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grenboot import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                      EPANECHNIKOV, BandwidthRule, DegenerateEstimateError,
                      Kernel, RngStream, Sample, SmoothedDensity,
                      check_kernel_conditions, fit_smoothed, grenander_fit,
                      kernel_by_name, kernel_satisfies,
                      l1_distance, l1_shape_integral, sample_from_analytic,
                      triangular_density, trunc_exp_density)
from .oracles import (DirectSmoother, gauss_legendre, grid_kernel_conditions,
                      kernel_sums, l1_to_step, shape_integral,
                      smoother_breakpoints)


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
        vals = k(v)
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


def test_default_rules():
    assert DEFAULT_POINTWISE_RULE.alpha == 0.30
    assert DEFAULT_L1_RULE.alpha == 0.18


# -- raw / extended / normalized evaluators --------------------------------------


def test_raw_single_point_center():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert abs(sd.extended(0.5) - 3.75) < 1e-14


def test_raw_outside_kernel_support():
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    assert sd.extended(0.8) == 0.0


def test_raw_symmetric_pair():
    sd = SmoothedDensity(Sample([0.4, 0.6]), EPANECHNIKOV, 0.2)
    assert abs(sd.extended(0.5) - 2.8125) < 1e-12
    assert sd.extended(0.5, order=1) == 0.0     # odd symmetry of the derivative


def test_extended_left_slope_anchored():
    # single point near 0 forces a negative left-seam slope: value at 0 is
    # f(h) + h * |slope|
    sd = SmoothedDensity(Sample([0.15]), EPANECHNIKOV, 0.2)
    f_h = sd.extended(0.2)
    s_h = sd.extended(0.2, order=1)
    assert s_h < 0
    assert abs(sd.extended(0.0) - (f_h + 0.2 * (-s_h))) < 1e-12
    assert abs(sd.extended(0.0) - 5.390625) < 1e-12


def test_extended_clamps_positive_slope():
    # mass concentrated right of the left seam gives a positive raw slope
    # there; the extension must stay constant
    sd = SmoothedDensity(Sample([0.35, 0.4, 0.45]), EPANECHNIKOV, 0.3)
    assert sd.extended(0.3, order=1) > 0
    assert abs(sd.extended(0.0) - sd.extended(0.3)) < 1e-12
    assert abs(sd.extended(0.15) - sd.extended(0.3)) < 1e-12


def test_extended_matches_interior_at_seams():
    rng = RngStream(41)
    s = sample_from_analytic(triangular_density(), 100, rng)
    sd = SmoothedDensity(s, BIWEIGHT, 0.25)
    for seam in (0.25, 0.75):
        interior = kernel_sums(s.values, seam, 0.25, BIWEIGHT)[0]
        assert abs(sd.extended(seam) - interior) < 1e-14


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
    sd = SmoothedDensity(Sample([0.5]), EPANECHNIKOV, 0.2)
    grid = np.linspace(0, 1, 501)
    base = np.maximum(sd.extended(grid), 0.0)
    z = gauss_legendre(lambda t: np.maximum(sd.extended(t), 0.0),
                       smoother_breakpoints(sd))
    assert np.allclose(sd.pdf(grid), base / z, atol=1e-12)


# -- derivatives -----------------------------------------------------------------


def test_derivative_on_extension_regions():
    sd = SmoothedDensity(Sample([0.15]), EPANECHNIKOV, 0.2)
    # order 1 on [0, h): the clamped constant slope over the normalizer
    s_h = sd.extended(0.2, order=1)
    z = sd.normalizer
    assert abs(sd.dpdf(0.1) - s_h / z) < 1e-12
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
@settings(max_examples=20, deadline=None)
def test_property_shape_integral_matches_oracle(n, h, seed, kernel):
    # g and g' have cube-root cusps at their zeros; the rule splits at the
    # roots, the oracle at sign changes found by scanning
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
    peak = np.max(sd.kernel(np.linspace(-1.0, 1.0, 201))) / (sd.sample.n * sd.h)
    return 1e-10 + 1e-13 * peak / sd.normalizer


def _fit_both(values, h, kernel):
    oracle = DirectSmoother(values, kernel, h)
    try:
        return SmoothedDensity(Sample(values), kernel, h), oracle
    except DegenerateEstimateError:
        # rejected below 1e-6 of one observation's peak, plus rounding
        peak = np.max(kernel(np.linspace(-1.0, 1.0, 201))) / (values.size * h)
        assert oracle.mass < (1e-6 + 1e-12) * peak
        return None, oracle


@given(smoother_inputs(), st.lists(st.floats(0.0, 1.0), max_size=20))
@settings(max_examples=150, deadline=None)
def test_property_ppoly_matches_direct_sums(inputs, extra):
    values, h, kernel = inputs
    sd, oracle = _fit_both(values, h, kernel)
    if sd is None:
        return
    t = np.concatenate([np.linspace(0.0, 1.0, 401), extra, oracle.knots])
    for order in (0, 1, 2):
        if order:
            # one-sided derivatives at knots follow different conventions
            gap = np.min(np.abs(t[:, None] - oracle.knots[None, :]), axis=1)
            t = t[gap > 1e-9]
        direct = oracle.extended(t, order)
        # relative to the estimate's size, or to one observation's largest
        # contribution where the estimate is nearly zero
        one = np.max(np.abs(kernel.deriv(np.linspace(-1.0, 1.0, 201), order)))
        scale = max(np.max(np.abs(direct), initial=0.0),
                    one / (values.size * h ** (order + 1)))
        fast = sd.extended(t, order)
        assert np.max(np.abs(fast - direct), initial=0.0) <= 1e-9 * scale, order


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
    assert l1_distance(sd, sd) == 0.0


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
    qb = sd.quad_breakpoints
    breaks = qb[(qb > sd.h) & (qb < 1 - sd.h)]
    assert breaks.size >= 2
    assert np.allclose(sd.extended(breaks), 0.0, rtol=0, atol=1e-12)
    assert np.all(sd.pdf(np.linspace(0, 1, 20001)) >= 0)
    assert abs(gauss_legendre(sd.pdf, smoother_breakpoints(sd)) - 1.0) < 1e-10
    assert sd.cdf(1.0) == 1.0


def test_shipped_kernels_derive_from_coefficients():
    v = np.linspace(-1.0, 1.0, 101)
    assert np.allclose(EPANECHNIKOV(v), 0.75 * (1 - v * v), rtol=0, atol=1e-15)
    assert np.allclose(BIWEIGHT(v), 15 / 16 * (1 - v * v) ** 2, rtol=0, atol=1e-15)
    assert np.allclose(BIWEIGHT.deriv(v, 3), 22.5 * v, rtol=0, atol=1e-13)
