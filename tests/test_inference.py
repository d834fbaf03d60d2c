import os

import numpy as np
import pytest
from scipy.interpolate import PPoly

import grenboot.smoothing
from grenboot import (DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE, EPANECHNIKOV,
                      RngStream, Sample, band_contains, empirical_quantile,
                      fit_smoothed, grenander_fit, l1_band, l1_distance,
                      sample_from_analytic, smoothed_pointwise_ci,
                      supersample_centering, triangular_density,
                      uniform_density)
from grenboot.cli import main
from grenboot.experiments import run_rate
from grenboot.inference import L1BandResult


# -- empirical quantile -----------------------------------------------------------


def test_quantile_order_statistic_convention():
    vals = np.arange(1.0, 101.0)
    assert empirical_quantile(vals, 0.95) == 95.0
    assert empirical_quantile(vals, 0.01) == 1.0
    assert empirical_quantile(vals, 0.5) == 50.0


def test_quantile_constant_sequence():
    vals = np.full(37, 2.5)
    for p in (0.05, 0.5, 0.93):
        assert empirical_quantile(vals, p) == 2.5


def test_quantile_unsorted_input():
    assert empirical_quantile([3.0, 1.0, 2.0], 0.99) == 3.0


def test_quantile_validation():
    with pytest.raises(ValueError):
        empirical_quantile([], 0.5)
    with pytest.raises(ValueError):
        empirical_quantile([1.0], 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantile_rejects_non_finite_values(bad):
    # sorting puts NaN last, so the median of [1, nan] used to read 1.0
    with pytest.raises(ValueError, match="finite"):
        empirical_quantile([1.0, bad], 0.5)


# -- pointwise CI ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tri_sample_500():
    return sample_from_analytic(triangular_density(), 500, RngStream(60))


def test_ci_basic_shape(tri_sample_500):
    r = smoothed_pointwise_ci(tri_sample_500, 0.5, level=0.90, n_boot=100,
                              rng=RngStream(61))
    assert r.lower <= r.upper
    assert len(r.deviations) == 100
    assert r.n == 500 and r.n_boot == 100
    # quantile ordering around the median pivot
    med = np.median(r.deviations)
    center = r.grenander_value - med / 500 ** (1 / 3)
    assert r.lower <= center <= r.upper


def test_ci_reports_both_centers(tri_sample_500):
    r = smoothed_pointwise_ci(tri_sample_500, 0.5, level=0.90, n_boot=40,
                              rng=RngStream(62))
    fit = grenander_fit(tri_sample_500)
    sd = fit_smoothed(tri_sample_500, kernel=EPANECHNIKOV,
                      rule=DEFAULT_POINTWISE_RULE)
    assert r.grenander_value == fit(0.5)
    assert r.smoothed_value == sd.pdf(0.5)


def test_ci_deterministic(tri_sample_500):
    a = smoothed_pointwise_ci(tri_sample_500, 0.5, n_boot=30, rng=RngStream(63))
    b = smoothed_pointwise_ci(tri_sample_500, 0.5, n_boot=30, rng=RngStream(63),
                              threads=4)
    assert a.lower == b.lower and a.upper == b.upper
    assert np.array_equal(a.deviations, b.deviations)


def test_ci_validation(tri_sample_500):
    with pytest.raises(ValueError):
        smoothed_pointwise_ci(tri_sample_500, 0.0, rng=RngStream(1))
    with pytest.raises(ValueError):
        smoothed_pointwise_ci(tri_sample_500, 0.5, n_boot=10, rng=RngStream(1))
    with pytest.raises(ValueError):
        smoothed_pointwise_ci(tri_sample_500, 0.5, level=1.2, rng=RngStream(1))
    with pytest.raises(ValueError):
        smoothed_pointwise_ci(tri_sample_500, 0.5, rng=RngStream(1),
                              rule=DEFAULT_L1_RULE)   # wrong regime
    with pytest.raises(TypeError, match="rng"):
        smoothed_pointwise_ci(tri_sample_500, 0.5)   # rng is required


def test_ci_width_shrinks_at_cube_root_rate():
    tri = triangular_density()
    root = RngStream(64)
    widths = {}
    for n in (500, 4000):
        w = []
        for r in range(8):
            s = sample_from_analytic(tri, n, root.substream(n, r, 0))
            ci = smoothed_pointwise_ci(s, 0.5, level=0.90, n_boot=100,
                                       rng=root.substream(n, r, 1), threads=4)
            w.append(ci.upper - ci.lower)
        widths[n] = np.median(w)
    ratio = widths[4000] / widths[500]
    assert abs(ratio - 0.5) < 0.15


def _log_table_builds(monkeypatch, log):
    """Make every build of a smoother's sampler table append the building
    process's id to the file ``log``, so that builds in forked workers
    count too; returns a reader of the ids logged so far."""
    original = grenboot.smoothing._sampler_table

    def logged(smoothed):
        with open(log, "a") as fh:
            fh.write("%d\n" % os.getpid())
        return original(smoothed)

    monkeypatch.setattr(grenboot.smoothing, "_sampler_table", logged)
    log.write_text("")
    return lambda: [int(p) for p in log.read_text().split()]


@pytest.mark.parametrize("procedure", ["ci", "band"])
def test_bootstrap_builds_the_sampler_table_once_before_the_fork(
        procedure, tri_sample_500, monkeypatch, tmp_path, cheap_forks,
        counted_forks):
    builds = _log_table_builds(monkeypatch, tmp_path / "builds")
    if procedure == "ci":
        smoothed_pointwise_ci(tri_sample_500, 0.5, n_boot=40,
                              rng=RngStream(63), threads=2)
    else:
        l1_band(tri_sample_500, n_boot=50, m=5000, rng=RngStream(63),
                threads=2)
    # one build, in this process: the worker forked after it inherits it
    assert len(counted_forks) == 1
    assert builds() == [os.getpid()]


def test_fit_and_rate_never_build_the_sampler_table(monkeypatch, tmp_path):
    builds = _log_table_builds(monkeypatch, tmp_path / "builds")
    data = str(tmp_path / "d.txt")
    assert main(["gen", "--density", "triangular", "--n", "300", "--seed",
                 "5", "--out", data]) == 0
    assert main(["fit", "--data", data, "--smooth-grid", "41",
                 "--out", str(tmp_path / "fit")]) == 0
    run_rate(triangular_density(), n_grid=(30, 60), replicates=4,
             grid_size=101, rng=RngStream(1), threads=2)
    assert builds() == []


# -- supersample centering -------------------------------------------------------------


def test_supersample_positive_and_deterministic():
    s = sample_from_analytic(triangular_density(), 300, RngStream(69))
    sd = fit_smoothed(s)
    mu1 = supersample_centering(sd, 4000, RngStream(70))
    mu2 = supersample_centering(sd, 4000, RngStream(70))
    assert mu1 > 0
    assert mu1 == mu2


def test_supersample_m_must_exceed_n():
    s = sample_from_analytic(triangular_density(), 300, RngStream(71))
    sd = fit_smoothed(s)
    with pytest.raises(ValueError):
        supersample_centering(sd, 300, RngStream(72))


# -- L1 band -----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_band():
    s = sample_from_analytic(triangular_density(), 400, RngStream(73))
    return s, l1_band(s, level=0.95, n_boot=60, m=4000, rng=RngStream(74),
                      threads=4)


def test_band_fields(small_band):
    s, band = small_band
    assert band.n == 400 and band.n_boot == 60 and band.m == 4000
    assert len(band.standardized) == 60
    assert band.radius == band.mu_hat / 400 ** (1 / 3) + band.c_critical / np.sqrt(400)


def test_band_contains_center(small_band):
    s, band = small_band
    if band.radius >= 0:
        assert band_contains(band, band.center)


def test_band_contains_boundary_weak(small_band):
    s, band = small_band
    # a density at L1 distance exactly radius: blend center toward uniform
    center = band.center
    uni = uniform_density()
    d = l1_distance(center, uni)
    lam = band.radius / d

    class Blend:
        ppoly = PPoly((1 - lam) * center.ppoly.c + lam, center.ppoly.x)

    blend = Blend()
    # mixing is linear in L1 along this segment: distance = lam * d = radius
    assert abs(l1_distance(center, blend) - band.radius) < 1e-9
    assert band_contains(band, blend)


def test_band_excludes_beyond_radius(small_band):
    s, band = small_band
    shifted = 1.01 * band.radius

    class Bumped:
        ppoly = PPoly(band.center.ppoly.c + shifted, band.center.ppoly.x)

    assert not band_contains(band, Bumped())


def test_band_mu_hat_stable_across_calls(small_band):
    s, band = small_band
    again = l1_band(s, level=0.95, n_boot=60, m=4000, rng=RngStream(74),
                    threads=1)
    assert band.mu_hat == again.mu_hat
    assert band.c_critical == again.c_critical
    assert np.array_equal(band.standardized, again.standardized)


def test_band_validation():
    s = sample_from_analytic(triangular_density(), 200, RngStream(75))
    with pytest.raises(ValueError):
        l1_band(s, n_boot=20, rng=RngStream(1))              # B too small
    with pytest.raises(ValueError):
        l1_band(s, n_boot=60, m=500, rng=RngStream(1))       # m < 10n
    with pytest.raises(ValueError):
        l1_band(s, n_boot=60, m=4000, rng=RngStream(1),
                rule=DEFAULT_POINTWISE_RULE)                 # wrong regime
    with pytest.raises(ValueError):
        l1_band(s, n_boot=60, m=4000, rng=RngStream(1),
                kernel=EPANECHNIKOV)                         # kernel grade


def test_band_default_m_rule():
    s = sample_from_analytic(triangular_density(), 400, RngStream(76))
    band = l1_band(s, n_boot=50, rng=RngStream(77), threads=4)
    assert band.m == max(10 * 400, int(np.ceil(400 ** 1.5)))


def test_band_default_m_floor_wins_over_cap():
    # n^1.5 exceeds the 200000 cap, and 10n exceeds the cap too: the floor wins
    s = sample_from_analytic(triangular_density(), 20001, RngStream(78))
    band = l1_band(s, n_boot=50, rng=RngStream(79))
    assert band.m == 200010


def test_empty_band_reported_not_clamped():
    # synthesize a result with a negative radius: contains() is always false
    band = L1BandResult(level=0.95, radius=-0.01, mu_hat=0.5, c_critical=-3.0,
                        m=4000, n=400, n_boot=60, kernel="biweight",
                        alpha=0.18, scale=1.0, h=0.3, empty=True,
                        center=grenander_fit(Sample([0.3, 0.6])),
                        standardized=np.zeros(60), l1_values=np.zeros(60))
    assert not band_contains(band, uniform_density())
    assert not band_contains(band, band.center)
