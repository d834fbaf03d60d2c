import numpy as np
import pytest
from scipy import stats

from grenboot import (LimitConstants, LimitSimConfig, PathGrid, RngStream,
                      WindowTooSmallError, argmax_process, chernoff_draw,
                      chernoff_sample, doubled_draw, doubled_sample,
                      doubled_scaling_check, estimate_constants,
                      l1_centering_constant, simulate_path,
                      triangular_density, uniform_density)
from grenboot.limits import _MajorantLags


def _flat_path(step, half_width):
    m = round(half_width / step)
    return PathGrid(step, half_width, np.zeros(2 * m + 1))


# -- path simulation -------------------------------------------------------------


def test_path_starts_at_zero():
    p = simulate_path(0.01, 2.0, RngStream(1))
    m = len(p.values) // 2
    assert p.values[m] == 0.0
    assert p.grid[m] == 0.0


def test_path_variance_matches_brownian():
    root = RngStream(2)
    ends = np.empty(10000)
    mids1 = np.empty(10000)
    mids2 = np.empty(10000)
    for i in range(10000):
        p = simulate_path(0.01, 2.0, root.substream(i))
        m = len(p.values) // 2
        ends[i] = p.values[-1]
        mids1[i] = p.values[m + 100]     # Z(1)
        mids2[i] = p.values[m + 200]     # Z(2)
    assert abs(ends.var() / 2.0 - 1.0) < 0.05
    assert abs(np.cov(mids1, mids2)[0, 1] - 1.0) < 0.10


def test_pathgrid_validation():
    with pytest.raises(ValueError):
        PathGrid(0.01, 2.0, np.zeros(10))          # wrong length
    vals = np.zeros(401)
    vals[200] = 0.5
    with pytest.raises(ValueError):
        PathGrid(0.01, 2.0, vals)                  # Z(0) != 0


# -- chernoff draws ---------------------------------------------------------------


def test_flat_path_argmax_zero():
    loc, hit = chernoff_draw(_flat_path(0.01, 2.0))
    assert loc == 0.0 and not hit


def test_reflection_negates_argmax():
    root = RngStream(3)
    for i in range(200):
        p = simulate_path(0.01, 2.0, root.substream(i))
        reflected = PathGrid(p.step, p.half_width, p.values[::-1].copy())
        a, _ = chernoff_draw(p)
        b, _ = chernoff_draw(reflected)
        assert a == -b


def test_chernoff_sample_symmetry():
    draws = chernoff_sample(20000, 0.005, 2.5, RngStream(4), threads=4)
    assert abs(draws.mean()) <= 3 * draws.std() / np.sqrt(len(draws))
    # distribution indistinguishable from its negation
    stat, p = stats.ks_2samp(draws, -draws)
    assert p > 0.01


def test_doubled_with_zero_second_path():
    p = simulate_path(0.01, 2.0, RngStream(5))
    single, _ = chernoff_draw(p)
    dbl, _ = doubled_draw(p, _flat_path(0.01, 2.0))
    assert dbl == single


def test_doubled_requires_shared_grid():
    a = simulate_path(0.01, 2.0, RngStream(6))
    b = simulate_path(0.02, 2.0, RngStream(7))
    with pytest.raises(ValueError):
        doubled_draw(a, b)


def test_scaling_ratio_moderate_scale():
    # acceptance runs the full configuration; this is a coarse guard
    singles = chernoff_sample(4000, 0.005, 2.5, RngStream(8), threads=4)
    doubles = doubled_sample(4000, 0.005, 2.5, RngStream(9), threads=4)
    ratio = doubles.var() / singles.var()
    assert 1.35 < ratio < 1.85


# -- the stationary argmax process -------------------------------------------------


def test_xi_at_zero_is_chernoff_when_window_is_full():
    # the single and doubled draws against the window scan, on a coarse
    # grid, the default scaling grid and one so narrow that many draws hit
    # the window edge
    for step, half_width in ((0.01, 2.0), (0.002, 3.0), (0.05, 0.2)):
        root = RngStream(10)
        n_hits = 0
        for i in range(100):
            p = simulate_path(step, half_width, root.substream(i, 0))
            q = simulate_path(step, half_width, root.substream(i, 1))
            c, c_hit = chernoff_draw(p)
            vals, hits = argmax_process(p, [0.0], half_width)
            assert (vals[0], hits[0]) == (c, c_hit), (step, i)
            summed = PathGrid(step, half_width, p.values + q.values)
            d, d_hit = doubled_draw(p, q)
            vals, hits = argmax_process(summed, [0.0], half_width)
            assert (vals[0], hits[0]) == (d, d_hit), (step, i)
            n_hits += c_hit + d_hit
        if half_width < 0.5:
            assert n_hits > 0


def test_xi_stationarity():
    root = RngStream(11)
    xi0 = np.empty(10000)
    xi5 = np.empty(10000)
    for i in range(10000):
        p = simulate_path(0.01, 7.5, root.substream(i))
        vals, _ = argmax_process(p, [0.0, 5.0], 2.5)
        xi0[i], xi5[i] = vals
    stat, pval = stats.ks_2samp(xi0, xi5)
    assert pval > 0.01


def test_xi_window_must_fit():
    p = simulate_path(0.01, 2.0, RngStream(12))
    with pytest.raises(ValueError):
        argmax_process(p, [1.5], 1.0)   # 1.5 + 1.0 exceeds the extent


def test_window_too_small_error():
    # pathological window so narrow the parabola cannot dominate: argmax
    # lands on the window edge constantly
    root = RngStream(13)
    with pytest.raises(WindowTooSmallError):
        chernoff_sample(500, 0.05, 0.2, root)


# -- majorant read-off of the argmax process -------------------------------------

# (step, window, lag_max, lag_step): the default lab grid, finer and coarser
# ones, grids of four to eight points per window, and windows so narrow that
# most lags fall back to the scan
READOFF_GRIDS = [
    (0.002, 3.0, 8.0, 0.25),
    (0.01, 2.0, 5.0, 0.5),
    (0.05, 1.0, 3.0, 0.25),
    (0.25, 1.0, 2.0, 0.25),
    (0.5, 2.0, 4.0, 0.5),
    (0.1, 0.3, 1.0, 0.1),
    (0.05, 0.2, 1.0, 0.25),
]


@pytest.mark.parametrize("step,window,lag_max,lag_step", READOFF_GRIDS)
def test_majorant_readoff_equals_scan(step, window, lag_max, lag_step):
    config = LimitSimConfig(step=step, window=window, n_paths=2,
                            lag_max=lag_max, lag_step=lag_step, n_batches=2)
    reader = _MajorantLags(config)
    root = RngStream(95000 + int(1000 * step) + int(100 * window))
    n_hits = 0
    for r in range(200):
        path = simulate_path(step, config.half_width, root.substream(r))
        z = reader.draw(root.substream(r))
        # the one-armed draw is the symmetric path from -window on
        assert np.array_equal(z, path.values[path.m - reader.w:])
        vals, hits = reader.read(z)
        want_vals, want_hits = argmax_process(path, config.lags, window)
        assert np.array_equal(vals, want_vals), r
        assert np.array_equal(hits, want_hits), r
        n_hits += int(hits.sum())
    if window < 0.5:
        # boundary flags come only from the fallback scan
        assert n_hits > 0


def test_majorant_readoff_ties_take_leftmost():
    # dyadic values, so every sum is exact: for each lag t the tilted path
    # Z(s) - (s - t)^2 peaks at two grid points, and xi(t) is the left one
    config = LimitSimConfig(step=0.5, window=2.0, n_paths=2, lag_max=1.0,
                            lag_step=0.5, n_batches=2)
    reader = _MajorantLags(config)
    # Z on s = -2, -1.5, ..., 3: ties at s = -0.5, 1 (t = 0), s = 1, 1.5
    # (t = 0.5) and s = 1.5, 2 (t = 1)
    z = np.array([0.0, 0.0, 0.0, 1.25, 0.0, 0.75, 2.0, 2.75, 3.5, 0.0, 0.0])
    vals, hits = reader.read(z)
    assert vals.tolist() == [-0.5, 0.5, 0.5]
    assert not hits.any()
    path = PathGrid(0.5, config.half_width, np.concatenate([[-9.0, -9.0], z]))
    want_vals, want_hits = argmax_process(path, config.lags, config.window)
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(hits, want_hits)


def test_estimate_constants_window_too_small():
    # the window holds four grid steps, so most lags fall back to the scan
    # and it finds the argmax on the window edge far above 0.1% of the time
    config = LimitSimConfig(step=0.05, window=0.2, n_paths=200, lag_max=1.0,
                            lag_step=0.25, n_batches=2)
    with pytest.raises(WindowTooSmallError):
        estimate_constants(config, RngStream(96), threads=1)


# -- constants ----------------------------------------------------------------------


def test_constants_basic(limit_constants):
    c = limit_constants
    assert c.l1_variance > 0
    assert c.chernoff_var > 0 and c.chernoff_abs_mean > 0
    assert c.chernoff_var_se > 0 and c.chernoff_abs_mean_se > 0
    assert c.boundary_hit_rate <= 1e-3


def test_constants_decay_diagnostic(limit_constants):
    # lag_max exceeds twice the window, so the two argmax windows are
    # disjoint and the true covariance is exactly zero
    c = limit_constants
    assert abs(c.cov_at_lag_max) < 2 * c.cov_at_lag_max_se


def test_constants_reproducible():
    config = LimitSimConfig(step=0.02, window=2.0, n_paths=400,
                            lag_max=5.0, lag_step=0.5, n_batches=10)
    a = estimate_constants(config, RngStream(14), threads=1)
    b = estimate_constants(config, RngStream(14), threads=4)
    assert a.to_dict() == b.to_dict()


def test_abs_mean_stable_under_grid_halving():
    base = dict(window=2.0, n_paths=3000, lag_max=4.5, lag_step=0.5,
                n_batches=10)
    coarse = estimate_constants(LimitSimConfig(step=0.01, **base),
                                RngStream(15), threads=4)
    fine = estimate_constants(LimitSimConfig(step=0.005, **base),
                              RngStream(16), threads=4)
    combined = np.hypot(coarse.chernoff_abs_mean_se, fine.chernoff_abs_mean_se)
    assert abs(coarse.chernoff_abs_mean - fine.chernoff_abs_mean) < 2 * combined


def test_chernoff_var_refinement_sequence():
    vars_, ses = [], []
    for k, step in enumerate((0.008, 0.004, 0.002)):
        draws = chernoff_sample(3000, step, 3.0, RngStream(17 + k), threads=4)
        vars_.append(draws.var())
        ses.append(np.sqrt((draws ** 4).mean() - draws.var() ** 2) / np.sqrt(3000))
    for k in range(2):
        combined = np.hypot(ses[k], ses[k + 1])
        assert abs(vars_[k + 1] - vars_[k]) < 2 * combined


@pytest.mark.parametrize("field,kwargs", [
    ("step", dict(step=float("nan"))),
    ("step", dict(step=0.0)),
    ("window", dict(window=float("inf"))),
    ("lag_step", dict(lag_step=-0.25)),
    ("lag_max", dict(lag_max=-1.0)),
    ("lag_max", dict(lag_max=0.0)),
    ("lag_max", dict(lag_max=float("inf"))),
])
def test_config_names_the_bad_field(field, kwargs):
    with pytest.raises(ValueError, match=field):
        LimitSimConfig(**kwargs)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_scaling_check_needs_two_paths(n_paths):
    with pytest.raises(ValueError, match="n_paths"):
        doubled_scaling_check(n_paths, 0.05, 1.0, RngStream(97))


def test_constants_roundtrip_serialization(limit_constants):
    d = limit_constants.to_dict()
    back = LimitConstants.from_dict(d)
    assert back.to_dict() == d


# -- centering constant ---------------------------------------------------------------


def test_centering_uniform_is_zero(limit_constants):
    assert l1_centering_constant(uniform_density(), limit_constants) == 0.0


def test_centering_triangular_composition(limit_constants):
    mu = l1_centering_constant(triangular_density(), limit_constants)
    expected = 2 * limit_constants.chernoff_abs_mean * (2 ** (1 / 3) * 0.75)
    assert abs(mu - expected) < 1e-7


def test_centering_scale_invariance(limit_constants):
    # halving the density and doubling the slope leaves |g'g/2|^(1/3) alone
    from grenboot.density import AnalyticDensity

    def make(c):
        # g(t) = c + s - 2st with s chosen so mass is 1; here use the
        # triangular family reparametrized: g(t) = 2c(1-t) + (1-c)
        pdf = lambda t, c=c: 2 * c * (1 - np.asarray(t, dtype=float)) + (1 - c)
        dpdf = lambda t, c=c: np.full(np.asarray(t, dtype=float).shape, -2.0 * c)
        cdf = lambda t, c=c: (2 * c + (1 - c)) * np.asarray(t) - c * np.asarray(t) ** 2
        return AnalyticDensity("blend", pdf, dpdf, cdf, None,
                               nonincreasing=True)

    g = make(0.5)
    mu = l1_centering_constant(g, limit_constants)
    # direct quadrature of the definition as an independent check
    from grenboot import l1_shape_integral
    assert abs(mu - 2 * limit_constants.chernoff_abs_mean * l1_shape_integral(g)) < 1e-9
