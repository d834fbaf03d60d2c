import numpy as np
import pytest
from scipy import stats

from grenboot import (LimitConstants, LimitSimConfig, RngStream,
                      WindowTooSmallError, doubled_scaling_check,
                      estimate_constants, l1_centering_constant,
                      triangular_density, uniform_density)
from grenboot import limits
from grenboot.limits import (_MajorantLags, _grid_points, _offsets,
                             _scaling_draws, _walk, _window_scan)
from grenboot.parallel import InputError

from .oracles import windowed_argmax


def _center_scan(z, step):
    """Leftmost argmax of z(h) - h^2 over the whole symmetric walk ``z``."""
    m = len(z) // 2
    vals, hits = _window_scan(z, (m,), m, *_offsets(step, m))
    return vals[0], hits[0]


# -- path simulation -------------------------------------------------------------


def test_path_starts_at_zero():
    z = _walk(0.01, 200, 200, RngStream(1))
    assert z[200] == 0.0
    assert _offsets(0.01, 200)[0][200] == 0.0


def test_path_variance_matches_brownian():
    root = RngStream(2)
    ends = np.empty(10000)
    mids1 = np.empty(10000)
    mids2 = np.empty(10000)
    for i in range(10000):
        z = _walk(0.01, 200, 200, root.substream(i))
        ends[i] = z[-1]
        mids1[i] = z[200 + 100]     # Z(1)
        mids2[i] = z[200 + 200]     # Z(2)
    assert abs(ends.var() / 2.0 - 1.0) < 0.05
    assert abs(np.cov(mids1, mids2)[0, 1] - 1.0) < 0.10


# -- chernoff draws ---------------------------------------------------------------


def test_flat_path_argmax_zero():
    loc, hit = _center_scan(np.zeros(401), 0.01)
    assert loc == 0.0 and not hit


def test_reflection_negates_argmax():
    root = RngStream(3)
    for i in range(200):
        z = _walk(0.01, 200, 200, root.substream(i))
        a, _ = _center_scan(z, 0.01)
        b, _ = _center_scan(z[::-1].copy(), 0.01)
        assert a == -b


def test_chernoff_sample_symmetry():
    draws = _scaling_draws(20000, 0.005, 500, RngStream(4), 4, False)
    assert abs(draws.mean()) <= 3 * draws.std() / np.sqrt(len(draws))
    # distribution indistinguishable from its negation
    stat, p = stats.ks_2samp(draws, -draws)
    assert p > 0.01


def test_doubled_with_zero_second_path():
    z = _walk(0.01, 200, 200, RngStream(5))
    assert _center_scan(z + np.zeros(401), 0.01) == _center_scan(z, 0.01)


def test_scaling_ratio_moderate_scale():
    # acceptance runs the full configuration; this is a coarse guard
    singles = _scaling_draws(4000, 0.005, 500, RngStream(8), 4, False)
    doubles = _scaling_draws(4000, 0.005, 500, RngStream(9), 4, True)
    ratio = doubles.var() / singles.var()
    assert 1.35 < ratio < 1.85


# -- the stationary argmax process -------------------------------------------------


def test_xi_at_zero_is_chernoff_when_window_is_full(monkeypatch):
    # the scaling check's single and doubled draws against the oracle, on a
    # coarse grid, the default scaling grid and one so narrow that many
    # draws hit the window edge; the boundary guard only counts here
    counted = []
    monkeypatch.setattr(limits, "_guard_hits",
                        lambda n_hits, n_draws: counted.append(n_hits))
    for step, half_width in ((0.01, 2.0), (0.002, 3.0), (0.05, 0.2)):
        m = _grid_points(step, half_width, "half_width")
        root = RngStream(10)
        single = np.stack([_walk(step, m, m, root.substream(i))
                           for i in range(100)])
        summed = np.stack([_walk(step, m, m, root.substream(i, 0))
                           + _walk(step, m, m, root.substream(i, 1))
                           for i in range(100)])
        n_hits = 0
        for z, doubled in ((single, False), (summed, True)):
            counted.clear()
            draws = _scaling_draws(100, step, m, root, 1, doubled)
            want, hits = windowed_argmax(z, [m], m, step)
            assert np.array_equal(draws, want[:, 0]), (step, doubled)
            assert counted == [int(hits.sum())], (step, doubled)
            n_hits += counted[0]
        if half_width < 0.5:
            assert n_hits > 0


def test_xi_stationarity():
    config = LimitSimConfig(step=0.01, window=2.5, n_paths=4, lag_max=5.0,
                            lag_step=5.0, n_batches=2)
    reader = _MajorantLags(config)
    root = RngStream(11)
    xi0 = np.empty(10000)
    xi5 = np.empty(10000)
    for i in range(10000):
        vals, _ = reader.read(reader.draw(root.substream(i)))
        xi0[i], xi5[i] = vals
    stat, pval = stats.ks_2samp(xi0, xi5)
    assert pval > 0.01


def test_window_too_small_error():
    # pathological window so narrow the parabola cannot dominate: argmax
    # lands on the window edge constantly
    root = RngStream(13)
    with pytest.raises(WindowTooSmallError):
        _scaling_draws(500, 0.05, 4, root, 1, False)


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
    config = LimitSimConfig(step=step, window=window, n_paths=4,
                            lag_max=lag_max, lag_step=lag_step, n_batches=2)
    reader = _MajorantLags(config)
    m, w = reader.m, reader.w
    root = RngStream(95000 + int(1000 * step) + int(100 * window))
    paths = np.stack([_walk(step, m, m, root.substream(r))
                      for r in range(200)])
    centers = m + np.round(config.lags / step).astype(int)
    want_vals, want_hits = windowed_argmax(paths, centers, w, step)
    n_hits = 0
    for r in range(200):
        z = reader.draw(root.substream(r))
        # the one-armed draw is the symmetric walk from -window on
        assert np.array_equal(z, paths[r, m - w:])
        vals, hits = reader.read(z)
        assert np.array_equal(vals, want_vals[r]), r
        assert np.array_equal(hits, want_hits[r]), r
        n_hits += int(hits.sum())
    if window < 0.5:
        # boundary flags come only from the fallback scan
        assert n_hits > 0


def test_majorant_readoff_ties_take_leftmost():
    # dyadic values, so every sum is exact: for each lag t the tilted path
    # Z(s) - (s - t)^2 peaks at two grid points, and xi(t) is the left one
    config = LimitSimConfig(step=0.5, window=2.0, n_paths=4, lag_max=1.0,
                            lag_step=0.5, n_batches=2)
    reader = _MajorantLags(config)
    # Z on s = -2, -1.5, ..., 3: ties at s = -0.5, 1 (t = 0), s = 1, 1.5
    # (t = 0.5) and s = 1.5, 2 (t = 1)
    z = np.array([0.0, 0.0, 0.0, 1.25, 0.0, 0.75, 2.0, 2.75, 3.5, 0.0, 0.0])
    vals, hits = reader.read(z)
    assert vals.tolist() == [-0.5, 0.5, 0.5]
    assert not hits.any()
    want_vals, want_hits = windowed_argmax(z, [4, 5, 6], 4, 0.5)
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
        draws = _scaling_draws(3000, step, _grid_points(step, 3.0, "width"),
                               RngStream(17 + k), 4, False)
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
    # rounds to 0 grid steps, within 1e-9 of a multiple of the step
    ("window", dict(window=1e-10)),
    ("lag_step", dict(lag_step=1e-10, lag_max=1e-10)),
    ("window", dict(window=3.0001)),
])
def test_config_names_the_bad_field(field, kwargs):
    with pytest.raises(ValueError, match=field):
        LimitSimConfig(**kwargs)


def test_lag_grid_ends_at_lag_max():
    # the grid 0, 0.3, 0.6, 0.9 used to report its covariance at 0.9 as
    # lag_max's and end the long-run-variance integral there
    with pytest.raises(InputError) as err:
        LimitSimConfig(step=0.1, window=3.0, n_paths=40, lag_max=1.0,
                       lag_step=0.3, n_batches=2)
    assert str(err.value) == ("lag_max must be a positive multiple of "
                              "lag_step 0.3, got 1.0")


def test_reader_takes_lengths_within_the_tolerance():
    # each length is within 1e-9 of a multiple of the step, their sum is not;
    # the reader used to check the sum and raise
    config = LimitSimConfig(step=0.01, window=2.0000000009, n_paths=4,
                            lag_max=5.0000000009, lag_step=0.5, n_batches=2)
    reader = _MajorantLags(config)
    assert (reader.w, reader.m) == (200, 700)


@pytest.mark.parametrize("n_paths", [0, 1])
def test_scaling_check_needs_two_paths(n_paths):
    with pytest.raises(ValueError, match="n_paths"):
        doubled_scaling_check(n_paths, 0.05, 1.0, RngStream(97))


def test_scaling_check_width_must_be_a_multiple_of_the_step():
    with pytest.raises(InputError, match=r"^half_width must be a positive "
                         r"multiple of step 0\.01, got 2\.005$"):
        doubled_scaling_check(20, 0.01, 2.005, RngStream(97))


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
        return AnalyticDensity("blend", pdf, dpdf, cdf, None)

    g = make(0.5)
    mu = l1_centering_constant(g, limit_constants)
    # direct quadrature of the definition as an independent check
    from grenboot import l1_shape_integral
    assert abs(mu - 2 * limit_constants.chernoff_abs_mean * l1_shape_integral(g)) < 1e-9
