"""Monte Carlo laboratory for the cube-root limit distributions.

Two-sided Brownian paths are simulated as random walks on a uniform grid;
the limit variate is the (leftmost) argmax of Z(h) - h^2, and the stationary
argmax process xi(t) = argmax_{|h|<=W} {Z(t+h) - Z(t) - h^2} supplies the
constants of the L1 central limit theorem: E|xi(0)|, Var of the argmax, and
the long-run variance 8 * int_0^inf cov(|xi(0)|, |xi(x)|) dx.

``estimate_constants`` reads every lag off one least concave majorant per
path. With G(s) = Z(s) - s^2, xi(t) + t is the leftmost maximiser of the
tilted path G(s) + 2ts over |s - t| <= W, and a linearly tilted path is
maximised at a vertex of the majorant of G (the switching relation behind
the Grenander estimator). One decreasing isotonic regression of the slopes
of G gives the vertices, and a search of -2t among the block slopes gives
each lag's vertex. When that vertex lies strictly inside the lag's window it
is the windowed argmax; otherwise the lag falls back to ``_window_scan``,
which sets its boundary flag. The lags are all >= 0, so the lab draws only
the arm it reads: Z on [-W, lag_max + W], the first increments of the
symmetric walk on [-lag_max - W, lag_max + W], so the values and the
argmaxes are those of that path.

``doubled_scaling_check`` scans whole symmetric walks about their centers.
One random walk (``_walk``) draws every path and one window scan
(``_window_scan``) takes every argmax that the majorant does not read, on
offsets built once per run.
"""

import math
from dataclasses import MISSING, dataclass, field, fields

import numpy as np
from scipy.optimize import isotonic_regression

from .density import l1_shape_integral
from .parallel import InputError, _count, map_indexed

__all__ = [
    "WindowTooSmallError",
    "doubled_scaling_check",
    "LimitSimConfig",
    "LimitConstants",
    "estimate_constants",
    "l1_centering_constant",
]

# tolerated fraction of draws whose argmax lands on the window edge
_BOUNDARY_TOLERANCE = 1e-3


class WindowTooSmallError(RuntimeError):
    """Too many argmax draws hit the simulation window boundary."""


def _grid_points(step, length, name, unit="step"):
    """Grid steps in ``length``: length / step, a positive integer. A
    ``length`` that is no positive multiple of ``step`` (to 1e-9) raises
    InputError naming it and ``unit``, the name of ``step``; a ``step``
    that is not positive and finite raises too."""
    if not (math.isfinite(step) and step > 0.0):
        raise InputError("%s must be positive and finite, got %r"
                         % (unit, step))
    m = int(round(length / step)) if math.isfinite(length) else 0
    if m < 1 or abs(m * step - length) > 1e-9:
        raise InputError("%s must be a positive multiple of %s %r, got %r"
                         % (name, unit, step, length))
    return m


def _offsets(step, w):
    """``(offsets, squares)`` of k * step for k in [-w, w]; a run builds
    them once, and every one of its paths shares them."""
    offsets = np.arange(-w, w + 1) * step
    return offsets, offsets ** 2


def _walk(step, left, right, rng):
    """Random walk at k * step for k in [-left, right], 0 at index ``left``:
    the right arm takes the first ``right`` Normal(0, sqrt(step)) increments
    and the left arm the rest, so a shorter left arm draws a prefix."""
    eps = rng.gen.normal(0.0, np.sqrt(step), size=left + right)
    z = np.empty(left + right + 1)
    z[left] = 0.0
    z[left + 1:] = np.cumsum(eps[:right])
    z[left - 1::-1] = np.cumsum(eps[right:])
    return z


def _window_scan(values, centers, w, offsets, offsq):
    """Leftmost argmax of values[c + i] - values[c] - offsq[i + w] over
    |i| <= w, for each center index c; returns ``(values, boundary_hits)``."""
    vals = np.empty(len(centers))
    hits = np.empty(len(centers), dtype=bool)
    for j, c in enumerate(centers):
        seg = values[c - w:c + w + 1] - values[c]
        seg -= offsq
        i = int(np.argmax(seg))
        vals[j] = offsets[i]
        hits[j] = i == 0 or i == 2 * w
    return vals, hits


class _MajorantLags:
    """xi(t) at a config's lags, read off one concave majorant per path.

    A path is Z(k * step) for k in [-w, m], with the origin at index w,
    where w = window / step and m = (window + lag_max) / step: the stretch
    that the windows of the lags cover.
    """

    def __init__(self, config):
        self.step = step = config.step
        self.w = w = _grid_points(step, config.window, "window")
        # counted from the two checked lengths: each may miss a multiple of
        # the step by 1e-9, so their sum may miss by more
        self.m = w + _grid_points(step, config.lag_max, "lag_max")
        self.centers = w + np.round(config.lags / step).astype(int)
        self.two_t = 2.0 * config.lags
        # squares of k * step for k in [-w, m]
        self.s2 = _offsets(step, self.m)[1][self.m - w:]
        self.offsets, self.offsq = _offsets(step, w)

    def draw(self, rng):
        """The symmetric walk ``_walk(step, m, m, rng)`` on [-w, m] only;
        the values are bit-identical to that walk's."""
        return _walk(self.step, self.w, self.m, rng)

    def read(self, z):
        """``(values, boundary_hits)`` of xi at the lags, as
        ``_window_scan`` gives them about the lags' centers."""
        w = self.w
        fit = isotonic_regression(np.diff(z - self.s2) / self.step,
                                  increasing=False)
        slopes = fit.x[fit.blocks[:-1]]
        # leftmost vertex whose right-hand slope is <= -2t: the leftmost
        # maximiser of G(s) + 2ts
        vertex = fit.blocks[np.searchsorted(-slopes, self.two_t, side="left")]
        i = vertex - self.centers + w
        out = (i <= 0) | (i >= 2 * w)
        vals = self.offsets[np.where(out, 0, i)]
        hits = np.zeros(i.size, dtype=bool)
        if out.any():
            vals[out], hits[out] = _window_scan(z, self.centers[out], w,
                                                self.offsets, self.offsq)
        return vals, hits


def _guard_hits(n_hits, n_draws):
    if n_draws > 0 and n_hits / n_draws > _BOUNDARY_TOLERANCE:
        raise WindowTooSmallError(
            "argmax hit the window boundary in %d/%d draws; enlarge the window"
            % (n_hits, n_draws)
        )


def _scaling_draws(n_paths, step, m, rng, threads, doubled):
    """Leftmost argmaxes of Z(h) - h^2 over |h| <= m * step for i < n_paths,
    boundary-guarded. Z is the walk on ``rng.substream(i)``, or for a
    doubled draw the sum of the walks on substreams (i, 0) and (i, 1)."""
    offsets, squares = _offsets(step, m)

    def one(i):
        if doubled:
            z = (_walk(step, m, m, rng.substream(i, 0))
                 + _walk(step, m, m, rng.substream(i, 1)))
        else:
            z = _walk(step, m, m, rng.substream(i))
        vals, hits = _window_scan(z, (m,), m, offsets, squares)
        return vals[0], hits[0]

    out = map_indexed(one, n_paths, threads)
    draws = np.array([v for v, _ in out])
    _guard_hits(sum(bool(hit) for _, hit in out), draws.size)
    return draws


def _guard_spread(x, message):
    """InputError with ``message % x[0]`` when every value of ``x`` is the
    same, so that a variance or correlation of ``x`` would divide by 0."""
    if np.ptp(x) == 0.0:
        raise InputError(message % float(x[0]))


def _var_of_var(x):
    """Variance of the sample variance, by the standard moment formula."""
    n = x.size
    m2 = np.mean((x - x.mean()) ** 2)
    m4 = np.mean((x - x.mean()) ** 4)
    return (m4 - m2 * m2 * (n - 3) / (n - 1)) / n


def doubled_scaling_check(n_paths, step, half_width, rng, threads=1):
    """Compare doubled-noise draws against 2^(1/3)-rescaled single draws.

    Returns a dict with both variances, their ratio (theory: 2^(2/3)), a
    delta-method standard error for the ratio, and a two-sample KS test of
    the rescaled doubled draws against the single draws.
    """
    n_paths = _count(n_paths, "the scaling check's n_paths", 2)
    from scipy import stats

    m = _grid_points(step, half_width, "half_width")
    singles = _scaling_draws(n_paths, step, m, rng.substream(0), threads, False)
    doubles = _scaling_draws(n_paths, step, m, rng.substream(1), threads, True)
    for name, draws in (("single", singles), ("doubled", doubles)):
        _guard_spread(draws, "the scaling check's n_paths is too small: "
                      "every %s draw is %%r, so the variance ratio is "
                      "undefined" % name)
    var_s = float(np.var(singles, ddof=1))
    var_d = float(np.var(doubles, ddof=1))
    ratio = var_d / var_s
    se = ratio * float(np.sqrt(_var_of_var(doubles) / var_d ** 2
                               + _var_of_var(singles) / var_s ** 2))
    ks = stats.ks_2samp(doubles / 2.0 ** (1.0 / 3.0), singles)
    return {
        "n_paths": n_paths,
        "step": float(step),
        "half_width": float(half_width),
        "var_single": var_s,
        "var_doubled": var_d,
        "ratio": ratio,
        "ratio_se": se,
        "ratio_theory": 2.0 ** (2.0 / 3.0),
        "ks_stat": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
    }


@dataclass(frozen=True)
class LimitSimConfig:
    """Grid and replication settings for the constants estimator.

    Paths span window + lag_max, so every lag in [0, lag_max] keeps its
    window inside the simulated extent. The step must be positive and
    finite, window, lag_step and lag_max positive multiples of it, and
    lag_max a positive multiple of lag_step, so that the lag grid ends at
    lag_max. n_batches >= 2 and n_paths >= 2 * n_batches are integers, so
    that every batch holds two paths: the variance of a batch of one is NaN.
    """

    step: float = 0.002
    window: float = 3.0
    n_paths: int = 20000
    lag_max: float = 8.0
    lag_step: float = 0.25
    n_batches: int = 20

    def __post_init__(self):
        for name in ("window", "lag_step", "lag_max"):
            _grid_points(self.step, getattr(self, name), name)
        _grid_points(self.lag_step, self.lag_max, "lag_max", "lag_step")
        _count(self.n_paths, "n_paths",
               2 * _count(self.n_batches, "n_batches", 2))

    @property
    def lags(self):
        return np.round(np.arange(0.0, self.lag_max + 0.5 * self.lag_step,
                                  self.lag_step), 12)


@dataclass
class LimitConstants:
    """Estimated limit constants with batch-means standard errors."""

    chernoff_abs_mean: float
    chernoff_abs_mean_se: float
    chernoff_var: float
    chernoff_var_se: float
    l1_variance: float
    l1_variance_se: float
    cov_at_lag_max: float
    cov_at_lag_max_se: float
    boundary_hit_rate: float
    n_paths: int
    step: float
    window: float
    lag_max: float
    lag_step: float
    n_batches: int
    lag_grid: list = field(default_factory=list)
    abs_cov: list = field(default_factory=list)

    def to_dict(self):
        out = {}
        for k, v in self.__dict__.items():
            if isinstance(v, (list, tuple)):
                out[k] = [float(x) for x in v]
            elif isinstance(v, (int, np.integer)):
                out[k] = int(v)
            else:
                out[k] = float(v)
        return out

    @classmethod
    def from_dict(cls, d):
        """Constants from a :meth:`to_dict` mapping; unknown keys are
        ignored. A missing required key, or a value that is no finite number
        (an integer for a count, a list for a list field), raises ValueError
        naming it, and so does a ``d`` that is no dict, by its type."""
        if not isinstance(d, dict):
            raise ValueError("limit constants must be a JSON object, not %s"
                             % type(d).__name__)
        known = fields(cls)
        missing = [f.name for f in known if f.name not in d
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError("limit constants lack the keys %s"
                             % ", ".join(missing))
        kinds = {float: "a finite number", int: "an integer",
                 list: "a list of finite numbers"}
        for f in known:
            value = d.get(f.name, [])   # only the list fields have defaults
            items = value if f.type is list else [value]
            types = (int,) if f.type is int else (int, float)   # no bool
            if not (isinstance(items, list) and all(
                    type(v) in types and math.isfinite(v) for v in items)):
                raise ValueError("the limit constants' %s must be %s, got %r"
                                 % (f.name, kinds[f.type], value))
        return cls(**{f.name: d[f.name] for f in known if f.name in d})


def estimate_constants(config, rng, threads=1):
    """Estimate E|xi(0)|, Var of the argmax, and the L1 long-run variance.

    One path per replicate; the argmax process is read off at the lag grid
    from the path's concave majorant (see the module docstring), the
    long-run variance is 8x the trapezoid integral of the absolute-value
    covariance over lags, and all standard errors come from batch means over
    ``config.n_batches`` consecutive blocks of replicates.
    """
    lags = config.lags
    n = config.n_paths
    reader = _MajorantLags(config)

    def one(r):
        return reader.read(reader.draw(rng.substream(r)))

    results = map_indexed(one, n, threads)
    xi = np.stack([v for v, _ in results])
    n_hits = int(sum(int(h.sum()) for _, h in results))
    _guard_hits(n_hits, n * lags.size)

    absxi = np.abs(xi)
    x0 = xi[:, 0]
    a0 = absxi[:, 0]

    def sigma2_of(rows_abs):
        c0 = rows_abs[:, 0]
        covs = np.array([np.cov(c0, rows_abs[:, j], ddof=1)[0, 1]
                         for j in range(lags.size)])
        return covs, 8.0 * float(np.trapezoid(covs, lags))

    covs, sigma2 = sigma2_of(absxi)
    blocks = np.array_split(np.arange(n), config.n_batches)

    def batch_se(stat):
        vals = np.array([stat(idx) for idx in blocks])
        return float(np.std(vals, ddof=1) / np.sqrt(len(blocks)))

    abs_mean = float(a0.mean())
    abs_mean_se = batch_se(lambda idx: a0[idx].mean())
    var = float(np.var(x0, ddof=1))
    var_se = batch_se(lambda idx: np.var(x0[idx], ddof=1))
    sigma2_se = batch_se(lambda idx: sigma2_of(absxi[idx])[1])
    cov_tail = float(covs[-1])
    cov_tail_se = batch_se(
        lambda idx: np.cov(absxi[idx, 0], absxi[idx, -1], ddof=1)[0, 1])

    return LimitConstants(
        chernoff_abs_mean=abs_mean,
        chernoff_abs_mean_se=abs_mean_se,
        chernoff_var=var,
        chernoff_var_se=var_se,
        l1_variance=sigma2,
        l1_variance_se=sigma2_se,
        cov_at_lag_max=cov_tail,
        cov_at_lag_max_se=cov_tail_se,
        boundary_hit_rate=n_hits / (n * lags.size),
        n_paths=n,
        step=config.step,
        window=config.window,
        lag_max=config.lag_max,
        lag_step=config.lag_step,
        n_batches=config.n_batches,
        lag_grid=[float(x) for x in lags],
        abs_cov=[float(c) for c in covs],
    )


def l1_centering_constant(density, constants):
    """Centering constant of the L1 error: 2 E|xi(0)| times the shape integral."""
    return 2.0 * constants.chernoff_abs_mean * l1_shape_integral(density)
