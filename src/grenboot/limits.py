"""Monte Carlo laboratory for the cube-root limit distributions.

Two-sided Brownian paths are simulated as random walks on a uniform grid;
the limit variate is the (leftmost) argmax of Z(h) - h^2, and the stationary
argmax process xi(t) = argmax_{|h|<=W} {Z(t+h) - Z(t) - h^2} supplies the
constants of the L1 central limit theorem: E|xi(0)|, Var of the argmax, and
the long-run variance 8 * int_0^inf cov(|xi(0)|, |xi(x)|) dx.
"""

from dataclasses import dataclass, field

import numpy as np

from .density import l1_shape_integral
from .parallel import map_indexed

__all__ = [
    "WindowTooSmallError",
    "PathGrid",
    "simulate_path",
    "chernoff_draw",
    "doubled_draw",
    "argmax_process",
    "chernoff_sample",
    "doubled_sample",
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


class PathGrid:
    """Two-sided random-walk path on a uniform grid centered at 0.

    ``values[m + k]`` approximates Z(k * step) for k in [-m, m], with
    ``values[m] == 0``.
    """

    def __init__(self, step, half_width, values):
        step = float(step)
        if not step > 0.0:
            raise ValueError("step must be positive")
        m = int(round(half_width / step))
        if m < 1 or abs(m * step - half_width) > 1e-9:
            raise ValueError("half_width must be a positive multiple of step")
        values = np.asarray(values, dtype=float)
        if values.shape != (2 * m + 1,):
            raise ValueError("values must have length 2*m + 1")
        if values[m] != 0.0:
            raise ValueError("path must vanish at the origin")
        self.step = step
        self.half_width = m * step
        self.m = m
        self.values = values
        self._grid = None
        self._gridsq = None

    @property
    def grid(self):
        if self._grid is None:
            self._grid = np.arange(-self.m, self.m + 1) * self.step
        return self._grid

    @property
    def _grid_squared(self):
        if self._gridsq is None:
            self._gridsq = self.grid ** 2
        return self._gridsq

    def reflected(self):
        """The path h -> Z(-h); same distribution as this one."""
        return PathGrid(self.step, self.half_width, self.values[::-1].copy())


def simulate_path(step, half_width, rng):
    """Simulate two-sided Brownian motion on a grid of spacing ``step``.

    Increments are independent Normal(0, sqrt(step)); the two arms out of 0
    are independent, matching the two-sided construction.
    """
    m = int(round(half_width / step))
    if m < 1 or abs(m * step - half_width) > 1e-9:
        raise ValueError("half_width must be a positive multiple of step")
    eps = rng.gen.normal(0.0, np.sqrt(step), size=2 * m)
    values = np.empty(2 * m + 1)
    values[m] = 0.0
    values[m + 1:] = np.cumsum(eps[:m])
    values[m - 1::-1] = np.cumsum(eps[m:])
    return PathGrid(step, m * step, values)


def chernoff_draw(path):
    """Leftmost argmax of Z(h) - h^2 over the path window.

    Returns ``(location, boundary_hit)``; the flag is set when the argmax
    lands on the first or last grid point, indicating the window clipped it.
    """
    crit = path.values - path._grid_squared
    i = int(np.argmax(crit))
    return float(path.grid[i]), i == 0 or i == crit.size - 1


def doubled_draw(path_a, path_b):
    """Leftmost argmax of Z_a(h) + Z_b(h) - h^2 for two independent paths.

    Doubling the noise scales the argmax by 2^(1/3) in distribution, which
    is the calibration identity the scaling check exercises.
    """
    if path_a.step != path_b.step or path_a.m != path_b.m:
        raise ValueError("paths must share the same grid")
    crit = path_a.values + path_b.values - path_a._grid_squared
    i = int(np.argmax(crit))
    return float(path_a.grid[i]), i == 0 or i == crit.size - 1


def argmax_process(path, t_values, window):
    """xi(t) = leftmost argmax over |h| <= window of Z(t+h) - Z(t) - h^2.

    ``t_values`` must land on the path grid and keep the window inside the
    simulated extent. Returns ``(values, boundary_hits)`` arrays.
    """
    w = int(round(window / path.step))
    if w < 1 or abs(w * path.step - window) > 1e-9:
        raise ValueError("window must be a positive multiple of step")
    offsets = np.arange(-w, w + 1) * path.step
    offsq = offsets ** 2
    t_values = np.asarray(t_values, dtype=float)
    vals = np.empty(t_values.size)
    hits = np.empty(t_values.size, dtype=bool)
    for j, t in enumerate(t_values):
        c = path.m + int(round(t / path.step))
        if abs((c - path.m) * path.step - t) > 1e-9:
            raise ValueError("t=%r does not land on the path grid" % t)
        if c - w < 0 or c + w >= path.values.size:
            raise ValueError("window around t=%r exceeds the path extent" % t)
        seg = path.values[c - w:c + w + 1] - path.values[c]
        i = int(np.argmax(seg - offsq))
        vals[j] = offsets[i]
        hits[j] = i == 0 or i == 2 * w
    return vals, hits


def _guard_hits(n_hits, n_draws):
    if n_draws > 0 and n_hits / n_draws > _BOUNDARY_TOLERANCE:
        raise WindowTooSmallError(
            "argmax hit the window boundary in %d/%d draws; enlarge the window"
            % (n_hits, n_draws)
        )


def chernoff_sample(n_paths, step, half_width, rng, threads=1):
    """n_paths independent argmax draws; errors if boundary hits exceed 0.1%."""

    def one(i):
        return chernoff_draw(simulate_path(step, half_width, rng.substream(i)))

    out = map_indexed(one, int(n_paths), threads)
    draws = np.array([v for v, _ in out])
    _guard_hits(sum(hit for _, hit in out), draws.size)
    return draws


def doubled_sample(n_paths, step, half_width, rng, threads=1):
    """n_paths doubled-noise argmax draws (two fresh paths per draw)."""

    def one(i):
        a = simulate_path(step, half_width, rng.substream(i, 0))
        b = simulate_path(step, half_width, rng.substream(i, 1))
        return doubled_draw(a, b)

    out = map_indexed(one, int(n_paths), threads)
    draws = np.array([v for v, _ in out])
    _guard_hits(sum(hit for _, hit in out), draws.size)
    return draws


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
    from scipy import stats

    singles = chernoff_sample(n_paths, step, half_width, rng.substream(0), threads)
    doubles = doubled_sample(n_paths, step, half_width, rng.substream(1), threads)
    var_s = float(np.var(singles, ddof=1))
    var_d = float(np.var(doubles, ddof=1))
    ratio = var_d / var_s
    se = ratio * float(np.sqrt(_var_of_var(doubles) / var_d ** 2
                               + _var_of_var(singles) / var_s ** 2))
    ks = stats.ks_2samp(doubles / 2.0 ** (1.0 / 3.0), singles)
    return {
        "n_paths": int(n_paths),
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

    The path half-width is derived as window + lag_max so every lag in
    [0, lag_max] keeps its window inside the simulated extent.
    """

    step: float = 0.002
    window: float = 3.0
    n_paths: int = 20000
    lag_max: float = 8.0
    lag_step: float = 0.25
    n_batches: int = 20

    def __post_init__(self):
        if self.step <= 0 or self.window <= 0 or self.lag_max < 0 or self.lag_step <= 0:
            raise ValueError("step, window and lag_step must be positive")
        if self.n_paths < 2 or self.n_batches < 2 or self.n_batches > self.n_paths:
            raise ValueError("need n_paths >= n_batches >= 2")
        for name, x in (("window", self.window), ("lag_max", self.lag_max),
                        ("lag_step", self.lag_step)):
            k = round(x / self.step)
            if abs(k * self.step - x) > 1e-9:
                raise ValueError("%s must be a multiple of step" % name)

    @property
    def half_width(self):
        return self.window + self.lag_max

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
        allowed = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in allowed})


def estimate_constants(config, rng, threads=1):
    """Estimate E|xi(0)|, Var of the argmax, and the L1 long-run variance.

    One path per replicate; the argmax process is read off at the lag grid,
    the long-run variance is 8x the trapezoid integral of the absolute-value
    covariance over lags, and all standard errors come from batch means over
    ``config.n_batches`` consecutive blocks of replicates.
    """
    lags = config.lags
    n = config.n_paths

    def one(r):
        path = simulate_path(config.step, config.half_width, rng.substream(r))
        return argmax_process(path, lags, config.window)

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
