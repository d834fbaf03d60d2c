"""Bootstrap confidence procedures for the monotone density estimator.

Resampling from the data (multinomial bootstrap) does not reproduce the
cube-root limit of the Grenander estimator; the procedures here resample
from a boundary-corrected kernel smooth instead. Pointwise intervals invert
the bootstrap deviation quantiles at a fixed interior point; an L1 band's
radius is the bootstrap quantile of the L1 errors.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .density import (Sample, _interior, _l1_steps, _step_value,
                      grenander_fit, l1_distance)
from .parallel import InputError, _count, map_indexed
from .resampling import rejection_sample
from .smoothing import (BIWEIGHT, EPANECHNIKOV, DEFAULT_L1_RULE,
                        DEFAULT_POINTWISE_RULE, fit_smoothed,
                        kernel_satisfies)

__all__ = [
    "empirical_quantile",
    "PointwiseCIResult",
    "smoothed_pointwise_ci",
    "supersample_centering",
    "L1BandResult",
    "l1_band",
    "band_contains",
]


def empirical_quantile(values, p):
    """Order-statistic quantile: the k-th smallest with k = ceil(p * B).

    The product p * B is snapped to the nearest integer before the ceiling
    when it is within float slop of one, so p=0.95, B=100 gives k=95.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
        raise ValueError("values must be a nonempty 1-d array of finite "
                         "values")
    p = _interior(p, "p")
    pb = p * v.size
    nearest = round(pb)
    if abs(pb - nearest) < 1e-9:
        pb = nearest
    k = min(max(int(math.ceil(pb)), 1), v.size)
    return float(v[k - 1])


@dataclass
class PointwiseCIResult:
    """Pointwise interval with its bootstrap deviation sample.

    ``lower``/``upper`` invert the deviation quantiles around the Grenander
    value at t0; the smoothed value (the bootstrap centering) is reported
    alongside.
    """

    t0: float
    level: float
    lower: float
    upper: float
    grenander_value: float
    smoothed_value: float
    n: int
    n_boot: int
    kernel: str
    alpha: float
    scale: float
    h: float
    deviations: np.ndarray = field(repr=False)

    def summary_dict(self):
        out = {k: v for k, v in self.__dict__.items() if k != "deviations"}
        return out


def smoothed_pointwise_ci(sample, t0, level=0.95, n_boot=500,
                          kernel=EPANECHNIKOV, rule=DEFAULT_POINTWISE_RULE,
                          *, rng, threads=1):
    """Smoothed-bootstrap confidence interval for the density at t0.

    Each replicate redraws n points from the kernel smooth, refits the
    Grenander estimator, and records the scaled deviation
    n^(1/3) (refit(t0) - smooth(t0)); the interval inverts the upper and
    lower deviation quantiles around the Grenander value at t0.
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    t0 = _interior(t0, "t0")
    level = _interior(level, "level")
    n_boot = _count(n_boot, "n_boot", 20)
    if rule.regime != "pointwise":
        raise InputError("pointwise intervals need a pointwise-regime "
                         "bandwidth rule")
    if not kernel_satisfies(kernel, "pointwise"):
        raise InputError("kernel %s fails the pointwise-level conditions"
                         % kernel.name)

    smoothed = fit_smoothed(sample, kernel, rule)
    gren = grenander_fit(sample)
    n = sample.n
    cube = float(n) ** (1.0 / 3.0)
    center = float(smoothed.pdf(t0))

    def one(b):
        star = rejection_sample(smoothed, n, rng.substream(b))
        refit = grenander_fit(star)
        # refit(t0) without StepDensity.__call__'s check; t0 is checked
        return cube * (_step_value(refit.breakpoints, refit.heights, t0)
                       - center)

    deviations = np.array(map_indexed(one, n_boot, threads))
    alpha = 1.0 - level
    q_hi = empirical_quantile(deviations, 1.0 - alpha / 2.0)
    q_lo = empirical_quantile(deviations, alpha / 2.0)
    point = float(gren(t0))
    return PointwiseCIResult(
        t0=t0,
        level=level,
        lower=point - q_hi / cube,
        upper=point - q_lo / cube,
        grenander_value=point,
        smoothed_value=center,
        n=n,
        n_boot=n_boot,
        kernel=kernel.name,
        alpha=rule.alpha,
        scale=rule.scale,
        h=smoothed.h,
        deviations=deviations,
    )


def supersample_centering(smoothed, m, rng):
    """Centering estimate from one supersample of size m >> n.

    Draws m points from the kernel smooth, refits the Grenander estimator,
    and returns m^(1/3) times the L1 distance between the refit and the
    smooth. Requires m strictly greater than the fitted sample size.
    """
    m = _count(m, "supersample size m", smoothed.sample.n + 1)
    star = rejection_sample(smoothed, m, rng)
    refit = grenander_fit(star)
    return float(m) ** (1.0 / 3.0) * l1_distance(refit, smoothed)


@dataclass
class L1BandResult:
    """L1 confidence band: center, radius, and the bootstrap L1 errors.

    ``radius`` is the ``level`` quantile of ``l1_values``; ``mu_hat``,
    ``c_critical`` and ``standardized`` are the L1-CLT diagnostic. ``empty``
    is always false; it stays so that ``grenboot band``'s JSON keeps its keys.
    """

    level: float
    radius: float
    mu_hat: float
    c_critical: float
    m: int
    n: int
    n_boot: int
    kernel: str
    alpha: float
    scale: float
    h: float
    empty: bool
    center: object = field(repr=False)
    standardized: np.ndarray = field(repr=False)
    l1_values: np.ndarray = field(repr=False)

    def summary_dict(self):
        skip = {"center", "standardized", "l1_values"}
        out = {k: v for k, v in self.__dict__.items() if k not in skip}
        out["center_breakpoints"] = [float(x) for x in self.center.breakpoints]
        out["center_heights"] = [float(x) for x in self.center.heights]
        return out


def _supersample_size(n, m):
    """A band's supersample size on n points: ``m``, at least 10n, or by
    default max(10n, min(ceil(n^1.5), 200000))."""
    if m is None:
        m = max(10 * n, min(math.ceil(n ** 1.5), 200000))
    return _count(m, "supersample size m", 10 * n)


def l1_band(sample, level=0.95, n_boot=300, m=None, kernel=BIWEIGHT,
            rule=DEFAULT_L1_RULE, *, rng, threads=1):
    """Fixed-radius L1 confidence band around the Grenander fit.

    The radius is the ``level`` quantile of the bootstrap L1 errors
    ||refit_b - smooth||_1: n^(-1/3) mu_hat + n^(-1/2) c_level, with c_level
    the ``level`` quantile of the L1-CLT diagnostic n^(1/6) (n^(1/3) *
    ||refit_b - smooth||_1 - mu_hat), whatever the supersample centering
    mu_hat. The workers return the refits, and the caller computes all
    ``n_boot`` distances to the smooth in one batched pass over its pieces,
    so the values do not depend on ``threads``.

    The diagnostic's supersample size m defaults to max(10n, min(ceil(n^1.5),
    200000)); an explicit ``m`` may exceed the cap, and one below 10n raises.
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    level = _interior(level, "level")
    n_boot = _count(n_boot, "n_boot", 50)
    if rule.regime != "l1":
        raise InputError("L1 bands need an l1-regime bandwidth rule")
    if not kernel_satisfies(kernel, "l1"):
        raise InputError("kernel %s fails the l1-level conditions"
                         % kernel.name)
    n = sample.n
    m = _supersample_size(n, m)

    smoothed = fit_smoothed(sample, kernel, rule)
    center = grenander_fit(sample)
    mu_hat = supersample_centering(smoothed, m, rng.substream(0))
    cube = float(n) ** (1.0 / 3.0)
    sixth = float(n) ** (1.0 / 6.0)

    def one(b):
        star = rejection_sample(smoothed, n, rng.substream(1 + b))
        return grenander_fit(star)

    refits = map_indexed(one, n_boot, threads)
    l1_values = _l1_steps(refits, smoothed.ppoly)
    standardized = sixth * (cube * l1_values - mu_hat)
    return L1BandResult(
        level=level,
        radius=empirical_quantile(l1_values, level),
        mu_hat=float(mu_hat),
        c_critical=empirical_quantile(standardized, level),
        m=m,
        n=n,
        n_boot=n_boot,
        kernel=kernel.name,
        alpha=rule.alpha,
        scale=rule.scale,
        h=smoothed.h,
        empty=False,
        center=center,
        standardized=standardized,
        l1_values=l1_values,
    )


def band_contains(band, density):
    """Whether a density lies within the band: L1 distance to the center
    at most the radius (weak inequality; a negative radius holds nothing).

    ``density`` and the step-density center must form a pair that
    :func:`~grenboot.density.l1_distance` supports.
    """
    # the exact L1 still carries rounding; 1e-12 of slack keeps a density at
    # distance exactly the radius inside
    return l1_distance(band.center, density) <= band.radius + 1e-12
