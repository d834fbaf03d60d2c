"""Bootstrap confidence procedures for the monotone density estimator.

Resampling from the data (multinomial bootstrap) does not reproduce the
cube-root limit of the Grenander estimator; the procedures here resample
from a boundary-corrected kernel smooth instead. Pointwise intervals invert
the bootstrap deviation quantiles at a fixed interior point; L1 bands
standardize the bootstrap L1 error with a supersample centering estimate.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import Sample, grenander_fit, l1_distance
from .parallel import map_indexed
from .resampling import multinomial_bootstrap, rejection_sample
from .smoothing import (BIWEIGHT, EPANECHNIKOV, DEFAULT_L1_RULE,
                        DEFAULT_POINTWISE_RULE, SmoothedDensity,
                        fit_smoothed, kernel_satisfies)

__all__ = [
    "empirical_quantile",
    "PointwiseCIResult",
    "smoothed_pointwise_ci",
    "naive_bootstrap_deviations",
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
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
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


def _check_level(level):
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")


def smoothed_pointwise_ci(sample, t0, level=0.95, n_boot=500,
                          kernel=EPANECHNIKOV, rule=DEFAULT_POINTWISE_RULE,
                          rng=None, threads=1):
    """Smoothed-bootstrap confidence interval for the density at t0.

    Each replicate redraws n points from the kernel smooth, refits the
    Grenander estimator, and records the scaled deviation
    n^(1/3) (refit(t0) - smooth(t0)); the interval inverts the upper and
    lower deviation quantiles around the Grenander value at t0.
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    t0 = float(t0)
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must be interior to (0, 1)")
    _check_level(level)
    if n_boot < 20:
        raise ValueError("need at least 20 bootstrap replicates")
    if rng is None:
        raise ValueError("an RngStream is required")
    if rule.regime != "pointwise":
        raise ValueError("pointwise intervals need a pointwise-regime bandwidth rule")
    if not kernel_satisfies(kernel, "pointwise"):
        raise ValueError("kernel %s fails the pointwise-level conditions" % kernel.name)

    smoothed = fit_smoothed(sample, kernel, rule)
    gren = grenander_fit(sample)
    n = sample.n
    cube = float(n) ** (1.0 / 3.0)
    center = float(smoothed.pdf(t0))

    def one(b):
        star = rejection_sample(smoothed, n, rng.substream(b))
        refit = grenander_fit(star)
        return cube * (refit(t0) - center)

    deviations = np.array(map_indexed(one, int(n_boot), threads))
    alpha = 1.0 - level
    q_hi = empirical_quantile(deviations, 1.0 - alpha / 2.0)
    q_lo = empirical_quantile(deviations, alpha / 2.0)
    point = float(gren(t0))
    return PointwiseCIResult(
        t0=t0,
        level=float(level),
        lower=point - q_hi / cube,
        upper=point - q_lo / cube,
        grenander_value=point,
        smoothed_value=center,
        n=n,
        n_boot=int(n_boot),
        kernel=kernel.name,
        alpha=rule.alpha,
        scale=rule.scale,
        h=smoothed.h,
        deviations=deviations,
    )


def naive_bootstrap_deviations(sample, t0, n_boot, rng, threads=1,
                               center="fit"):
    """Scaled deviations of multinomial-bootstrap Grenander refits at t0.

    ``center="fit"`` measures n^(1/3) (refit(t0) - fit(t0)); any float is
    used verbatim as the centering value (e.g. the true density, for
    studying the unconditional law). This resampler is the one that fails
    to reproduce the cube-root limit; it is provided for diagnostics.
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    t0 = float(t0)
    if not 0.0 < t0 < 1.0:
        raise ValueError("t0 must be interior to (0, 1)")
    fit = grenander_fit(sample)
    c0 = float(fit(t0)) if center == "fit" else float(center)
    cube = float(sample.n) ** (1.0 / 3.0)

    def one(b):
        star = multinomial_bootstrap(sample, rng.substream(b))
        return cube * (grenander_fit(star)(t0) - c0)

    return np.array(map_indexed(one, int(n_boot), threads))


def supersample_centering(smoothed, m, rng):
    """Centering estimate from one supersample of size m >> n.

    Draws m points from the kernel smooth, refits the Grenander estimator,
    and returns m^(1/3) times the L1 distance between the refit and the
    smooth. Requires m strictly greater than the fitted sample size.
    """
    m = int(m)
    if m <= smoothed.sample.n:
        raise ValueError("supersample size m must exceed n")
    star = rejection_sample(smoothed, m, rng)
    refit = grenander_fit(star)
    return float(m) ** (1.0 / 3.0) * l1_distance(refit, smoothed)


@dataclass
class L1BandResult:
    """L1 confidence band: center, radius, and the standardized replicates."""

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


def l1_band(sample, level=0.95, n_boot=300, m=None, kernel=BIWEIGHT,
            rule=DEFAULT_L1_RULE, rng=None, threads=1, m_cap=200000):
    """Fixed-radius L1 confidence band around the Grenander fit.

    The bootstrap L1 errors n^(1/3) * ||refit_b - smooth||_1 are centered
    with a supersample estimate mu_hat and standardized by n^(1/6); the band
    radius is n^(-1/3) mu_hat + n^(-1/2) q_(level) of the standardized
    sample. A negative radius yields an empty band (flagged, with a warning).

    The supersample size defaults to max(10n, min(ceil(n^1.5), m_cap)): the
    cap bounds the n^1.5 growth, and the 10n floor wins over the cap once
    n > m_cap / 10. An explicit ``m`` below 10n raises ValueError.
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    _check_level(level)
    if n_boot < 50:
        raise ValueError("need at least 50 bootstrap replicates")
    if rng is None:
        raise ValueError("an RngStream is required")
    if rule.regime != "l1":
        raise ValueError("L1 bands need an l1-regime bandwidth rule")
    if not kernel_satisfies(kernel, "l1"):
        raise ValueError("kernel %s fails the l1-level conditions" % kernel.name)
    n = sample.n
    if m is None:
        m = max(10 * n, min(math.ceil(n ** 1.5), m_cap))
    m = int(m)
    if m < 10 * n:
        raise ValueError("supersample size m must be at least 10n")

    smoothed = fit_smoothed(sample, kernel, rule)
    center = grenander_fit(sample)
    mu_hat = supersample_centering(smoothed, m, rng.substream(0))
    cube = float(n) ** (1.0 / 3.0)
    sixth = float(n) ** (1.0 / 6.0)

    def one(b):
        star = rejection_sample(smoothed, n, rng.substream(1 + b))
        return l1_distance(grenander_fit(star), smoothed)

    l1_values = np.array(map_indexed(one, int(n_boot), threads))
    standardized = sixth * (cube * l1_values - mu_hat)
    c_crit = empirical_quantile(standardized, level)
    radius = mu_hat / cube + c_crit / np.sqrt(n)
    empty = bool(radius < 0.0)
    if empty:
        warnings.warn("L1 band radius is negative; the band is empty",
                      RuntimeWarning, stacklevel=2)
    return L1BandResult(
        level=float(level),
        radius=float(radius),
        mu_hat=float(mu_hat),
        c_critical=float(c_crit),
        m=m,
        n=n,
        n_boot=int(n_boot),
        kernel=kernel.name,
        alpha=rule.alpha,
        scale=rule.scale,
        h=smoothed.h,
        empty=empty,
        center=center,
        standardized=standardized,
        l1_values=l1_values,
    )


def band_contains(band, density, tol=1e-8):
    """Whether a density lies within the band: L1 distance to the center
    at most the radius (weak inequality; empty bands contain nothing).

    The quadrature tolerance is granted as slack so a density at distance
    exactly equal to the radius tests inside regardless of rounding.
    """
    if band.empty:
        return False
    return l1_distance(band.center, density, tol=tol) <= band.radius + tol
