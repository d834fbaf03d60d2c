"""Simulation experiments: coverage, bootstrap inconsistency, convergence
rates, and the L1 central limit check.

Each experiment returns ``(summary, rows)``: a flat dict of scalars for the
JSON report and a list of per-replicate dicts for the CSV table. All
randomness flows through substreams keyed by replicate index, so results are
identical for any worker count.
"""

import numpy as np

from .density import (Sample, _interior, grenander_fit, l1_distance,
                      rate_constant, sup_distance)
from .inference import (_supersample_size, band_contains, l1_band,
                        smoothed_pointwise_ci)
from .limits import _guard_spread, _var_of_var, l1_centering_constant
from .parallel import InputError, _count, map_indexed
from .resampling import multinomial_bootstrap, sample_from_analytic
from .smoothing import (BIWEIGHT, EPANECHNIKOV, DEFAULT_L1_RULE,
                        DEFAULT_POINTWISE_RULE, fit_smoothed, kernel_satisfies)

__all__ = [
    "run_pointwise_coverage",
    "run_band_coverage",
    "run_inconsistency",
    "run_rate",
    "run_l1_clt",
]


def _binomial_se(p, n):
    return float(np.sqrt(max(p * (1.0 - p), 1.0 / n) / n))


def run_pointwise_coverage(truth, n=500, replicates=200, n_boot=200,
                           level=0.90, t0=0.5, kernel=EPANECHNIKOV,
                           rule=DEFAULT_POINTWISE_RULE, *, rng, threads=1):
    """Monte Carlo coverage of the smoothed-bootstrap pointwise interval.

    Each replicate draws fresh data from ``truth``, builds the interval at
    ``t0``, and records whether the true density value is covered.
    """
    t0 = _interior(t0, "t0")
    replicates = _count(replicates, "replicates", 1)
    target = float(truth(t0))

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        ci = smoothed_pointwise_ci(data, t0, level=level, n_boot=n_boot,
                                   kernel=kernel, rule=rule,
                                   rng=rng.substream(r, 1))
        return {
            "replicate": r,
            "lower": ci.lower,
            "upper": ci.upper,
            "width": ci.upper - ci.lower,
            "grenander_value": ci.grenander_value,
            "smoothed_value": ci.smoothed_value,
            "covered": int(ci.lower <= target <= ci.upper),
        }

    rows = map_indexed(one, replicates, threads)
    coverage = float(np.mean([row["covered"] for row in rows]))
    summary = {
        "experiment": "coverage_pointwise",
        "truth": truth.name,
        "n": int(n),
        "replicates": replicates,
        "n_boot": int(n_boot),
        "level": float(level),
        "t0": t0,
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "true_value": target,
        "coverage": coverage,
        "coverage_se": _binomial_se(coverage, replicates),
        "median_width": float(np.median([row["width"] for row in rows])),
    }
    return summary, rows


def run_band_coverage(truth, n=1000, replicates=100, n_boot=300, m=None,
                      level=0.95, kernel=BIWEIGHT, rule=DEFAULT_L1_RULE,
                      *, rng, threads=1):
    """Monte Carlo coverage of the L1 confidence band.

    Besides the hit rate, the bands' L1-CLT diagnostic is reported: the
    pooled mean of the standardized values across all data replicates,
    centered at 0 by the limit law up to the supersample centering noise.
    The supersample size m defaults to ``l1_band``'s rule at n; it is checked
    before any replicate runs, and the summary reports the m that ran.
    """
    replicates = _count(replicates, "replicates", 1)
    m = _supersample_size(_count(n, "n", 1), m)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        band = l1_band(data, level=level, n_boot=n_boot, m=m, kernel=kernel,
                       rule=rule, rng=rng.substream(r, 1))
        return {
            "replicate": r,
            "radius": band.radius,
            "mu_hat": band.mu_hat,
            "c_critical": band.c_critical,
            "mean_standardized": float(np.mean(band.standardized)),
            "sd_standardized": float(np.std(band.standardized, ddof=1)),
            "covered": int(band_contains(band, truth)),
        }, band.standardized

    rows, pooled = zip(*map_indexed(one, replicates, threads))
    pooled = np.concatenate(pooled)
    coverage = float(np.mean([row["covered"] for row in rows]))
    summary = {
        "experiment": "coverage_band",
        "truth": truth.name,
        "n": int(n),
        "replicates": replicates,
        "n_boot": int(n_boot),
        "m": m,
        "level": float(level),
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "coverage": coverage,
        "coverage_se": _binomial_se(coverage, replicates),
        "median_radius": float(np.median([row["radius"] for row in rows])),
        "pooled_standardized_mean": float(np.mean(pooled)),
        "pooled_standardized_sd": float(np.std(pooled, ddof=1)),
    }
    return summary, list(rows)


def run_inconsistency(truth, constants, n=2000, replicates=2000, t0=0.5,
                      *, rng, threads=1):
    """Unconditional variance of naive-bootstrap deviations at a point.

    Each replicate draws fresh data and one multinomial resample; the
    variance of n^(1/3) (refit*(t0) - truth(t0)) is compared against
    c(t0)^2 Var(argmax): their ratio sits near 2^(2/3), not at the value 2
    that independence of the bootstrap and sampling fluctuations would give.
    The correlation between the bootstrap deviation (about the fit) and the
    sampling deviation (about the truth) is reported alongside.
    """
    t0 = _interior(t0, "t0")
    replicates = _count(replicates, "replicates", 2)
    # the only resample of one point is the point: no bootstrap spread
    n = _count(n, "n", 2)
    if not constants.chernoff_var > 0.0:
        raise InputError("the limit constants' chernoff_var must be positive, "
                         "got %r" % constants.chernoff_var)
    c0 = rate_constant(truth, t0)
    if c0 == 0.0:
        raise InputError("the truth is flat at t0=%r: its rate constant is 0, "
                         "so the variance ratio is undefined" % t0)
    target = float(truth(t0))
    cube = float(n) ** (1.0 / 3.0)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        fit_val = float(grenander_fit(data)(t0))
        star = multinomial_bootstrap(data, rng.substream(r, 1))
        refit_val = float(grenander_fit(star)(t0))
        return {
            "replicate": r,
            "sampling_deviation": cube * (fit_val - target),
            "bootstrap_deviation_vs_truth": cube * (refit_val - target),
            "bootstrap_deviation_vs_fit": cube * (refit_val - fit_val),
        }

    rows = map_indexed(one, replicates, threads)
    samp_dev, boot_dev_truth, boot_dev_fit = (
        np.array([row[key] for row in rows])
        for key in ("sampling_deviation", "bootstrap_deviation_vs_truth",
                    "bootstrap_deviation_vs_fit"))

    for name, dev in (("bootstrap", boot_dev_fit), ("sampling", samp_dev)):
        _guard_spread(dev, "every %s deviation is %%r, so their "
                      "correlation is undefined" % name)
    denom = c0 ** 2 * constants.chernoff_var
    var_boot = float(np.var(boot_dev_truth, ddof=1))
    var_samp = float(np.var(samp_dev, ddof=1))
    ratio = var_boot / denom

    denom_se = c0 ** 2 * constants.chernoff_var_se
    ratio_se = ratio * float(np.sqrt(_var_of_var(boot_dev_truth) / var_boot ** 2
                                     + (denom_se / denom) ** 2))
    corr = float(np.corrcoef(boot_dev_fit, samp_dev)[0, 1])
    summary = {
        "experiment": "inconsistency",
        "truth": truth.name,
        "n": n,
        "replicates": replicates,
        "t0": t0,
        "rate_constant": c0,
        "argmax_var": constants.chernoff_var,
        "argmax_var_se": constants.chernoff_var_se,
        "var_bootstrap_vs_truth": var_boot,
        "var_sampling": var_samp,
        "sampling_ratio": var_samp / denom,
        "ratio": ratio,
        "ratio_se": ratio_se,
        "ratio_ci_low": ratio - 1.96 * ratio_se,
        "ratio_ci_high": ratio + 1.96 * ratio_se,
        "ratio_theory": 2.0 ** (2.0 / 3.0),
        "independence_corr": corr,
        "corr_se": 1.0 / float(np.sqrt(replicates)),
    }
    return summary, rows


def run_rate(truth, n_grid=(1000, 3162, 10000, 31623), replicates=50,
             kernel=BIWEIGHT, rule=DEFAULT_L1_RULE, t0=0.5, grid_size=2001,
             *, rng, threads=1):
    """Convergence rates of the kernel smoother and the Grenander estimator.

    Per replicate, one block of uniforms is drawn at the largest n and its
    prefixes are reused across the n-grid (common random numbers: every n
    sees the correct marginal law while the across-n comparison noise drops).
    Reported: log-log slopes of the median sup-error and median sup
    derivative error of the smoother, the median pointwise error of the
    Grenander fit at t0, and the cube-root-scaled sup-error medians whose
    decrease exhibits the o(n^(-1/3)) sup-norm behavior.
    """
    t0 = _interior(t0, "t0")
    if not kernel_satisfies(kernel, "l1"):
        raise InputError("the rate experiment evaluates second derivatives; "
                         "kernel %s fails the l1-level conditions" % kernel.name)
    replicates = _count(replicates, "replicates", 1)
    n_grid = [_count(n, "each n_grid size", 1) for n in n_grid]
    if len(n_grid) < 2:
        raise InputError("n_grid needs at least two sizes, got %r" % n_grid)
    if sorted(n_grid) != n_grid or len(set(n_grid)) != len(n_grid):
        raise InputError("n_grid must be strictly increasing")
    n_max = n_grid[-1]
    target0 = float(truth(t0))

    def one(r):
        u = rng.substream(r).gen.uniform(size=n_max)
        rows = []
        for n in n_grid:
            data = Sample(truth.ppf(u[:n]))
            smoothed = fit_smoothed(data, kernel, rule)
            interior = np.linspace(smoothed.h, 1.0 - smoothed.h, 1025)
            rows.append({
                "replicate": r,
                "n": n,
                "sup_error": sup_distance(smoothed, truth, grid_size),
                "deriv_error": float(np.max(np.abs(
                    smoothed.dpdf(interior) - truth.dpdf(interior)))),
                "d2_max": float(np.max(np.abs(smoothed.d2pdf(interior)))),
                "grenander_error_t0": abs(float(grenander_fit(data)(t0))
                                          - target0),
            })
        return rows

    rows = [row for rows_r in map_indexed(one, replicates, threads)
            for row in rows_r]

    logn = np.log10(np.asarray(n_grid, dtype=float))

    def med_slope(key):
        med = np.array([np.median([row[key] for row in rows if row["n"] == n])
                        for n in n_grid])
        slope = float(np.polyfit(logn, np.log10(med), 1)[0])
        return med, slope

    med_sup, slope_sup = med_slope("sup_error")
    med_deriv, slope_deriv = med_slope("deriv_error")
    med_gren, slope_gren = med_slope("grenander_error_t0")
    med_d2 = [float(np.median([row["d2_max"] for row in rows if row["n"] == n]))
              for n in n_grid]
    scaled_sup = [float(n ** (1.0 / 3.0) * v) for n, v in zip(n_grid, med_sup)]
    summary = {
        "experiment": "rate",
        "truth": truth.name,
        "replicates": replicates,
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "t0": t0,
        "grid_size": int(grid_size),
        "n_grid": n_grid,
        "median_sup_error": [float(v) for v in med_sup],
        "median_deriv_error": [float(v) for v in med_deriv],
        "median_grenander_error": [float(v) for v in med_gren],
        "median_d2_max": med_d2,
        "scaled_sup_error": scaled_sup,
        "sup_slope": slope_sup,
        "deriv_slope": slope_deriv,
        "grenander_slope": slope_gren,
        "scaled_sup_decreasing": bool(all(b < a for a, b in
                                          zip(scaled_sup[:-1], scaled_sup[1:]))),
    }
    return summary, rows


def run_l1_clt(truth, constants, n=1000, replicates=200, *, rng, threads=1):
    """Standardized L1 errors of the Grenander fit vs the normal reference.

    T_r = n^(1/6) (n^(1/3) ||fit - truth||_1 - mu(truth)) with mu from the
    Monte Carlo constants; the summary compares the empirical mean/variance
    against N(0, sigma^2) and reports a KS p-value.
    """
    replicates = _count(replicates, "replicates", 2)
    if not constants.l1_variance > 0.0:
        raise InputError("the limit constants' l1_variance must be positive, "
                         "got %r" % constants.l1_variance)
    mu = l1_centering_constant(truth, constants)
    sixth = float(n) ** (1.0 / 6.0)
    cube = float(n) ** (1.0 / 3.0)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r))
        l1 = l1_distance(grenander_fit(data), truth)
        return {"replicate": r, "standardized_l1": sixth * (cube * l1 - mu)}

    # imported here, not at module level: it slows the CLI start-up
    from scipy import stats

    rows = map_indexed(one, replicates, threads)
    t_vals = np.array([row["standardized_l1"] for row in rows])
    sigma = float(np.sqrt(constants.l1_variance))
    ks = stats.kstest(t_vals, "norm", args=(0.0, sigma))
    summary = {
        "experiment": "l1clt",
        "truth": truth.name,
        "n": int(n),
        "replicates": replicates,
        "mu": float(mu),
        "sigma2_reference": constants.l1_variance,
        "sigma2_reference_se": constants.l1_variance_se,
        "mean": float(np.mean(t_vals)),
        "mean_se": float(np.std(t_vals, ddof=1) / np.sqrt(replicates)),
        "variance": float(np.var(t_vals, ddof=1)),
        "ks_stat": float(ks.statistic),
        "ks_pvalue": float(ks.pvalue),
    }
    return summary, rows
