"""Simulation experiments: coverage, bootstrap inconsistency, convergence
rates, and the L1 central limit check.

Each experiment returns ``(summary, rows)``: a flat dict of scalars for the
JSON report and a list of per-replicate dicts for the CSV table. All
randomness flows through substreams keyed by replicate index, so results are
identical for any worker count.
"""

import numpy as np

from .density import (Sample, grenander_fit, l1_distance, rate_constant,
                      sup_distance)
from .inference import l1_band, band_contains, smoothed_pointwise_ci
from .limits import _var_of_var, l1_centering_constant
from .parallel import map_indexed
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


def _check_replicates(replicates, least):
    """The summaries need ``least`` replicates: a rate needs one, a sample
    variance two."""
    if replicates < least:
        raise ValueError("replicates must be at least %d, got %d"
                         % (least, replicates))


def run_pointwise_coverage(truth, n=500, replicates=200, n_boot=200,
                           level=0.90, t0=0.5, kernel=EPANECHNIKOV,
                           rule=DEFAULT_POINTWISE_RULE, rng=None, threads=1):
    """Monte Carlo coverage of the smoothed-bootstrap pointwise interval.

    Each replicate draws fresh data from ``truth``, builds the interval at
    ``t0``, and records whether the true density value is covered.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    _check_replicates(replicates, 1)
    target = float(truth(t0))

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        ci = smoothed_pointwise_ci(data, t0, level=level, n_boot=n_boot,
                                   kernel=kernel, rule=rule,
                                   rng=rng.substream(r, 1))
        return ci

    results = map_indexed(one, int(replicates), threads)
    rows = []
    for r, ci in enumerate(results):
        rows.append({
            "replicate": r,
            "lower": ci.lower,
            "upper": ci.upper,
            "width": ci.upper - ci.lower,
            "grenander_value": ci.grenander_value,
            "smoothed_value": ci.smoothed_value,
            "covered": int(ci.lower <= target <= ci.upper),
        })
    coverage = float(np.mean([row["covered"] for row in rows]))
    summary = {
        "experiment": "coverage_pointwise",
        "truth": truth.name,
        "n": int(n),
        "replicates": int(replicates),
        "n_boot": int(n_boot),
        "level": float(level),
        "t0": float(t0),
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "true_value": target,
        "coverage": coverage,
        "coverage_se": _binomial_se(coverage, replicates),
        "median_width": float(np.median([row["width"] for row in rows])),
    }
    return summary, rows


def run_band_coverage(truth, n=1000, replicates=100, n_boot=300, m=20000,
                      level=0.95, kernel=BIWEIGHT, rule=DEFAULT_L1_RULE,
                      rng=None, threads=1):
    """Monte Carlo coverage of the L1 confidence band.

    Besides the hit rate, the pooled mean of the standardized replicate
    values across all data replicates is reported: by the limit law it is
    centered at 0 up to the supersample centering noise.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    _check_replicates(replicates, 1)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        band = l1_band(data, level=level, n_boot=n_boot, m=m, kernel=kernel,
                       rule=rule, rng=rng.substream(r, 1))
        return band, band_contains(band, truth)

    results = map_indexed(one, int(replicates), threads)
    rows = []
    pooled = []
    for r, (band, hit) in enumerate(results):
        pooled.append(band.standardized)
        rows.append({
            "replicate": r,
            "radius": band.radius,
            "mu_hat": band.mu_hat,
            "c_critical": band.c_critical,
            "mean_standardized": float(np.mean(band.standardized)),
            "sd_standardized": float(np.std(band.standardized, ddof=1)),
            "empty": int(band.empty),
            "covered": int(hit),
        })
    pooled = np.concatenate(pooled)
    coverage = float(np.mean([row["covered"] for row in rows]))
    summary = {
        "experiment": "coverage_band",
        "truth": truth.name,
        "n": int(n),
        "replicates": int(replicates),
        "n_boot": int(n_boot),
        "m": int(m),
        "level": float(level),
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "coverage": coverage,
        "coverage_se": _binomial_se(coverage, replicates),
        "median_radius": float(np.median([row["radius"] for row in rows])),
        "pooled_standardized_mean": float(np.mean(pooled)),
        "pooled_standardized_sd": float(np.std(pooled, ddof=1)),
        "n_empty": int(sum(row["empty"] for row in rows)),
    }
    return summary, rows


def run_inconsistency(truth, constants, n=2000, replicates=2000, t0=0.5,
                      rng=None, threads=1):
    """Unconditional variance of naive-bootstrap deviations at a point.

    Each replicate draws fresh data and one multinomial resample; the
    variance of n^(1/3) (refit*(t0) - truth(t0)) is compared against
    c(t0)^2 Var(argmax): their ratio sits near 2^(2/3), not at the value 2
    that independence of the bootstrap and sampling fluctuations would give.
    The correlation between the bootstrap deviation (about the fit) and the
    sampling deviation (about the truth) is reported alongside.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    _check_replicates(replicates, 2)
    if n < 2:
        # the only resample of one point is the point: no bootstrap spread
        raise ValueError("n must be at least 2, got %d" % n)
    c0 = rate_constant(truth, t0)
    if c0 == 0.0:
        raise ValueError("the truth is flat at t0=%r: its rate constant is 0, "
                         "so the variance ratio is undefined" % t0)
    target = float(truth(t0))
    cube = float(n) ** (1.0 / 3.0)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r, 0))
        fit = grenander_fit(data)
        star = multinomial_bootstrap(data, rng.substream(r, 1))
        refit = grenander_fit(star)
        fit_val = float(fit(t0))
        refit_val = float(refit(t0))
        return (cube * (fit_val - target),
                cube * (refit_val - target),
                cube * (refit_val - fit_val))

    results = map_indexed(one, int(replicates), threads)
    samp_dev = np.array([a for a, _, _ in results])
    boot_dev_truth = np.array([b for _, b, _ in results])
    boot_dev_fit = np.array([c for _, _, c in results])

    for name, dev in (("bootstrap", boot_dev_fit), ("sampling", samp_dev)):
        if np.ptp(dev) == 0.0:
            raise ValueError("every %s deviation is %r, so their correlation "
                             "is undefined" % (name, float(dev[0])))
    denom = c0 ** 2 * constants.chernoff_var
    var_boot = float(np.var(boot_dev_truth, ddof=1))
    var_samp = float(np.var(samp_dev, ddof=1))
    ratio = var_boot / denom

    denom_se = c0 ** 2 * constants.chernoff_var_se
    ratio_se = ratio * float(np.sqrt(_var_of_var(boot_dev_truth) / var_boot ** 2
                                     + (denom_se / denom) ** 2))
    corr = float(np.corrcoef(boot_dev_fit, samp_dev)[0, 1])
    rows = [{
        "replicate": r,
        "sampling_deviation": float(samp_dev[r]),
        "bootstrap_deviation_vs_truth": float(boot_dev_truth[r]),
        "bootstrap_deviation_vs_fit": float(boot_dev_fit[r]),
    } for r in range(int(replicates))]
    summary = {
        "experiment": "inconsistency",
        "truth": truth.name,
        "n": int(n),
        "replicates": int(replicates),
        "t0": float(t0),
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
             rng=None, threads=1):
    """Convergence rates of the kernel smoother and the Grenander estimator.

    Per replicate, one block of uniforms is drawn at the largest n and its
    prefixes are reused across the n-grid (common random numbers: every n
    sees the correct marginal law while the across-n comparison noise drops).
    Reported: log-log slopes of the median sup-error and median sup
    derivative error of the smoother, the median pointwise error of the
    Grenander fit at t0, and the cube-root-scaled sup-error medians whose
    decrease exhibits the o(n^(-1/3)) sup-norm behavior.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    if not kernel_satisfies(kernel, "l1"):
        raise ValueError("the rate experiment evaluates second derivatives; "
                         "kernel %s fails the l1-level conditions" % kernel.name)
    _check_replicates(replicates, 1)
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) < 2 or min(n_grid) < 1:
        raise ValueError("n_grid needs at least two sizes, each at least 1, "
                         "got %r" % n_grid)
    if sorted(n_grid) != n_grid or len(set(n_grid)) != len(n_grid):
        raise ValueError("n_grid must be strictly increasing")
    n_max = n_grid[-1]
    target0 = float(truth(t0))

    def one(r):
        u = rng.substream(r).gen.uniform(size=n_max)
        out = []
        for n in n_grid:
            data = Sample(truth.ppf(u[:n]))
            smoothed = fit_smoothed(data, kernel, rule)
            h = smoothed.h
            sup_err = sup_distance(smoothed, truth, grid_size)
            interior = np.linspace(h, 1.0 - h, 1025)
            deriv_err = float(np.max(np.abs(smoothed.dpdf(interior)
                                            - truth.dpdf(interior))))
            d2_max = float(np.max(np.abs(smoothed.d2pdf(interior))))
            gren_err = abs(float(grenander_fit(data)(t0)) - target0)
            out.append((sup_err, deriv_err, d2_max, gren_err))
        return out

    results = map_indexed(one, int(replicates), threads)
    rows = []
    for r, per_n in enumerate(results):
        for n, (sup_err, deriv_err, d2_max, gren_err) in zip(n_grid, per_n):
            rows.append({
                "replicate": r,
                "n": n,
                "sup_error": sup_err,
                "deriv_error": deriv_err,
                "d2_max": d2_max,
                "grenander_error_t0": gren_err,
            })

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
        "replicates": int(replicates),
        "kernel": kernel.name,
        "alpha": rule.alpha,
        "scale": rule.scale,
        "t0": float(t0),
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


def run_l1_clt(truth, constants, n=1000, replicates=200, rng=None, threads=1):
    """Standardized L1 errors of the Grenander fit vs the normal reference.

    T_r = n^(1/6) (n^(1/3) ||fit - truth||_1 - mu(truth)) with mu from the
    Monte Carlo constants; the summary compares the empirical mean/variance
    against N(0, sigma^2) and reports a KS p-value.
    """
    if rng is None:
        raise ValueError("an RngStream is required")
    _check_replicates(replicates, 2)
    if not constants.l1_variance > 0.0:
        raise ValueError("the limit constants' l1_variance must be positive, "
                         "got %r" % constants.l1_variance)
    mu = l1_centering_constant(truth, constants)
    sixth = float(n) ** (1.0 / 6.0)
    cube = float(n) ** (1.0 / 3.0)

    def one(r):
        data = sample_from_analytic(truth, n, rng.substream(r))
        return sixth * (cube * l1_distance(grenander_fit(data), truth) - mu)

    # imported here, not at module level: it slows the CLI start-up
    from scipy import stats

    t_vals = np.array(map_indexed(one, int(replicates), threads))
    sigma = float(np.sqrt(constants.l1_variance))
    ks = stats.kstest(t_vals, "norm", args=(0.0, sigma))
    rows = [{"replicate": r, "standardized_l1": float(t_vals[r])}
            for r in range(int(replicates))]
    summary = {
        "experiment": "l1clt",
        "truth": truth.name,
        "n": int(n),
        "replicates": int(replicates),
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
