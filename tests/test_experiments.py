from dataclasses import replace

import numpy as np
import pytest

from grenboot import RngStream, triangular_density, trunc_exp_density
from grenboot.experiments import (run_band_coverage, run_inconsistency,
                                  run_l1_clt, run_pointwise_coverage, run_rate)


def test_pointwise_coverage_smoke():
    summary, rows = run_pointwise_coverage(
        triangular_density(), n=120, replicates=12, n_boot=40, level=0.90,
        rng=RngStream(80), threads=4)
    assert len(rows) == 12
    assert 0.0 <= summary["coverage"] <= 1.0
    assert summary["coverage_se"] > 0
    covered = np.mean([r["covered"] for r in rows])
    assert abs(covered - summary["coverage"]) < 1e-12
    for r in rows:
        assert r["lower"] <= r["upper"]
        assert r["width"] == r["upper"] - r["lower"]


def test_pointwise_coverage_deterministic():
    a, _ = run_pointwise_coverage(triangular_density(), n=60, replicates=6,
                                  n_boot=25, rng=RngStream(81), threads=1)
    b, _ = run_pointwise_coverage(triangular_density(), n=60, replicates=6,
                                  n_boot=25, rng=RngStream(81), threads=4)
    assert a == b


def test_band_coverage_smoke():
    summary, rows = run_band_coverage(
        triangular_density(), n=100, replicates=6, n_boot=50, m=1200,
        level=0.95, rng=RngStream(82), threads=4)
    assert len(rows) == 6
    assert summary["n_empty"] == sum(r["empty"] for r in rows)
    assert np.isfinite(summary["pooled_standardized_mean"])


def test_inconsistency_summary_fields(limit_constants):
    summary, rows = run_inconsistency(
        triangular_density(), limit_constants, n=150, replicates=80,
        rng=RngStream(83), threads=4)
    assert len(rows) == 80
    assert summary["ratio_theory"] == pytest.approx(2 ** (2 / 3))
    assert summary["ratio_ci_low"] < summary["ratio"] < summary["ratio_ci_high"]
    assert summary["rate_constant"] == pytest.approx(2.0)
    assert -1.0 <= summary["independence_corr"] <= 1.0
    # replicate rows carry the joint triple
    for r in rows[:5]:
        assert {"sampling_deviation", "bootstrap_deviation_vs_truth",
                "bootstrap_deviation_vs_fit"} <= set(r)


def test_inconsistency_rejects_constant_deviations(limit_constants):
    # at n = 2 most resamples refit to the fit at t0, and for this seed both
    # replicates do: the correlation would divide by a zero spread
    with pytest.raises(ValueError, match="every bootstrap deviation is 0.0"):
        run_inconsistency(triangular_density(), limit_constants, n=2,
                          replicates=2, rng=RngStream(0))


def test_rate_requires_l1_kernel():
    from grenboot import EPANECHNIKOV
    with pytest.raises(ValueError):
        run_rate(triangular_density(), n_grid=(100, 200), replicates=2,
                 kernel=EPANECHNIKOV, rng=RngStream(84))


def test_rate_smoke_small():
    summary, rows = run_rate(triangular_density(), n_grid=(200, 800),
                             replicates=4, grid_size=501, rng=RngStream(85),
                             threads=4)
    assert len(rows) == 8
    assert summary["n_grid"] == [200, 800]
    assert len(summary["median_sup_error"]) == 2
    # errors fall with n at this scale
    assert summary["median_sup_error"][1] < summary["median_sup_error"][0]
    assert np.isfinite(summary["sup_slope"])


def test_l1_clt_smoke(limit_constants):
    summary, rows = run_l1_clt(trunc_exp_density(), limit_constants, n=200,
                               replicates=40, rng=RngStream(86), threads=4)
    assert len(rows) == 40
    assert np.isfinite(summary["mean"])
    assert summary["sigma2_reference"] == limit_constants.l1_variance
    assert 0.0 <= summary["ks_pvalue"] <= 1.0


def test_l1_clt_rejects_nonpositive_variance(limit_constants):
    for bad in (0.0, -0.1):
        constants = replace(limit_constants, l1_variance=bad)
        with pytest.raises(ValueError, match="l1_variance"):
            run_l1_clt(triangular_density(), constants, n=50, replicates=4,
                       rng=RngStream(88))
