"""Monotone density estimation on [0, 1] with bootstrap inference.

The package fits the nonparametric maximum likelihood estimator for a
non-increasing density (the left derivative of the least concave majorant
of the empirical distribution function), smooths it with a boundary
corrected kernel estimator, and calibrates pointwise confidence intervals
and L1 confidence bands by resampling from the smooth. A Monte Carlo lab
for the limiting argmax process provides the constants the calibrations
are checked against.
"""

__version__ = "0.1.0"

from .density import (AnalyticDensity, DegenerateEstimateError, Sample,
                      StepDensity, grenander_fit, l1_distance,
                      l1_shape_integral, rate_constant, sup_distance,
                      triangular_density, trunc_exp_density, uniform_density)
from .inference import (L1BandResult, PointwiseCIResult, band_contains,
                        empirical_quantile, l1_band, smoothed_pointwise_ci,
                        supersample_centering)
from .limits import (LimitConstants, LimitSimConfig, WindowTooSmallError,
                     doubled_scaling_check, estimate_constants,
                     l1_centering_constant)
from .resampling import (EnvelopeError, RngStream, multinomial_bootstrap,
                         rejection_sample, sample_from_analytic)
from .smoothing import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                        EPANECHNIKOV, BandwidthRule, ConditionReport, Kernel,
                        SmoothedDensity, check_kernel_conditions,
                        fit_smoothed, kernel_by_name, kernel_satisfies)

__all__ = [
    "AnalyticDensity", "BIWEIGHT", "BandwidthRule", "ConditionReport",
    "DEFAULT_L1_RULE", "DEFAULT_POINTWISE_RULE", "DegenerateEstimateError",
    "EPANECHNIKOV", "EnvelopeError", "Kernel", "L1BandResult",
    "LimitConstants", "LimitSimConfig", "PointwiseCIResult", "RngStream",
    "Sample", "SmoothedDensity", "StepDensity", "WindowTooSmallError",
    "band_contains", "check_kernel_conditions", "doubled_scaling_check",
    "empirical_quantile", "estimate_constants", "fit_smoothed",
    "grenander_fit", "kernel_by_name", "kernel_satisfies", "l1_band",
    "l1_centering_constant", "l1_distance", "l1_shape_integral",
    "multinomial_bootstrap", "rate_constant", "rejection_sample",
    "sample_from_analytic", "smoothed_pointwise_ci", "sup_distance",
    "supersample_centering", "triangular_density", "trunc_exp_density",
    "uniform_density",
]
