"""Boundary-corrected kernel density estimation on [0, 1].

The raw kernel estimate is only trustworthy on [h, 1-h]; near the endpoints
it is replaced by linear extensions anchored at the seams, with the extension
slope clamped to be non-increasing. The result is truncated at zero and
rescaled to unit mass. With a polynomial kernel all of this is exactly a
piecewise polynomial, built once per fit. Kernel admissibility is checked
exactly at two levels: "pointwise" suffices for pointwise bootstrap limits,
"l1" adds the moment conditions the L1 theory needs.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb

import numpy as np
from numpy.polynomial import Polynomial
from scipy.interpolate import PPoly

from .density import DegenerateEstimateError, Sample, _at, _split
from .parallel import InputError, _count
from .resampling import _sampler_table

__all__ = [
    "Kernel",
    "EPANECHNIKOV",
    "BIWEIGHT",
    "kernel_by_name",
    "ConditionReport",
    "check_kernel_conditions",
    "kernel_satisfies",
    "BandwidthRule",
    "DEFAULT_POINTWISE_RULE",
    "DEFAULT_L1_RULE",
    "SmoothedDensity",
    "fit_smoothed",
]


class Kernel:
    """Polynomial smoothing kernel K(v) = sum_p coefficients[p] v^p on
    [-1, 1], and exactly 0 outside.

    A kernel holds its ``name`` and its read-only ascending ``coefficients``,
    nothing else: its extremes and moments are computed exactly from them,
    and :class:`SmoothedDensity` builds the smoother from them.
    """

    def __init__(self, name, coefficients):
        coef = np.array(coefficients, dtype=float)
        if coef.ndim != 1 or coef.size == 0 or not np.all(np.isfinite(coef)):
            raise ValueError("kernel coefficients must be a nonempty 1-d "
                             "vector of finite values")
        coef.flags.writeable = False
        self.name = name
        self.coefficients = coef

    def __repr__(self):
        return "Kernel(%r)" % self.name


EPANECHNIKOV = Kernel("epanechnikov", [0.75, 0.0, -0.75])

BIWEIGHT = Kernel("biweight",
                  [15.0 / 16.0, 0.0, -30.0 / 16.0, 0.0, 15.0 / 16.0])

_KERNELS = {k.name: k for k in (EPANECHNIKOV, BIWEIGHT)}


def kernel_by_name(name):
    try:
        return _KERNELS[name]
    except KeyError:
        raise InputError(
            "unknown kernel %r (available: %s)" % (name, ", ".join(sorted(_KERNELS)))
        ) from None


@dataclass(frozen=True)
class ConditionReport:
    """One admissibility condition: name, pass flag, numeric residual."""

    name: str
    passed: bool
    residual: float


def _extreme_values(poly):
    """``poly`` at -1, 1 and at the real parts of its critical points,
    clipped to [-1, 1]: values it takes on [-1, 1], among them its extremes
    there. Trailing derivative coefficients below 1e-16 of the largest move
    the derivative on [-1, 1] by less than its rounding; they are dropped,
    since a tiny leading coefficient overflows the root finder."""
    d = poly.deriv()
    crit = d.trim(1e-16 * np.max(np.abs(d.coef))).roots().real
    return poly(np.concatenate([[-1.0, 1.0], np.clip(crit, -1.0, 1.0)]))


def _moment(poly, order, power):
    """Exact integral of v^power poly^(order)(v) over [-1, 1]."""
    prim = (poly.deriv(order) * Polynomial([0.0, 1.0]) ** power).integ()
    return float(prim(1.0) - prim(-1.0))


_CONDITION_TOL = 1e-6


def check_kernel_conditions(kernel, level="pointwise"):
    """Admissibility report for a kernel at the requested level.

    ``level="pointwise"`` checks positivity, unit mass and the
    first-derivative sign and moment conditions that the pointwise bootstrap
    limit needs; ``level="l1"`` additionally checks the zero first moment and
    the second-derivative moment conditions of the L1 theory. Every residual
    is exact up to rounding: moments are integrals of polynomials, and signs
    come from the extremes of K and of v K'(v) on [-1, 1]. Compact support
    and bounded derivatives of every order, which the theory also asks for,
    hold for every polynomial kernel by construction.

    Returns a list of :class:`ConditionReport`; each residual is the amount
    by which the condition is missed (0 when met exactly), and the condition
    passes when that residual is at most 1e-6.
    """
    if level not in ("pointwise", "l1"):
        raise ValueError("level must be 'pointwise' or 'l1'")
    poly = Polynomial(kernel.coefficients)
    slope = Polynomial([0.0, 1.0]) * poly.deriv()
    residuals = [
        ("nonnegative", max(0.0, -float(np.min(_extreme_values(poly))))),
        ("unit_mass", abs(_moment(poly, 0, 0) - 1.0)),
        ("deriv_nonincreasing_sign",
         max(0.0, float(np.max(_extreme_values(slope))))),
        ("deriv_mass_zero", abs(_moment(poly, 1, 0))),
        ("deriv_first_moment", abs(_moment(poly, 1, 1) + 1.0)),
    ]
    if level == "l1":
        residuals += [
            ("first_moment_zero", abs(_moment(poly, 0, 1))),
            ("dderiv_mass_zero", abs(_moment(poly, 2, 0))),
            ("dderiv_first_moment_zero", abs(_moment(poly, 2, 1))),
        ]
    return [ConditionReport(name, r <= _CONDITION_TOL, r)
            for name, r in residuals]


@cache
def kernel_satisfies(kernel, level="pointwise"):
    """True when every condition at ``level`` passes (result cached)."""
    return all(r.passed for r in check_kernel_conditions(kernel, level))


_REGIMES = {"pointwise": (0.0, 1.0 / 3.0), "l1": (1.0 / 6.0, 0.2)}


@dataclass(frozen=True)
class BandwidthRule:
    """Bandwidth h = scale * n^(-alpha), clamped to (0, 1/2].

    The admissible exponent range depends on the regime: pointwise limits
    need alpha in (0, 1/3), the L1 limit needs alpha in (1/6, 1/5).
    """

    alpha: float
    scale: float = 1.0
    regime: str = "pointwise"

    def __post_init__(self):
        if self.regime not in _REGIMES:
            raise InputError("regime must be one of %s" % sorted(_REGIMES))
        lo, hi = _REGIMES[self.regime]
        if not lo < self.alpha < hi:
            raise InputError(
                "alpha=%r outside the open interval (%g, %g) for the %s regime"
                % (self.alpha, lo, hi, self.regime)
            )
        if not 0.0 < self.scale < np.inf:
            raise InputError("scale must be positive and finite, got %r"
                             % (self.scale,))

    def bandwidth(self, n):
        return float(min(self.scale * _count(n, "n", 1) ** (-self.alpha), 0.5))


DEFAULT_POINTWISE_RULE = BandwidthRule(alpha=0.30, scale=1.0, regime="pointwise")
DEFAULT_L1_RULE = BandwidthRule(alpha=0.18, scale=1.0, regime="l1")


def _raw_pieces(x, coefficients, h):
    """Knots of the raw estimate on [h, 1-h], and the polynomial it follows
    from each knot to the next, as PPoly columns in the variable t - knot.

    Between consecutive knots X_i +- h the window of active observations is
    fixed. Each window is read off the knot indices, so the float knots alone
    decide membership; its power sums are differences of prefix sums. One
    more column takes the window just left of 1 - h at 1 - h, so
    each seam sees the interior from inside: the first column gives the left
    seam, the last the right one.
    """
    n = x.size
    deg = coefficients.size - 1
    lo, hi = h, 1.0 - h
    leave = x + h
    enter = x - h
    knots = np.unique(np.concatenate([
        [lo, hi],
        leave[(leave >= lo) & (leave <= hi)],
        enter[(enter >= lo) & (enter <= hi)],
    ]))
    first = np.append(np.searchsorted(leave, knots, side="right"),
                      np.searchsorted(leave, hi, side="left"))
    last = np.append(np.searchsorted(enter, knots, side="right"),
                     np.searchsorted(enter, hi, side="left"))
    # observations fall in blocks of width h, each with its own center, so
    # the powers summed stay below h^r at any bandwidth; a window spans at
    # most four blocks
    edges = h * np.arange(int(np.ceil(1.0 / h)) + 2)
    start = np.append(np.searchsorted(x, edges), [n] * 4)
    block = np.searchsorted(edges, x, side="right") - 1
    prefix = np.zeros((deg + 1, n + 1))
    power = np.ones(n)
    for r in range(deg + 1):
        np.cumsum(power, out=prefix[r, 1:])
        power = power * (x - (h * block + 0.5 * h))
    # sums of (at - X_i)^r over each window, block by block
    at = np.append(knots, hi)
    shifted = np.zeros((deg + 1, at.size))
    for b in block[np.minimum(first, n - 1)] + np.arange(4)[:, None]:
        lo_i = np.maximum(first, start[b])
        # in place, so one (deg + 1) x knots array fewer is alive at once
        window = prefix[:, np.maximum(np.minimum(last, start[b + 1]), lo_i)]
        window -= prefix[:, lo_i]
        # powers of the offset by products, not d ** k: for the blocks right
        # of the first, d is mostly negative, and numpy's power on negative
        # bases falls back to scalar pow (d ** 3 on 150k doubles: 25 ms, and
        # 0.6 ms when d > 0, numpy 2.4); d * d is numpy's d ** 2 exactly, so
        # degree 2 kernels give the same bits
        d = at - (h * b + 0.5 * h)
        d_pow = [1.0, d]
        for _ in range(deg - 1):
            d_pow.append(d_pow[-1] * d)
        for r in range(deg + 1):
            shifted[r] += sum(comb(r, m) * (-1.0) ** m * d_pow[r - m] * window[m]
                              for m in range(r + 1))
    # ascending coefficients of (1/(n h)) sum_i K((knot + s - X_i) / h) in s
    rows = max(deg, 1) + 1
    out = np.zeros((rows, first.size))
    for p, a in enumerate(coefficients):
        if a != 0.0:
            for q in range(p + 1):
                out[q] += (a * comb(p, q) / h ** p) * shifted[p - q]
    out /= n * h
    return knots, out[::-1]


class SmoothedDensity:
    """Kernel density estimate with linear boundary extensions, truncated at
    zero and rescaled to unit mass.

    The kernel is a polynomial, so the raw estimate is a piecewise polynomial
    with knots at X_i +- h. Construction glues it to its linear extensions,
    zeroes the pieces where that is negative and divides by the mass left:
    the result is one ``scipy.interpolate.PPoly``, ``ppoly``, that values,
    derivatives, the CDF, the rejection sampler and the exact L1 distances
    all read. At a knot, derivatives are those of the piece to its right.
    It holds the attributes below and no other polynomial: the CDF is the
    antiderivative of ``ppoly``, built on each call.

    Attributes
    ----------
    sample : Sample
    kernel : Kernel
    h : float
        Bandwidth in (0, 1/2].
    normalizer : float
        Mass of the truncated extended estimate (the rescaling divisor).
    quad_breakpoints : ndarray
        0, h, 1 - h and 1, with the sign breaks of the extended estimate
        that construction splits ``ppoly`` at.
    ppoly : scipy.interpolate.PPoly
        The normalized density on [0, 1].
    sampler_table : tuple
        ``(envelope, lo, hi)``, the bounds of the normalized density that
        :func:`~grenboot.resampling.rejection_sample` draws under: one on
        [0, 1], and one from below and above on each of 4096 equal cells.
        Built on the first draw, so a smoother never sampled builds none.
    """

    def __init__(self, sample, kernel, h):
        if not isinstance(sample, Sample):
            sample = Sample(sample)
        h = float(h)
        if not 0.0 < h <= 0.5:
            raise ValueError("bandwidth must lie in (0, 1/2]")
        self.sample = sample
        self.kernel = kernel
        self.h = h
        lo, hi = h, 1.0 - h

        knots, raw = _raw_pieces(sample.values, kernel.coefficients, h)
        f_lo, f_hi = raw[-1, 0], raw[-1, -1]
        # non-increasing extensions: positive seam slopes are clamped to 0
        s_lo, s_hi = min(raw[-2, 0], 0.0), min(raw[-2, -1], 0.0)
        coef = np.zeros((raw.shape[0], knots.size + 1))
        coef[:, 1:-1] = raw[:, :-2]
        coef[-2:, 0] = s_lo, f_lo - h * s_lo
        coef[-2:, -1] = s_hi, f_hi
        ext = PPoly(coef, np.concatenate([[0.0], knots, [1.0]]))

        # right extension f_hi + (t - (1-h)) s_hi can cross zero; the left one
        # cannot (slope <= 0 walking right means it only grows toward 0), and
        # the interior is nonnegative for nonnegative kernels
        pieces = [0.0, lo, hi, 1.0]
        if f_hi + h * s_hi < 0.0 and s_hi < 0.0:
            pieces.append(max(hi - f_hi / s_hi, hi))
        extremes = _extreme_values(Polynomial(kernel.coefficients))
        if np.min(extremes) < -1e-12 * np.max(np.abs(extremes)):
            roots = ext.roots(discontinuity=False, extrapolate=False)
            pieces.extend(roots[(roots > lo) & (roots < hi)])
        self.quad_breakpoints = np.unique(np.asarray(pieces))

        # positive part: split at the sign breaks, zero the negative pieces
        x, coef = _split(ext, self.quad_breakpoints)
        coef[:, ext(0.5 * (x[:-1] + x[1:])) < 0.0] = 0.0
        self.normalizer = float(PPoly(coef, x).antiderivative()(1.0))
        # the coefficients carry rounding relative to one observation's peak;
        # normalizing divides it by the mass, so a mass of rounding size is
        # no estimate
        peak = float(np.max(np.abs(extremes))) / (sample.n * h)
        if not np.isfinite(self.normalizer) or self.normalizer <= 1e-6 * peak:
            raise DegenerateEstimateError(
                "truncated kernel estimate has mass %r, below 1e-6 of one "
                "observation's kernel peak %r" % (self.normalizer, peak)
            )
        self.ppoly = PPoly(coef / self.normalizer, x)

    @cached_property
    def sampler_table(self):
        # built on the first draw, not here: fit and rate never sample
        return _sampler_table(self)

    def pdf(self, t):
        """Normalized density; clamped at 0 against rounding next to a sign
        break."""
        return _at(t, lambda x: np.maximum(self.ppoly(x), 0.0))

    def __call__(self, t):
        return self.pdf(t)

    def dpdf(self, t):
        """Derivative of the normalized density; 0 where truncation is active."""
        return _at(t, lambda x: self.ppoly(x, 1))

    def d2pdf(self, t):
        """Second derivative; requires a kernel passing the l1-level checks."""
        if not kernel_satisfies(self.kernel, "l1"):
            raise ValueError(
                "kernel %s fails the l1-level smoothness conditions; "
                "second derivatives are not trustworthy" % self.kernel.name
            )
        return _at(t, lambda x: self.ppoly(x, 2))

    def cdf(self, t):
        """Distribution function of the normalized density: the
        antiderivative of ``ppoly``, built on each call, divided by its own
        value at 1, so that cdf(0) == 0 and cdf(1) == 1 exactly."""
        prim = self.ppoly.antiderivative()
        return _at(t, lambda x: prim(x) / prim(1.0))

    def __repr__(self):
        return "SmoothedDensity(n=%d, kernel=%s, h=%g)" % (
            self.sample.n, self.kernel.name, self.h)


def fit_smoothed(sample, kernel=BIWEIGHT, rule=DEFAULT_L1_RULE):
    """Fit the boundary-corrected kernel estimate with a bandwidth rule."""
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    return SmoothedDensity(sample, kernel, rule.bandwidth(sample.n))
