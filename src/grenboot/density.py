"""Monotone density geometry on [0, 1].

Samples, empirical CDFs, least concave majorants, the Grenander estimator
(slopes of the majorant), closed-form reference densities, and the distances
and rate constants the inference layer is built on.
"""

from math import factorial

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import brentq, isotonic_regression

__all__ = [
    "DegenerateEstimateError",
    "Sample",
    "EmpiricalCDF",
    "ConcaveMajorant",
    "StepDensity",
    "AnalyticDensity",
    "least_concave_majorant",
    "grenander_fit",
    "uniform_density",
    "triangular_density",
    "trunc_exp_density",
    "l1_distance",
    "sup_distance",
    "rate_constant",
    "l1_shape_integral",
]


class DegenerateEstimateError(RuntimeError):
    """The data admit no estimate: an observation at exactly 0 makes the
    monotone MLE unbounded, or the positive part of a kernel estimate carries
    no mass beyond rounding (less than 1e-6 of one observation's kernel peak
    max|K| / (n h))."""


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _ret(values, scalar):
    return float(values[0]) if scalar else values


# Gauss-Legendre with 32 nodes after the substitution t = a + (b - a) p(s),
# p(s) = s^3 (10 - 15 s + 6 s^2): p' vanishes to second order at both ends,
# so a cube-root cusp of the integrand at a piece end becomes smooth in s
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_S = 0.5 * (_GL_X + 1.0)
_NODES = _S ** 3 * (10.0 - 15.0 * _S + 6.0 * _S ** 2)
_WEIGHTS = 15.0 * _S ** 2 * (1.0 - _S) ** 2 * _GL_W   # p'(s) ds on [0, 1]
_PANELS = np.linspace(0.0, 1.0, 65)


def _fixed_rule(f, breakpoints):
    """Integral of the vectorized ``f`` over the pieces between sorted
    ``breakpoints``, by the fixed rule above; non-finite values raise
    ValueError."""
    a, b = breakpoints[:-1], breakpoints[1:]
    t = a[:, None] + (b - a)[:, None] * _NODES
    vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at t=%r"
                         % float(t[~np.isfinite(vals)][0]))
    return float(np.sum((b - a) * (vals @ _WEIGHTS)))


class Sample:
    """Observations on [0, 1], sorted ascending and frozen.

    Parameters
    ----------
    values : array_like
        Finite values in the closed interval [0, 1]; need not be sorted.
    """

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("sample must be a nonempty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sample contains non-finite values")
        arr.sort()
        if arr[0] < 0.0 or arr[-1] > 1.0:
            raise ValueError("sample values must lie in [0, 1]")
        arr.flags.writeable = False
        self.values = arr
        self.n = int(arr.size)

    def __len__(self):
        return self.n

    def __repr__(self):
        return "Sample(n=%d, min=%g, max=%g)" % (self.n, self.values[0], self.values[-1])


class EmpiricalCDF:
    """Right-continuous empirical CDF of a sample, tied values merged."""

    def __init__(self, sample):
        jumps, counts = np.unique(sample.values, return_counts=True)
        self.jumps = jumps
        self.heights = np.cumsum(counts) / sample.n
        self.n = sample.n

    def __call__(self, t):
        arr, scalar = _as_array(t)
        idx = np.searchsorted(self.jumps, arr, side="right")
        table = np.concatenate([[0.0], self.heights])
        return _ret(table[idx], scalar)


class ConcaveMajorant:
    """Piecewise-linear concave function from (0, 0) to (1, 1).

    Vertices are stored as parallel arrays ``vx`` / ``vy``; slopes between
    consecutive vertices are strictly decreasing.
    """

    def __init__(self, vx, vy):
        vx = np.asarray(vx, dtype=float)
        vy = np.asarray(vy, dtype=float)
        if vx.shape != vy.shape or vx.ndim != 1 or vx.size < 2:
            raise ValueError("need matching vertex arrays with at least two vertices")
        if vx[0] != 0.0 or vy[0] != 0.0 or vx[-1] != 1.0 or vy[-1] != 1.0:
            raise ValueError("majorant must run from (0, 0) to (1, 1)")
        if np.any(np.diff(vx) <= 0):
            raise ValueError("vertex x's must be strictly increasing")
        slopes = np.diff(vy) / np.diff(vx)
        # strictly decreasing by construction; tiny float slack for validation
        if np.any(np.diff(slopes) > 1e-12):
            raise ValueError("slopes must be decreasing")
        self.vx = vx
        self.vy = vy
        self.slopes = slopes

    def __call__(self, t):
        arr, scalar = _as_array(t)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation point outside [0, 1]")
        return _ret(np.interp(arr, self.vx, self.vy), scalar)


def least_concave_majorant(cdf):
    """Least concave majorant of an empirical CDF on [0, 1].

    The majorant's slopes are the weighted antitonic regression of the
    slopes between the points (0, 0), (x_i, F_n(x_i)), (1, 1), weighted by
    the gaps between them (Robertson, Wright & Dykstra 1988). It is computed
    by PAVA (the pool-adjacent-violators algorithm); its vertices are the
    points at the ends of the pooled blocks, and equal adjacent slopes pool
    into one block. An observation at exactly 0 makes the monotone MLE
    degenerate (unbounded first slope) and raises
    :class:`DegenerateEstimateError`.
    """
    if cdf.jumps[0] <= 0.0:
        raise DegenerateEstimateError(
            "observation at exactly 0 gives a degenerate monotone MLE; "
            "shift or rescale the data away from 0"
        )
    xs = np.concatenate([[0.0], cdf.jumps])
    ys = np.concatenate([[0.0], cdf.heights])
    if xs[-1] < 1.0:
        xs = np.append(xs, 1.0)
        ys = np.append(ys, 1.0)
    gap = np.diff(xs)
    # blocks holds each block's first slope index and, last, the slope count:
    # exactly the vertex indices
    idx = isotonic_regression(np.diff(ys) / gap, weights=gap,
                              increasing=False).blocks
    return ConcaveMajorant(xs[idx], ys[idx])


class StepDensity:
    """Piecewise-constant non-increasing density on [0, 1].

    ``breakpoints`` are the right edges of the steps (0 excluded, last one
    equal to 1); ``heights[j]`` is the value on ``(breakpoints[j-1],
    breakpoints[j]]``, and the value at 0 is ``heights[0]``.
    """

    def __init__(self, breakpoints, heights):
        bp = np.asarray(breakpoints, dtype=float)
        hv = np.asarray(heights, dtype=float)
        if bp.ndim != 1 or bp.shape != hv.shape or bp.size == 0:
            raise ValueError("breakpoints and heights must be matching 1-d arrays")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(hv))):
            raise ValueError("breakpoints and heights must be finite")
        if bp[0] <= 0.0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing within (0, 1]")
        if abs(bp[-1] - 1.0) > 1e-12:
            raise ValueError("last breakpoint must be 1")
        bp = bp.copy()
        bp[-1] = 1.0
        if np.any(hv < -1e-15):
            raise ValueError("heights must be nonnegative")
        hv = np.maximum(hv, 0.0)
        if np.any(np.diff(hv) > 1e-12):
            raise ValueError("heights must be non-increasing")
        widths = np.diff(np.concatenate([[0.0], bp]))
        mass = float(np.sum(hv * widths))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError("step density must integrate to 1, got %r" % mass)
        bp.flags.writeable = False
        hv.flags.writeable = False
        self.breakpoints = bp
        self.heights = hv
        self.mass = mass

    @property
    def quad_breakpoints(self):
        return np.concatenate([[0.0], self.breakpoints])

    @property
    def ppoly(self):
        """The steps as a degree-0 ``PPoly`` on [0, 1] (right-continuous)."""
        return PPoly(self.heights[None, :], self.quad_breakpoints)

    def __call__(self, t):
        return self.eval_sided(t, "left")

    def eval_sided(self, t, side="left"):
        """Value just left (the function value) or just right of ``t``."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        arr, scalar = _as_array(t)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation point outside [0, 1]")
        mode = "left" if side == "left" else "right"
        idx = np.searchsorted(self.breakpoints, arr, side=mode)
        idx = np.minimum(idx, self.heights.size - 1)
        return _ret(self.heights[idx], scalar)

    def __repr__(self):
        return "StepDensity(steps=%d, f(0)=%g)" % (self.heights.size, self.heights[0])


def grenander_fit(sample):
    """Grenander estimator: the monotone non-increasing MLE on [0, 1].

    The estimate is the left derivative of the least concave majorant of the
    empirical CDF, a step function dropping at a subset of the data points.
    """
    lcm = least_concave_majorant(EmpiricalCDF(sample))
    return StepDensity(lcm.vx[1:], lcm.slopes)


class AnalyticDensity:
    """Closed-form density on [0, 1] with optional derivative and inverse CDF.

    The constructor checks that ``pdf`` has unit mass, to 1e-10, by the
    fixed rule of :func:`l1_shape_integral` on 64 equal panels; non-finite
    values raise ValueError.

    Parameters
    ----------
    name : str
    pdf : callable
        Vectorized density on [0, 1].
    dpdf : callable, optional
        First derivative.
    cdf, ppf : callable, optional
        Distribution function and its inverse (for exact sampling).
    nonincreasing : bool
        Whether the density is monotone non-increasing. A nonincreasing
        density with a ``cdf`` has exact L1 distances to step densities.
    """

    def __init__(self, name, pdf, dpdf=None, cdf=None, ppf=None,
                 nonincreasing=False):
        self.name = name
        self._pdf = pdf
        self._dpdf = dpdf
        self._cdf = cdf
        self._ppf = ppf
        self.nonincreasing = bool(nonincreasing)
        mass = _fixed_rule(self.__call__, _PANELS)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError("density %s integrates to %r, not 1" % (name, mass))

    def __call__(self, t):
        arr, scalar = _as_array(t)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation point outside [0, 1]")
        return _ret(np.asarray(self._pdf(arr), dtype=float), scalar)

    def dpdf(self, t):
        if self._dpdf is None:
            raise ValueError("density %s has no derivative evaluator" % self.name)
        arr, scalar = _as_array(t)
        return _ret(np.asarray(self._dpdf(arr), dtype=float), scalar)

    def cdf(self, t):
        if self._cdf is None:
            raise ValueError("density %s has no closed-form CDF" % self.name)
        arr, scalar = _as_array(t)
        return _ret(np.asarray(self._cdf(arr), dtype=float), scalar)

    def ppf(self, u):
        if self._ppf is None:
            raise ValueError("density %s has no inverse CDF" % self.name)
        arr, scalar = _as_array(u)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        return _ret(np.asarray(self._ppf(arr), dtype=float), scalar)

    def __repr__(self):
        return "AnalyticDensity(%r)" % self.name


def uniform_density():
    """Uniform density on [0, 1]: flat, so its slope is not bounded away
    from 0; its curvature is 0."""
    return AnalyticDensity(
        "uniform",
        pdf=lambda t: np.ones_like(t),
        dpdf=lambda t: np.zeros_like(t),
        cdf=lambda t: t.copy(),
        ppf=lambda u: u.copy(),
        nonincreasing=True,
    )


def triangular_density():
    """Triangular density 2(1 - t) on [0, 1]: linear, slope -2 everywhere,
    so its slope is bounded away from 0 and its curvature is 0."""
    return AnalyticDensity(
        "triangular",
        pdf=lambda t: 2.0 * (1.0 - t),
        dpdf=lambda t: np.full_like(t, -2.0),
        cdf=lambda t: t * (2.0 - t),
        ppf=lambda u: 1.0 - np.sqrt(1.0 - u),
        nonincreasing=True,
    )


def trunc_exp_density(rate=1.0):
    """Exponential(rate) truncated to [0, 1] and renormalized: its slope is
    bounded away from 0 and its curvature is bounded."""
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    z = 1.0 - np.exp(-rate)
    return AnalyticDensity(
        "trunc_exp(%g)" % rate,
        pdf=lambda t: rate * np.exp(-rate * t) / z,
        dpdf=lambda t: -(rate ** 2) * np.exp(-rate * t) / z,
        cdf=lambda t: (1.0 - np.exp(-rate * t)) / z,
        ppf=lambda u: -np.log1p(-u * z) / rate,
        nonincreasing=True,
    )


def _reexpand(pp, x, degree):
    """Coefficients of ``pp`` about the left end of each piece of ``x``, a
    refinement of its breakpoints, padded to ``degree``."""
    left = x[:-1]
    c = np.empty((degree + 1, left.size))
    for q in range(degree + 1):
        c[degree - q] = pp(left, nu=q) / factorial(q)
    return c


def _l1_exact(pa, pb):
    """Exact integral of |pa - pb| for two piecewise polynomials on [0, 1].

    Both are re-expanded on the merged breakpoints. Between consecutive
    roots of the difference its sign is fixed, so the integral is a sum of
    absolute antiderivative increments.
    """
    x = np.union1d(pa.x, pb.x)
    k = max(pa.c.shape[0], pb.c.shape[0]) - 1
    diff = PPoly(_reexpand(pa, x, k) - _reexpand(pb, x, k), x)
    # a piece whose constant term exceeds the rest of its Taylor bound keeps
    # one sign; hand the root finder a constant there instead
    c = diff.c
    width = np.diff(x)
    rest = sum(np.abs(c[k - q]) * width ** q for q in range(1, k + 1))
    one_sign = np.abs(c[k]) > rest
    probe = np.where(one_sign, 0.0, c)
    probe[k, one_sign] = 1.0
    roots = PPoly(probe, x).roots(discontinuity=False, extrapolate=False)
    # identically zero pieces report nan
    z = np.union1d(x, roots[np.isfinite(roots)])
    return float(np.sum(np.abs(np.diff(diff.antiderivative()(z)))))


def _l1_step_monotone(step, f):
    """Exact integral of |step - f| for a nonincreasing density ``f`` with a
    CDF. On each step h - f is nondecreasing, so it changes sign at most once,
    at a point c found by brentq; each side of c is a CDF difference minus a
    rectangle, or the reverse."""
    x = step.quad_breakpoints
    a, b, h = x[:-1], x[1:], step.heights
    fx = np.asarray(f(x), dtype=float)
    # c = a where h >= f on the whole step, c = b where h <= f on it
    c = np.where(h >= fx[:-1], a, b)
    for j in np.nonzero((h < fx[:-1]) & (h > fx[1:]))[0]:
        c[j] = brentq(lambda t: f(t) - h[j], a[j], b[j])
    Fx = np.asarray(f.cdf(x), dtype=float)
    Fc = np.asarray(f.cdf(c), dtype=float)
    above = (Fc - Fx[:-1]) - h * (c - a)   # f >= h on (a, c)
    below = h * (b - c) - (Fx[1:] - Fc)    # f <= h on (c, b)
    return float(np.sum(above + below))


def _monotone_with_cdf(d):
    return isinstance(d, AnalyticDensity) and d.nonincreasing and d._cdf is not None


def l1_distance(a, b):
    """Exact L1 distance between two densities on [0, 1].

    Two pairs are supported: two piecewise polynomials exposed as a
    ``ppoly`` attribute (step densities, the kernel smoother), and a
    :class:`StepDensity` against a nonincreasing :class:`AnalyticDensity`
    with a ``cdf``, in either order. Any other pair raises ValueError.
    """
    pa = getattr(a, "ppoly", None)
    pb = getattr(b, "ppoly", None)
    if pa is not None and pb is not None:
        return _l1_exact(pa, pb)
    if isinstance(a, StepDensity) and _monotone_with_cdf(b):
        return _l1_step_monotone(a, b)
    if isinstance(b, StepDensity) and _monotone_with_cdf(a):
        return _l1_step_monotone(b, a)
    raise ValueError(
        "l1_distance is exact only for two densities with a ppoly, or a "
        "StepDensity and a nonincreasing AnalyticDensity with a cdf; got "
        "%r and %r" % (a, b))


def _eval_sided(d, t, side):
    f = getattr(d, "eval_sided", None)
    if f is not None:
        return np.asarray(f(t, side), dtype=float)
    return np.asarray(d(t), dtype=float)


def sup_distance(a, b, grid_size=10001):
    """Sup distance over a uniform grid joined with both kink lists.

    Step discontinuities are probed from both sides at every grid point.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    pts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, int(grid_size)),
        getattr(a, "quad_breakpoints", []),
        getattr(b, "quad_breakpoints", []),
    ]))
    best = 0.0
    for side in ("left", "right"):
        va = _eval_sided(a, pts, side)
        vb = _eval_sided(b, pts, side)
        diff = np.abs(va - vb)
        if not np.all(np.isfinite(diff)):
            raise ValueError("non-finite density value inside [0, 1]")
        best = max(best, float(np.max(diff)))
    return best


def rate_constant(g, t):
    """Pointwise rate constant |4 g'(t) g(t)|^(1/3) at an interior point."""
    t = float(t)
    if not 0.0 < t < 1.0:
        raise ValueError("t must be interior to (0, 1)")
    return float(abs(4.0 * g.dpdf(t) * g(t)) ** (1.0 / 3.0))


def l1_shape_integral(g):
    """Integral of |g'(t) g(t) / 2|^(1/3) over [0, 1].

    This is the shape-dependent factor in the centering constant of the L1
    error of the monotone MLE; non-finite integrand values raise ValueError.
    The integral is a fixed Gauss-Legendre rule on pieces at whose ends the
    integrand may kink or have a cube-root cusp. When ``g`` exposes a
    ``ppoly`` (a smoother), the pieces end at its breakpoints and at the
    roots of g and g'. Otherwise the rule runs on 64 equal panels, which is
    accurate only when g and g' have no zero inside (0, 1); the shipped
    analytic densities meet that.
    """

    def integrand(t):
        return np.abs(0.5 * np.asarray(g.dpdf(t), dtype=float)
                      * np.asarray(g(t), dtype=float)) ** (1.0 / 3.0)

    pp = getattr(g, "ppoly", None)
    if pp is None:
        return _fixed_rule(integrand, _PANELS)
    roots = np.concatenate([pp.roots(discontinuity=False, extrapolate=False),
                            pp.derivative().roots(discontinuity=False,
                                                  extrapolate=False)])
    # identically zero pieces report nan
    return _fixed_rule(integrand, np.union1d(pp.x, roots[np.isfinite(roots)]))
