"""Monotone density geometry on [0, 1].

Samples, empirical CDFs, least concave majorants, the Grenander estimator
(slopes of the majorant), closed-form reference densities, and the distances
and rate constants the inference layer is built on.
"""

from math import factorial

import numpy as np
from scipy.interpolate import PPoly

from .integrate import adaptive_simpson, integrate_piecewise

__all__ = [
    "Sample",
    "EmpiricalCDF",
    "ConcaveMajorant",
    "StepDensity",
    "AnalyticDensity",
    "empirical_cdf",
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


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _ret(values, scalar):
    return float(values[0]) if scalar else values


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


def empirical_cdf(sample):
    """Empirical CDF of ``sample`` with ties merged into single jumps."""
    return EmpiricalCDF(sample)


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

    Computed as the upper hull of the points (0, 0), (x_i, F_n(x_i)), (1, 1)
    by a single monotone-stack sweep. An observation at exactly 0 makes the
    monotone MLE degenerate (unbounded first slope) and raises ValueError.
    """
    if cdf.jumps[0] <= 0.0:
        raise ValueError(
            "observation at exactly 0 gives a degenerate monotone MLE; "
            "shift or rescale the data away from 0"
        )
    xs = np.concatenate([[0.0], cdf.jumps])
    ys = np.concatenate([[0.0], cdf.heights])
    if xs[-1] < 1.0:
        xs = np.append(xs, 1.0)
        ys = np.append(ys, 1.0)
    stack = [0]
    for i in range(1, xs.size):
        while len(stack) >= 2:
            j, k = stack[-2], stack[-1]
            # pop k when it lies on or below chord j->i (keeps slopes strictly
            # decreasing, merges collinear runs)
            cross = (xs[k] - xs[j]) * (ys[i] - ys[j]) - (ys[k] - ys[j]) * (xs[i] - xs[j])
            if cross >= 0.0:
                stack.pop()
            else:
                break
        stack.append(i)
    idx = np.asarray(stack)
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
        arr, scalar = _as_array(t)
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise ValueError("evaluation point outside [0, 1]")
        idx = np.searchsorted(self.breakpoints, arr, side="left")
        idx = np.minimum(idx, self.heights.size - 1)
        return _ret(self.heights[idx], scalar)

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
    lcm = least_concave_majorant(empirical_cdf(sample))
    heights = np.diff(lcm.vy) / np.diff(lcm.vx)
    return StepDensity(lcm.vx[1:], heights)


class AnalyticDensity:
    """Closed-form density on [0, 1] with optional derivatives and inverse CDF.

    Parameters
    ----------
    name : str
    pdf : callable
        Vectorized density on [0, 1].
    dpdf, d2pdf : callable, optional
        First and second derivatives.
    cdf, ppf : callable, optional
        Distribution function and its inverse (for exact sampling).
    nonincreasing, slope_bounded, curvature_bounded : bool
        Shape flags: monotone non-increasing; derivative bounded away from 0
        and -inf on (0, 1); second derivative bounded.
    piecewise_linear : bool
        Marks densities that are globally linear on [0, 1]; they expose a
        ``ppoly`` and get exact L1 distances.
    """

    def __init__(self, name, pdf, dpdf=None, d2pdf=None, cdf=None, ppf=None,
                 nonincreasing=False, slope_bounded=False,
                 curvature_bounded=False, piecewise_linear=False):
        self.name = name
        self._pdf = pdf
        self._dpdf = dpdf
        self._d2pdf = d2pdf
        self._cdf = cdf
        self._ppf = ppf
        self.nonincreasing = bool(nonincreasing)
        self.slope_bounded = bool(slope_bounded)
        self.curvature_bounded = bool(curvature_bounded)
        self.piecewise_linear = bool(piecewise_linear)
        mass = adaptive_simpson(self.__call__, 0.0, 1.0, tol=1e-12)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError("density %s integrates to %r, not 1" % (name, mass))

    @property
    def ppoly(self):
        """The density as a linear ``PPoly`` when it is linear, else None."""
        if not self.piecewise_linear:
            return None
        f0, f1 = self(0.0), self(1.0)
        return PPoly([[f1 - f0], [f0]], [0.0, 1.0])

    @property
    def quad_breakpoints(self):
        return np.array([0.0, 1.0])

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

    def d2pdf(self, t):
        if self._d2pdf is None:
            raise ValueError("density %s has no second-derivative evaluator" % self.name)
        arr, scalar = _as_array(t)
        return _ret(np.asarray(self._d2pdf(arr), dtype=float), scalar)

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

    def slope_continuous_at(self, t):
        """Whether the derivative is continuous at ``t`` (true for the zoo)."""
        if not 0.0 < t < 1.0:
            raise ValueError("t must be interior to (0, 1)")
        return self._dpdf is not None

    def __repr__(self):
        return "AnalyticDensity(%r)" % self.name


def uniform_density():
    """Uniform density on [0, 1]. Flat, so the slope is not bounded away from 0."""
    return AnalyticDensity(
        "uniform",
        pdf=lambda t: np.ones_like(t),
        dpdf=lambda t: np.zeros_like(t),
        d2pdf=lambda t: np.zeros_like(t),
        cdf=lambda t: t.copy(),
        ppf=lambda u: u.copy(),
        nonincreasing=True,
        slope_bounded=False,
        curvature_bounded=True,
        piecewise_linear=True,
    )


def triangular_density():
    """Triangular density 2(1 - t) on [0, 1]: linear, slope -2 everywhere."""
    return AnalyticDensity(
        "triangular",
        pdf=lambda t: 2.0 * (1.0 - t),
        dpdf=lambda t: np.full_like(t, -2.0),
        d2pdf=lambda t: np.zeros_like(t),
        cdf=lambda t: t * (2.0 - t),
        ppf=lambda u: 1.0 - np.sqrt(1.0 - u),
        nonincreasing=True,
        slope_bounded=True,
        curvature_bounded=True,
        piecewise_linear=True,
    )


def trunc_exp_density(rate=1.0):
    """Exponential(rate) truncated to [0, 1] and renormalized."""
    rate = float(rate)
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    z = 1.0 - np.exp(-rate)
    return AnalyticDensity(
        "trunc_exp(%g)" % rate,
        pdf=lambda t: rate * np.exp(-rate * t) / z,
        dpdf=lambda t: -(rate ** 2) * np.exp(-rate * t) / z,
        d2pdf=lambda t: (rate ** 3) * np.exp(-rate * t) / z,
        cdf=lambda t: (1.0 - np.exp(-rate * t)) / z,
        ppf=lambda u: -np.log1p(-u * z) / rate,
        nonincreasing=True,
        slope_bounded=True,
        curvature_bounded=True,
    )


def _quad_breakpoints_of(d):
    qb = getattr(d, "quad_breakpoints", None)
    if qb is not None:
        return np.asarray(qb, dtype=float)
    return np.array([0.0, 1.0])


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


def l1_distance(a, b, tol=1e-8):
    """L1 distance between two densities on [0, 1].

    Exact when both arguments expose a piecewise-polynomial form as a
    ``ppoly`` attribute (step densities, linear analytic densities, the
    kernel smoother). Otherwise adaptive Simpson over the merged kink list,
    where non-finite evaluations raise ValueError.
    """
    pa = getattr(a, "ppoly", None)
    pb = getattr(b, "ppoly", None)
    if pa is not None and pb is not None:
        return _l1_exact(pa, pb)
    bp = np.unique(np.concatenate([_quad_breakpoints_of(a), _quad_breakpoints_of(b)]))

    def integrand(t):
        return np.abs(np.asarray(a(t), dtype=float) - np.asarray(b(t), dtype=float))

    return integrate_piecewise(integrand, bp, tol=tol)


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
        _quad_breakpoints_of(a),
        _quad_breakpoints_of(b),
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


def l1_shape_integral(g, tol=1e-8):
    """Integral of |g'(t) g(t) / 2|^(1/3) over [0, 1].

    This is the shape-dependent factor in the centering constant of the L1
    error of the monotone MLE; non-finite integrand values raise ValueError.
    """

    def integrand(t):
        return np.abs(0.5 * np.asarray(g.dpdf(t), dtype=float)
                      * np.asarray(g(t), dtype=float)) ** (1.0 / 3.0)

    bp = _quad_breakpoints_of(g)
    return integrate_piecewise(integrand, bp, tol=tol)
