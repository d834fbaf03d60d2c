"""Monotone density geometry on [0, 1].

Samples, step densities, the Grenander estimator, closed-form reference
densities, and the distances and rate constants the inference layer is
built on. The Grenander fit is one antitonic regression of the empirical
CDF's slopes; it builds no ECDF or majorant object.
"""

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import brentq, isotonic_regression

from .parallel import InputError, _count

__all__ = [
    "DegenerateEstimateError",
    "Sample",
    "StepDensity",
    "AnalyticDensity",
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


def _at(t, f, what="evaluation point"):
    """``f`` at the points ``t`` of [0, 1], passed as an array of at least
    one dimension; a float for a scalar ``t``. A point outside [0, 1], NaN
    included, raises ValueError naming ``what``."""
    arr = np.asarray(t, dtype=float)
    x = np.atleast_1d(arr)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise ValueError("%s outside [0, 1]" % what)
    values = np.asarray(f(x), dtype=float)
    return float(values[0]) if arr.ndim == 0 else values


def _interior(value, name):
    """``value`` as a float, when it lies strictly inside (0, 1);
    InputError naming ``name`` otherwise, NaN included."""
    value = float(value)
    if not 0.0 < value < 1.0:
        raise InputError("%s must lie in (0, 1), got %r" % (name, value))
    return value


# Gauss-Legendre with 32 nodes after the substitution t = a + (b - a) p(s),
# p(s) = s^3 (10 - 15 s + 6 s^2): p' vanishes to second order at both ends,
# so a cube-root cusp of the integrand at a piece end becomes smooth in s
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_S = 0.5 * (_GL_X + 1.0)
_NODES = _S ** 3 * (10.0 - 15.0 * _S + 6.0 * _S ** 2)
_WEIGHTS = 15.0 * _S ** 2 * (1.0 - _S) ** 2 * _GL_W   # p'(s) ds on [0, 1]
_PANELS = np.linspace(0.0, 1.0, 65)
# the mass check adds panels graded toward 0, where a steep density sits,
# each about 4 times the last, down from the smallest normal double
_MASS_PANELS = np.union1d(_PANELS, np.geomspace(2.0 ** -1022, 1.0, 513))


def _fixed_rule(f, breakpoints):
    """Integral of the vectorized ``f`` over the pieces between sorted
    ``breakpoints``, by the fixed rule above, and ``f``'s values at the
    rule's nodes, which ascend; non-finite values raise ValueError."""
    a, b = breakpoints[:-1], breakpoints[1:]
    t = a[:, None] + (b - a)[:, None] * _NODES
    vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at t=%r"
                         % float(t[~np.isfinite(vals)][0]))
    return float(np.sum((b - a) * (vals @ _WEIGHTS))), vals.ravel()


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


def _step_value(breakpoints, heights, t):
    """:class:`StepDensity`'s left-continuous rule, at the points ``t``."""
    return heights[np.minimum(np.searchsorted(breakpoints, t),
                              heights.size - 1)]


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
        if not (np.isfinite(bp).all() and np.isfinite(hv).all()):
            raise ValueError("breakpoints and heights must be finite")
        if bp[0] <= 0.0 or (bp[1:] <= bp[:-1]).any():
            raise ValueError("breakpoints must be strictly increasing within (0, 1]")
        if abs(bp[-1] - 1.0) > 1e-12:
            raise ValueError("last breakpoint must be 1")
        bp = bp.copy()
        bp[-1] = 1.0
        if hv.min() < -1e-15:
            raise ValueError("heights must be nonnegative")
        hv = np.maximum(hv, 0.0)
        if (hv[1:] - hv[:-1] > 1e-12).any():
            raise ValueError("heights must be non-increasing")
        widths = bp.copy()
        widths[1:] -= bp[:-1]
        # the pairwise sum of np.sum, whose bits fit's output records
        mass = float((hv * widths).sum())
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
        return _at(t, lambda x: _step_value(self.breakpoints, self.heights, x))

    def __repr__(self):
        return "StepDensity(steps=%d, f(0)=%g)" % (self.heights.size, self.heights[0])


def grenander_fit(sample):
    """Grenander estimator: the monotone non-increasing MLE on [0, 1].

    The estimate is the left derivative of the least concave majorant of the
    empirical CDF, a step function dropping at a subset of the data points.
    Its heights are the weighted antitonic regression of the slopes between
    the points (0, 0), (x_i, F_n(x_i)), (1, 1), weighted by the gaps between
    them (Robertson, Wright & Dykstra 1988), computed by PAVA (the
    pool-adjacent-violators algorithm). The majorant's vertices are the
    points at the ends of the pooled blocks, and equal adjacent slopes pool
    into one block. An observation at exactly 0 makes the monotone MLE
    degenerate (unbounded first slope) and raises
    :class:`DegenerateEstimateError`. ``sample`` is a :class:`Sample` or
    any 1-d array-like of values in [0, 1].
    """
    if not isinstance(sample, Sample):
        sample = Sample(sample)
    v = sample.values
    if v[0] <= 0.0:
        raise DegenerateEstimateError(
            "observation at exactly 0 gives a degenerate monotone MLE; "
            "shift or rescale the data away from 0"
        )
    # the values are sorted, so each run of ties but the last ends where its
    # neighbour differs; the points run from (0, 0) to (1, 1)
    ends = np.flatnonzero(v[1:] != v[:-1])
    size = ends.size + 2 + int(v[-1] < 1.0)
    xs = np.ones(size)
    ys = np.ones(size)
    xs[0] = ys[0] = 0.0
    xs[1:ends.size + 1] = v[ends]
    xs[ends.size + 1] = v[-1]
    ys[1:ends.size + 1] = (ends + 1) / sample.n
    gap = np.diff(xs)
    # blocks holds each block's first slope index and, last, the slope count:
    # exactly the vertex indices
    idx = isotonic_regression(np.diff(ys) / gap, weights=gap,
                              increasing=False).blocks
    vx, vy = xs[idx], ys[idx]
    return StepDensity(vx[1:], np.diff(vy) / np.diff(vx))


class AnalyticDensity:
    """Closed-form density on [0, 1] with optional derivative and inverse CDF.

    The constructor checks that ``pdf`` has unit mass, to 1e-10, by the
    fixed rule of :func:`l1_shape_integral` on 64 equal panels joined with
    512 geometric ones from 2^-1022 to 1; non-finite values raise
    ValueError. The density is taken as non-increasing when no value at
    the check's nodes, which ascend, rises above the one before it by more
    than 1e-12 of the largest; a non-increasing density with a ``cdf`` has
    exact L1 distances to step densities.

    Parameters
    ----------
    name : str
    pdf : callable
        Vectorized density on [0, 1].
    dpdf : callable, optional
        First derivative.
    cdf, ppf : callable, optional
        Distribution function and its inverse (for exact sampling).
    """

    def __init__(self, name, pdf, dpdf=None, cdf=None, ppf=None):
        self.name = name
        self._pdf = pdf
        self._dpdf = dpdf
        self._cdf = cdf
        self._ppf = ppf
        mass, values = _fixed_rule(self.__call__, _MASS_PANELS)
        if abs(mass - 1.0) > 1e-10:
            raise ValueError("density %s integrates to %r, not 1" % (name, mass))
        self.nonincreasing = bool(np.diff(values).max()
                                  <= 1e-12 * values.max())

    def __call__(self, t):
        return _at(t, self._pdf)

    def dpdf(self, t):
        if self._dpdf is None:
            raise ValueError("density %s has no derivative evaluator" % self.name)
        return _at(t, self._dpdf)

    def cdf(self, t):
        if self._cdf is None:
            raise ValueError("density %s has no closed-form CDF" % self.name)
        return _at(t, self._cdf)

    def ppf(self, u):
        if self._ppf is None:
            raise ValueError("density %s has no inverse CDF" % self.name)
        return _at(u, self._ppf, "probability")

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
    )


def trunc_exp_density(rate=1.0):
    """Exponential(rate) truncated to [0, 1] and renormalized: its slope is
    bounded away from 0 and its curvature is bounded."""
    rate = float(rate)
    if not 0.0 < rate < np.inf:
        raise InputError("rate must be positive and finite")
    # expm1, not 1 - exp: at small rates the difference cancels
    z = -np.expm1(-rate)

    def ppf(u):
        # capped: the rounding of z at large rates carries u = 1 past 1
        with np.errstate(divide="ignore"):
            return np.minimum(-np.log1p(-u * z) / rate, 1.0)

    return AnalyticDensity(
        "trunc_exp(%g)" % rate,
        pdf=lambda t: rate * np.exp(-rate * t) / z,
        dpdf=lambda t: -(rate ** 2) * np.exp(-rate * t) / z,
        cdf=lambda t: -np.expm1(-rate * t) / z,
        ppf=ppf,
    )


def _shift(c, s):
    """Taylor shift by synthetic division: ``c`` holds ascending
    coefficients in t - a, one column per polynomial, and is overwritten
    with those in t - (a + s); ``s`` is a scalar or one shift per column.
    Returns ``c``."""
    k = c.shape[0] - 1
    for i in range(k):
        for j in range(k - 1, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _split(pp, at):
    """``pp``'s breakpoints joined with the points of the sorted, distinct
    ``at`` inside its pieces, and its coefficients on them. Only the pieces
    that start at a new point are re-expanded, by a Taylor shift of the
    piece they cut; the others keep their columns."""
    at = at[(at > pp.x[0]) & (at < pp.x[-1])]
    j = np.searchsorted(pp.x, at)
    new = pp.x[j] != at
    at, j = at[new], j[new]
    cut = _shift(pp.c[::-1, j - 1], at - pp.x[j - 1])[::-1]
    return np.insert(pp.x, j, at), np.insert(pp.c, j, cut, axis=1)


def _spread_and_integral(coef, width):
    """For pieces with ascending Taylor coefficients ``coef`` about their
    left ends: the bound sum_{q>=1} |c_q| w^q on how far each strays from
    its constant term, and each one's integral."""
    wq = width ** np.arange(coef.shape[0])[:, None]
    rest = np.sum(np.abs(coef[1:]) * wq[1:], axis=0)
    order = np.arange(1, coef.shape[0] + 1)[:, None]
    return rest, np.sum(coef * wq / order, axis=0) * width


def _l1_steps(steps, pp):
    """Exact integrals of |step - pp| over [0, 1], one for each
    :class:`StepDensity` in ``steps``, against one piecewise polynomial
    ``pp`` on [0, 1] of any mass.

    A piece of ``pp`` that no step breakpoint splits, and whose step height
    h lies outside the piece's range bound c0 +- sum_{q>=1} |c_q| w^q,
    keeps one sign against the step and contributes |h w - I|, I being its
    integral. That covers most pieces at a few numpy calls per step. The
    other pieces of all steps are cut at the step breakpoints inside them,
    each cut re-expanded about its left end by a Taylor shift and tested
    again. What is still mixed goes to one ``PPoly.roots`` call, on the
    pieces laid end to end, and is integrated between its roots.
    """
    x = pp.x
    coef = pp.c[::-1]                  # coef[q] multiplies (t - x_i)^q
    k = coef.shape[0] - 1
    w = np.diff(x)
    rest, integral = _spread_and_integral(coef, w)
    lo, hi = coef[0] - rest, coef[0] + rest

    closed = np.zeros(len(steps))
    rep, piece, start, height = [], [], [], []
    for r, step in enumerate(steps):
        s, hv = step.breakpoints, step.heights
        # the step's value on the interior of each piece it does not split
        h = hv[np.searchsorted(s, x[:-1], side="right")]
        # breakpoints strictly inside a piece split it; the last one is 1
        cut = np.searchsorted(x, s[:-1])
        inside = x[cut] != s[:-1]
        mixed = (h >= lo) & (h <= hi)
        mixed[cut[inside] - 1] = True
        gap = np.abs(h * w - integral)
        gap[mixed] = 0.0
        closed[r] = np.sum(gap)
        # each mixed piece from its left end, and each cut from its breakpoint
        m = np.flatnonzero(mixed)
        rep.append(np.full(m.size + np.count_nonzero(inside), r))
        piece += [m, cut[inside] - 1]
        start += [x[m], s[:-1][inside]]
        height += [h[m], hv[1:][inside]]
    rep = np.concatenate(rep)
    piece = np.concatenate(piece)
    start = np.concatenate(start)
    height = np.concatenate(height)
    key = rep * w.size + piece
    order = np.lexsort((start, key))
    rep, piece, start, height, key = (rep[order], piece[order], start[order],
                                      height[order], key[order])
    last = np.diff(key, append=-1) != 0
    end = np.where(last, x[piece + 1], np.roll(start, -1))
    width = end - start

    # each cut's coefficients about its left end, less the step
    c = _shift(coef[:, piece], start - x[piece])
    c[0] -= height
    rest, part = _spread_and_integral(c, width)
    one_sign = np.abs(c[0]) > rest
    total = closed + np.bincount(rep[one_sign], np.abs(part[one_sign]),
                                 minlength=len(steps))

    mix = np.flatnonzero(~one_sign)
    if mix.size:
        c, width = c[:, mix], width[mix]
        axis = np.concatenate([[0.0], np.cumsum(width)])
        roots = PPoly(c[::-1], axis).roots(discontinuity=False,
                                           extrapolate=False)
        # identically zero pieces report nan
        roots = roots[np.isfinite(roots)]
        j = np.clip(np.searchsorted(axis, roots, side="right") - 1,
                    0, mix.size - 1)
        pid = np.concatenate([np.arange(mix.size), np.arange(mix.size), j])
        t = np.concatenate([np.zeros(mix.size), width,
                            np.clip(roots - axis[j], 0.0, width[j])])
        order = np.lexsort((t, pid))
        pid, t = pid[order], t[order]
        # antiderivative of each piece's difference, vanishing at its left end
        anti = np.zeros_like(t)
        for q in range(k, -1, -1):
            anti = (anti + c[q, pid] / (q + 1)) * t
        same = pid[1:] == pid[:-1]
        total += np.bincount(rep[mix][pid[1:][same]],
                             np.abs(np.diff(anti))[same],
                             minlength=len(steps))
    return total


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

    Two pairs are supported, each in either order: a :class:`StepDensity`
    against a piecewise polynomial exposed as a ``ppoly`` attribute (another
    step density, the kernel smoother), by the same batched computation that
    :func:`~grenboot.inference.l1_band` runs on all of its refits at once;
    and a :class:`StepDensity` against a nonincreasing
    :class:`AnalyticDensity` with a ``cdf``. Any other pair raises
    ValueError.
    """
    step, other = (a, b) if isinstance(a, StepDensity) else (b, a)
    if isinstance(step, StepDensity):
        pp = getattr(other, "ppoly", None)
        if pp is not None:
            return float(_l1_steps([step], pp)[0])
        if _monotone_with_cdf(other):
            return _l1_step_monotone(step, other)
    raise ValueError(
        "l1_distance is exact only for a StepDensity against a density with "
        "a ppoly, or against a nonincreasing AnalyticDensity with a cdf; got "
        "%r and %r" % (a, b))


def sup_distance(a, b, grid_size=10001):
    """Sup distance over a uniform grid joined with both kink lists, a step
    density read by its left-continuous rule: exact for two step densities,
    whose heights all sit at kinks, and otherwise as fine as the grid.
    """
    pts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, _count(grid_size, "grid_size", 2)),
        getattr(a, "quad_breakpoints", []),
        getattr(b, "quad_breakpoints", []),
    ]))
    diff = np.abs(np.asarray(a(pts), dtype=float)
                  - np.asarray(b(pts), dtype=float))
    if not np.all(np.isfinite(diff)):
        raise ValueError("non-finite density value inside [0, 1]")
    return float(np.max(diff))


def rate_constant(g, t):
    """Pointwise rate constant |4 g'(t) g(t)|^(1/3) at an interior point."""
    t = _interior(t, "t")
    return float(abs(4.0 * g.dpdf(t) * g(t)) ** (1.0 / 3.0))


def l1_shape_integral(g):
    """Integral of |g'(t) g(t) / 2|^(1/3) over [0, 1].

    This is the shape-dependent factor in the centering constant of the L1
    error of the monotone MLE; non-finite integrand values raise ValueError.
    The integral is a fixed Gauss-Legendre rule on pieces at whose ends the
    integrand may kink or have a cube-root cusp. When ``g`` exposes a
    ``ppoly`` (a smoother), the pieces end at its breakpoints and at the
    roots of g, g' and g''; then |g'| is monotone on each piece, so a near
    zero of g' sits at a piece end. Otherwise the rule runs on 64 equal
    panels, which is accurate only when g and g' have no zero inside (0, 1);
    the shipped analytic densities meet that.
    """

    def integrand(t):
        return np.abs(0.5 * np.asarray(g.dpdf(t), dtype=float)
                      * np.asarray(g(t), dtype=float)) ** (1.0 / 3.0)

    pp = getattr(g, "ppoly", None)
    if pp is None:
        return _fixed_rule(integrand, _PANELS)[0]
    roots = np.concatenate([
        p.roots(discontinuity=False, extrapolate=False)
        for p in (pp, pp.derivative(), pp.derivative(2))])
    # identically zero pieces report nan
    return _fixed_rule(integrand,
                       np.union1d(pp.x, roots[np.isfinite(roots)]))[0]
