"""Independent reference implementations used only by the tests.

The least-concave-majorant oracle works by exhaustive search over vertex
subsets, so it is usable only for tiny samples, but its correctness argument
is elementary: every concave function dominating a point set also dominates
each piecewise-linear interpolant through a subset of those points wherever
the interpolant is concave and dominating, and the true majorant's vertex
set is one of the enumerated subsets. Taking a pointwise minimum over all
valid candidates therefore reproduces the majorant exactly.

The kernel smoother oracle recomputes the boundary-corrected estimate from
direct kernel sums, one observation at a time, and integrates it by
composite Gauss-Legendre quadrature split at every kernel knot X_i +- h, the
seams h and 1 - h, and the truncation crossing. Between those points the
estimate is a polynomial of degree at most 4, so eight nodes per panel
integrate it exactly up to rounding.
"""

from itertools import combinations

import numpy as np
from scipy.optimize import brentq


def brute_force_lcm(sample_values, eval_points):
    """Least concave majorant of the ECDF of ``sample_values`` at
    ``eval_points``, by exhaustive enumeration of candidate vertex sets.
    """
    x = np.unique(np.asarray(sample_values, dtype=float))
    n = len(sample_values)
    counts = np.searchsorted(np.sort(sample_values), x, side="right")
    pts_x = np.concatenate([[0.0], x, [] if x[-1] == 1.0 else [1.0]])
    pts_y = np.concatenate([[0.0], counts / n, [] if x[-1] == 1.0 else [1.0]])
    eval_points = np.asarray(eval_points, dtype=float)

    best = np.full(eval_points.shape, np.inf)
    idx = range(1, len(pts_x) - 1)
    for r in range(len(pts_x)):
        for middle in combinations(idx, r):
            vx = np.concatenate([[pts_x[0]], pts_x[list(middle)], [pts_x[-1]]])
            vy = np.concatenate([[pts_y[0]], pts_y[list(middle)], [pts_y[-1]]])
            slopes = np.diff(vy) / np.diff(vx)
            if np.any(np.diff(slopes) > 1e-12):
                continue  # not concave
            interp = np.interp(pts_x, vx, vy)
            if np.any(interp < pts_y - 1e-12):
                continue  # fails to dominate the ECDF
            cand = np.interp(eval_points, vx, vy)
            best = np.minimum(best, cand)
    return best


def brute_force_grenander_heights(sample_values):
    """Step heights of the monotone MLE between consecutive support points,
    recovered from the brute-force majorant.
    """
    x = np.unique(np.asarray(sample_values, dtype=float))
    knots = np.concatenate([[0.0], x, [] if x[-1] == 1.0 else [1.0]])
    vals = brute_force_lcm(sample_values, knots)
    return np.diff(vals) / np.diff(knots), knots[1:]


# -- kernel smoother ---------------------------------------------------------


def kernel_sums(x, t, h, kernel, order=0):
    """(1/(n h^(order+1))) sum_i K^(order)((t - X_i)/h), summed directly."""
    x = np.asarray(x, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.size)
    for i in range(0, t.size, 1024):
        v = (t[i:i + 1024, None] - x[None, :]) / h
        out[i:i + 1024] = kernel.deriv(v, order).sum(axis=1)
    return out / (x.size * h ** (order + 1))


def smoother_breakpoints(smoothed):
    """Every point where a fitted smoother may fail to be one polynomial:
    the kernel knots X_i +- h inside [0, 1] and its ``quad_breakpoints``."""
    x, h = smoothed.sample.values, smoothed.h
    knots = np.concatenate([x - h, x + h, smoothed.quad_breakpoints])
    return np.unique(knots[(knots >= 0.0) & (knots <= 1.0)])


def _seam_sums(x, t, h, kernel, order, side):
    """Kernel sums at t over the observations active just right of t
    (``side="right"``) or just left of it, membership by the float knots."""
    if side == "right":
        keep = (x - h <= t) & (t < x + h)
    else:
        keep = (x - h < t) & (t <= x + h)
    v = np.clip((t - x[keep]) / h, -1.0, 1.0)
    return float(np.sum(kernel.deriv(v, order))) / (x.size * h ** (order + 1))


def gauss_legendre(f, breakpoints, nodes=8):
    """Composite Gauss-Legendre integral of ``f`` over consecutive pieces."""
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    u, w = np.polynomial.legendre.leggauss(nodes)
    a, b = bp[:-1], bp[1:]
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + half[:, None] * u[None, :]
    vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    return float(np.sum(half * (vals @ w)))


class DirectSmoother:
    """The boundary-corrected smoother from direct kernel sums.

    Seam values and slopes are one-sided from inside [h, 1-h]; the slopes are
    clamped to at most 0. The positive part is normalized by Gauss-Legendre
    quadrature over ``knots``.
    """

    def __init__(self, values, kernel, h):
        x = np.sort(np.asarray(values, dtype=float))
        self.x, self.kernel, self.h = x, kernel, h
        self.lo, self.hi = h, 1.0 - h
        self.f_lo = _seam_sums(x, self.lo, h, kernel, 0, "right")
        self.f_hi = _seam_sums(x, self.hi, h, kernel, 0, "left")
        self.s_lo = min(_seam_sums(x, self.lo, h, kernel, 1, "right"), 0.0)
        self.s_hi = min(_seam_sums(x, self.hi, h, kernel, 1, "left"), 0.0)
        inner = np.concatenate([x - h, x + h])
        knots = [0.0, self.lo, self.hi, 1.0]
        knots += list(inner[(inner > self.lo) & (inner < self.hi)])
        if self.s_hi < 0.0 and self.f_hi + h * self.s_hi < 0.0:
            knots.append(max(self.hi - self.f_hi / self.s_hi, self.hi))
        self.knots = np.unique(knots)
        self.mass = gauss_legendre(self.positive, self.knots)

    def extended(self, t, order=0):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = kernel_sums(self.x, t, self.h, self.kernel, order)
        left, right = t < self.lo, t > self.hi
        seam = {0: (self.f_lo + (t - self.lo) * self.s_lo,
                    self.f_hi + (t - self.hi) * self.s_hi),
                1: (self.s_lo, self.s_hi), 2: (0.0, 0.0)}[order]
        out[left] = np.broadcast_to(seam[0], t.shape)[left]
        out[right] = np.broadcast_to(seam[1], t.shape)[right]
        return out

    def positive(self, t):
        return np.maximum(self.extended(t), 0.0)

    def pdf(self, t):
        return self.positive(t) / self.mass

    def cdf(self, t):
        """Integral of the pdf from 0 to t."""
        cuts = self.knots[self.knots < t]
        return gauss_legendre(self.pdf, np.append(cuts, t)) if t > 0 else 0.0


def l1_to_step(smoother, step):
    """Integral of |step - smoother.pdf| by Gauss-Legendre, split at every
    knot and step edge and at each sign change of the difference, found by
    a fine scan refined with brentq."""
    bp = np.union1d(smoother.knots, step.quad_breakpoints)

    def diff(t):
        return np.asarray(step(t), dtype=float) - smoother.pdf(t)

    cuts = [bp]
    for a, b in zip(bp[:-1], bp[1:]):
        # inside (a, b) the step is constant and the smoother a polynomial
        grid = a + (b - a) * np.clip(np.linspace(0.0, 1.0, 257), 1e-12, 1 - 1e-12)
        vals = diff(grid)
        cuts.append(grid[vals == 0.0])
        for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
            cuts.append([brentq(lambda s: float(diff(np.array([s]))[0]),
                                grid[i], grid[i + 1], xtol=1e-15)])
    return gauss_legendre(lambda t: np.abs(diff(t)), np.concatenate(cuts))
