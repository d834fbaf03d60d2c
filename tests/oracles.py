"""Independent reference implementations used only by the tests.

The least-concave-majorant oracle works by exhaustive search over vertex
subsets, so it is usable only for tiny samples, but its correctness argument
is elementary: every concave function dominating a point set also dominates
each piecewise-linear interpolant through a subset of those points wherever
the interpolant is concave and dominating, and the true majorant's vertex
set is one of the enumerated subsets. Taking a pointwise minimum over all
valid candidates therefore reproduces the majorant exactly. The hull oracle
computes the same majorant as an upper hull by a monotone-stack sweep, a
different algorithm from the PAVA the package uses.

The kernel smoother oracle recomputes the boundary-corrected estimate from
direct kernel sums, one observation at a time, and integrates it by
composite Gauss-Legendre quadrature split at every kernel knot X_i +- h, the
seams h and 1 - h, and the truncation crossing. Between those points the
estimate is a polynomial of degree at most 4, so eight nodes per panel
integrate it exactly up to rounding.

The kernel evaluator reads a kernel's coefficients with numpy's polynomial
functions, so no oracle runs package code to evaluate a kernel. The
kernel-condition oracle checks admissibility the way the package did
before its checks became exact: signs and bounds on a grid of 100001 points,
moments by Gauss-Legendre quadrature, exact for these polynomial integrands.

The re-expansion oracle takes each coefficient of a piecewise polynomial
about a new point from its derivative there, where the package uses a
Taylor shift. The exact two-polynomial L1 oracle re-expands both piecewise
polynomials that way on their merged breakpoints and integrates the absolute
difference between the roots of the difference that ``PPoly.roots`` finds:
one pair at a time, with none of the Taylor shifts or batching over steps
of the package's step-against-polynomial distance.

The L1 and shape-integral oracles split their quadrature at every sign
change of the functions involved, found by a fine scan refined with brentq
rather than from polynomial roots or monotonicity.

The ties oracle fits the Grenander estimator as the package does, but
finds the support points and their counts with ``np.unique``, which sorts
the data again, instead of from the runs of the sorted sample.

The rejection-sampling oracle evaluates the smoother at every proposal, with
no squeeze; it draws the same uniforms in the same batches as the package's
sampler, so the two must agree bit for bit.

The two-sided sup oracle is the sup distance as the package once computed
it: over the same grid, but with each step density probed from both sides
of every grid point, where the package reads its left-continuous values
only.

The windowed-argmax oracle finds xi(t) on a simulated path by stepping
through every offset of the window in turn and keeping the first strict
improvement, with no concave majorant and no vectorised argmax.
"""

from functools import cached_property
from itertools import combinations
from math import factorial

import numpy as np
from scipy.interpolate import PPoly
from scipy.optimize import brentq, isotonic_regression

from grenboot import EnvelopeError, Sample, StepDensity


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


def unique_grenander(sample):
    """Breakpoints and heights of the Grenander estimator of ``sample``,
    with the support and its counts from ``np.unique``."""
    jumps, counts = np.unique(sample.values, return_counts=True)
    xs = np.concatenate([[0.0], jumps])
    ys = np.concatenate([[0.0], np.cumsum(counts) / sample.n])
    if xs[-1] < 1.0:
        xs = np.append(xs, 1.0)
        ys = np.append(ys, 1.0)
    gap = np.diff(xs)
    idx = isotonic_regression(np.diff(ys) / gap, weights=gap,
                              increasing=False).blocks
    vx, vy = xs[idx], ys[idx]
    return vx[1:], np.diff(vy) / np.diff(vx)


def every_proposal_sample(smoothed, n, rng):
    """n draws from the normalized smoother by rejection under the constant
    envelope of ``smoothed.sampler_table``, evaluating ``smoothed.ppoly`` at
    every proposal."""
    bound = smoothed.sampler_table[0]
    gen = rng.gen
    kept = []
    got = 0
    proposed = 0
    while got < n:
        if proposed == 0:
            batch = min(8192, max(512, 2 * n))
        else:
            rate = max(got, 1) / proposed
            batch = int(min(65536, max(256, 1.25 * (n - got) / rate)))
        t = gen.uniform(size=batch)
        u = gen.uniform(0.0, bound, size=batch)
        acc = t[u <= smoothed.ppoly(t)]
        kept.append(acc)
        got += acc.size
        proposed += batch
        if proposed >= 50000 and got < 1e-4 * proposed:
            raise EnvelopeError("acceptance rate collapsed")
    return Sample(np.concatenate(kept)[:n])


def _sided(d, t, side):
    """``d`` at the points ``t``; a step density's value just left of each
    point (its own value) or just right of it."""
    if isinstance(d, StepDensity):
        j = np.searchsorted(d.breakpoints, t, side=side)
        return d.heights[np.minimum(j, d.heights.size - 1)]
    return np.asarray(d(t), dtype=float)


def two_sided_sup_distance(a, b, grid_size=10001):
    """Largest |a - b| over a uniform grid joined with both kink lists,
    with each step density read from the left and from the right of every
    point."""
    pts = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, grid_size),
        getattr(a, "quad_breakpoints", []),
        getattr(b, "quad_breakpoints", []),
    ]))
    return max(float(np.max(np.abs(_sided(a, pts, side) - _sided(b, pts, side))))
               for side in ("left", "right"))


def hull_majorant(values):
    """Least concave majorant of the empirical CDF of the sorted ``values``
    on [0, 1], as the vertex arrays ``(vx, vy)`` of the upper hull of the
    points (0, 0), (x_i, F_n(x_i)), (1, 1) by a single monotone-stack sweep.
    An observation at exactly 0 raises ValueError.
    """
    jumps, counts = np.unique(values, return_counts=True)
    if jumps[0] <= 0.0:
        raise ValueError(
            "observation at exactly 0 gives a degenerate monotone MLE; "
            "shift or rescale the data away from 0"
        )
    xs = np.concatenate([[0.0], jumps])
    ys = np.concatenate([[0.0], np.cumsum(counts) / len(values)])
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
    return xs[idx], ys[idx]


# -- kernels -----------------------------------------------------------------


def kernel_deriv(kernel, v, order):
    """Derivative of the given order of ``kernel`` at ``v``, from its
    ascending coefficients, and exactly 0 outside [-1, 1]."""
    v = np.asarray(v, dtype=float)
    coef = np.polynomial.polynomial.polyder(kernel.coefficients, order)
    return np.where(np.abs(v) <= 1.0,
                    np.polynomial.polynomial.polyval(v, coef), 0.0)


def grid_kernel_conditions(kernel, level="pointwise"):
    """Residual of each admissibility condition by name, from grids and
    quadrature; :func:`kernel_deriv` is the only view of the kernel it takes.
    Its moments are Gauss-Legendre with 16 nodes on [-1, 1], exact for
    kernels up to degree 29."""
    closed = np.linspace(-1.0, 1.0, 100001)
    interior = closed[1:-1]
    outside = np.concatenate([-1.0 - np.geomspace(1e-9, 1.0, 1000),
                              1.0 + np.geomspace(1e-9, 1.0, 1000)])

    def moment(order, power):
        return gauss_legendre(
            lambda v: kernel_deriv(kernel, v, order) * v ** power,
            [-1.0, 1.0], nodes=16)

    k0 = kernel_deriv(kernel, closed, 0)
    k1 = kernel_deriv(kernel, closed, 1)
    out = {
        "compact_support": float(
            np.max(np.abs(kernel_deriv(kernel, outside, 0)))),
        "nonnegative": max(0.0, -float(np.min(k0))),
        "bounded": float(np.max(np.abs(k0))),
        "unit_mass": abs(moment(0, 0) - 1.0),
        "deriv_bounded": float(np.max(np.abs(k1))),
        "deriv_nonincreasing_sign": max(0.0, float(np.max(closed * k1))),
        "deriv_mass_zero": abs(moment(1, 0)),
        "deriv_first_moment": abs(moment(1, 1) + 1.0),
    }
    if level == "l1":
        out["first_moment_zero"] = abs(moment(0, 1))
        out["dderiv_mass_zero"] = abs(moment(2, 0))
        out["dderiv_first_moment_zero"] = abs(moment(2, 1))
        out["dderiv_slope_bounded"] = float(
            np.max(np.abs(kernel_deriv(kernel, interior, 3))))
    return out


# -- kernel smoother ---------------------------------------------------------


def kernel_sums(x, t, h, kernel, order=0):
    """(1/(n h^(order+1))) sum_i K^(order)((t - X_i)/h), summed directly."""
    x = np.asarray(x, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(t.size)
    for i in range(0, t.size, 1024):
        v = (t[i:i + 1024, None] - x[None, :]) / h
        out[i:i + 1024] = kernel_deriv(kernel, v, order).sum(axis=1)
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
    return (float(np.sum(kernel_deriv(kernel, v, order)))
            / (x.size * h ** (order + 1)))


def gauss_legendre(f, breakpoints, nodes=8):
    """Composite Gauss-Legendre integral of ``f`` over consecutive pieces."""
    bp = np.unique(np.asarray(breakpoints, dtype=float))
    u, w = np.polynomial.legendre.leggauss(nodes)
    a, b = bp[:-1], bp[1:]
    half = 0.5 * (b - a)
    t = (0.5 * (a + b))[:, None] + half[:, None] * u[None, :]
    vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
    return float(np.sum(half * (vals @ w)))


def sign_changes(f, breakpoints):
    """Points inside each interval between ``breakpoints`` where the
    vectorized ``f`` changes sign: a scan of 257 points per interval, each
    bracket between consecutive nonzero values of opposite sign refined by
    brentq."""
    out = []
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        grid = a + (b - a) * np.clip(np.linspace(0.0, 1.0, 257), 1e-12, 1 - 1e-12)
        vals = np.asarray(f(grid), dtype=float)
        nz = np.nonzero(vals)[0]
        for i, k in zip(nz[:-1], nz[1:]):
            if vals[i] * vals[k] < 0.0:
                out.append(brentq(lambda s: float(f(np.array([s]))[0]),
                                  grid[i], grid[k], xtol=1e-15))
    return np.asarray(out, dtype=float)


def shape_integral(smoothed, nodes=20):
    """Integral of |g' g / 2|^(1/3) for a fitted smoother g, by Gauss-Legendre
    on every interval between the breakpoints of :func:`smoother_breakpoints`
    and the sign changes of g and g'. It reads the smoother's own ``pdf`` and
    ``dpdf``, which other oracles check, so it checks only the quadrature.

    The integrand may have a cube-root cusp at an interval's end, so each
    interval is cut into 64 equal panels and, toward both ends, into panels
    graded geometrically down to 2^-40 of its width: each graded panel is as
    wide as its distance from the end, where the integrand is smooth on the
    panel's scale."""
    bp = smoother_breakpoints(smoothed)
    bp = np.unique(np.concatenate([bp, sign_changes(smoothed.pdf, bp),
                                   sign_changes(smoothed.dpdf, bp)]))
    graded = np.geomspace(2.0 ** -40, 0.5, 40)
    q = np.unique(np.concatenate([[0.0], graded, 1.0 - graded, [1.0],
                                  np.linspace(0.0, 1.0, 65)]))
    a, b = bp[:-1], bp[1:]
    cuts = a[:, None] + (b - a)[:, None] * q

    def f(t):
        return np.abs(0.5 * smoothed.dpdf(t) * smoothed.pdf(t)) ** (1.0 / 3.0)

    return gauss_legendre(f, cuts.ravel(), nodes)


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

    @cached_property
    def mass(self):
        # on first use: the quadrature sums every observation at every node,
        # which costs seconds at a few thousand observations
        return gauss_legendre(self.positive, self.knots)

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


def l1_to_step(pdf, step, knots=(0.0, 1.0)):
    """Integral of |step - pdf| by Gauss-Legendre with 20 nodes, split at
    every step edge, at ``knots`` (where ``pdf`` may fail to be smooth) and
    at each sign change of the difference (:func:`sign_changes`)."""
    bp = np.union1d(knots, step.quad_breakpoints)

    def diff(t):
        return np.asarray(step(t), dtype=float) - np.asarray(pdf(t), dtype=float)

    cuts = np.union1d(bp, sign_changes(diff, bp))
    return gauss_legendre(lambda t: np.abs(diff(t)), cuts, nodes=20)


def reexpand(pp, left, degree):
    """Coefficients of ``pp`` about each point of ``left``, padded to
    ``degree``, in ``PPoly`` order: the q-th derivative there over q!."""
    c = np.empty((degree + 1, left.size))
    for q in range(degree + 1):
        c[degree - q] = pp(left, nu=q) / factorial(q)
    return c


def l1_exact(pa, pb):
    """Exact integral of |pa - pb| for two piecewise polynomials on [0, 1].

    Both are re-expanded on the merged breakpoints. Between consecutive
    roots of the difference its sign is fixed, so the integral is a sum of
    absolute antiderivative increments.
    """
    x = np.union1d(pa.x, pb.x)
    k = max(pa.c.shape[0], pb.c.shape[0]) - 1
    diff = PPoly(reexpand(pa, x[:-1], k) - reexpand(pb, x[:-1], k), x)
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


def windowed_argmax(values, centers, w, step):
    """Leftmost argmax i * step over |i| <= w of
    values[..., c + i] - values[..., c] - (i * step)^2, for each center
    index c, on the last axis of ``values``. Returns ``(locations, hits)``,
    each shaped ``values.shape[:-1] + (len(centers),)``; a hit flags an
    argmax on the window edge, i = -w or i = w.
    """
    centers = np.asarray(centers, dtype=int)
    base = values[..., centers]
    best = np.full(base.shape, -np.inf)
    arg = np.zeros(base.shape, dtype=int)
    for i in range(-w, w + 1):
        h = i * step
        v = values[..., centers + i] - base - h * h
        better = v > best
        best[better] = v[better]
        arg[better] = i
    return arg * step, np.abs(arg) == w
