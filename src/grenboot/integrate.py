"""Adaptive Simpson quadrature with batched integrand evaluation.

Used where an integrand has no piecewise-polynomial form: L1 distances to
non-polynomial densities and shape integrals.

The classic recursive scheme with Richardson acceptance is run breadth-first:
every refinement level evaluates the integrand once on the batch of all
active panel points, so integrands backed by numpy stay fast even when many
panels refine at once.
"""

import numpy as np

__all__ = ["adaptive_simpson", "integrate_piecewise"]

# hard cap on simultaneously active panels; ordinary integrands with a few
# kinks stay in the tens, so hitting this means the integrand is broken
_MAX_ACTIVE = 500_000


def _evaluate(f, x):
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must return one value per evaluation point")
    bad = ~np.isfinite(y)
    if bad.any():
        raise ValueError(
            "integrand returned a non-finite value at t=%r" % float(x[bad][0])
        )
    return y


def adaptive_simpson(f, a, b, tol=1e-8, max_depth=30):
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Parameters
    ----------
    f : callable
        Vectorized integrand: maps a 1-d float array to a same-shaped array.
        Non-finite values raise ValueError.
    a, b : float
        Endpoints, ``a <= b``.
    tol : float
        Absolute error target for the whole interval.
    max_depth : int
        Halving depth at which a panel is accepted regardless of its
        Richardson estimate.

    Returns
    -------
    float
    """
    return integrate_piecewise(f, [a, b], tol=tol, max_depth=max_depth)


def integrate_piecewise(f, breakpoints, tol=1e-8, max_depth=30):
    """Integrate ``f`` over consecutive panels split at known breakpoints.

    The absolute tolerance is shared out to panels in proportion to their
    length, so kinks known ahead of time (step edges, seams of a piecewise
    definition) cost nothing beyond the panels they create.

    ``tol`` holds only when ``f`` is smooth between the given breakpoints.
    A kink left out of them can make the Richardson estimate accept a panel
    whose error is far above its share of the tolerance.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two breakpoints")
    if not np.all(np.isfinite(bp)):
        raise ValueError("breakpoints must be finite")
    if np.any(np.diff(bp) < 0):
        raise ValueError("breakpoints must be non-decreasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = bp[:-1]
    b = bp[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    if a.size == 0:
        return 0.0
    total_len = float(np.sum(b - a))

    m = 0.5 * (a + b)
    fa = _evaluate(f, a)
    fm = _evaluate(f, m)
    fb = _evaluate(f, b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol_panel = tol * (b - a) / total_len
    depth = np.zeros(a.size, dtype=np.int64)

    total = 0.0
    while a.size:
        if a.size > _MAX_ACTIVE:
            raise RuntimeError("quadrature failed to converge: too many active panels")
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        fv = _evaluate(f, np.concatenate([lm, rm]))
        flm, frm = fv[: a.size], fv[a.size :]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * tol_panel) | (depth >= max_depth)
        # Richardson correction delta/15 on accepted panels
        total += float(np.sum(left[done] + right[done] + delta[done] / 15.0))
        go = ~done
        a2 = np.concatenate([a[go], m[go]])
        m2 = np.concatenate([lm[go], rm[go]])
        b2 = np.concatenate([m[go], b[go]])
        fa2 = np.concatenate([fa[go], fm[go]])
        fm2 = np.concatenate([flm[go], frm[go]])
        fb2 = np.concatenate([fm[go], fb[go]])
        whole = np.concatenate([left[go], right[go]])
        half_tol = 0.5 * tol_panel[go]
        tol_panel = np.concatenate([half_tol, half_tol])
        depth = np.concatenate([depth[go] + 1, depth[go] + 1])
        a, m, b, fa, fm, fb = a2, m2, b2, fa2, fm2, fb2
    return total
