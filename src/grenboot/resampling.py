"""Seeded random streams and the samplers behind the bootstrap procedures.

Randomness is addressed hierarchically: a master seed plus an integer path
names a stream, and substreams extend the path. Replicate b of experiment r
always draws from the same stream no matter how work is scheduled, which is
what makes runs over several worker processes byte-identical to serial ones.
"""

import numpy as np

from .density import Sample, _spread_and_integral, _split
from .parallel import _count

__all__ = [
    "RngStream",
    "EnvelopeError",
    "sample_from_analytic",
    "multinomial_bootstrap",
    "rejection_sample",
]


class EnvelopeError(RuntimeError):
    """Rejection sampler acceptance rate collapsed below the floor."""


class RngStream:
    """Deterministic random stream addressed by (seed, path).

    Wraps numpy's SeedSequence spawning: the same (seed, path) pair always
    yields the same generator state, and distinct paths never collide.
    The seed and the path indices are integers >= 0, bools excluded. The
    underlying Generator is created lazily so substream handles are cheap.
    """

    def __init__(self, seed, path=()):
        self.seed = _count(seed, "seed", 0)
        self.path = tuple(_count(p, "path index", 0) for p in path)
        self._gen = None

    @property
    def gen(self):
        if self._gen is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def substream(self, *indices):
        """Child stream at the extended path; independent of this one."""
        return RngStream(self.seed, self.path + tuple(indices))

    def __repr__(self):
        return "RngStream(seed=%d, path=%r)" % (self.seed, self.path)


def sample_from_analytic(density, n, rng):
    """Draw n observations by inverse-CDF sampling from a closed-form density."""
    u = rng.gen.uniform(size=_count(n, "n", 1))
    return Sample(density.ppf(u))


def multinomial_bootstrap(sample, rng):
    """Resample n of the n observations with replacement."""
    idx = rng.gen.integers(0, sample.n, size=sample.n)
    return Sample(sample.values[idx])


# a power of two, so t * _CELLS and k / _CELLS are exact
_CELLS = 4096


def _sampler_table(smoothed):
    """The rejection sampler's ``(envelope, lo, hi)`` for a smoother.

    ``envelope`` bounds the normalized density: its maximum over 4096 grid
    points joined with the seam points, plus a Lipschitz slack max|slope| *
    grid spacing. ``lo`` and ``hi`` bound max(ppoly, 0) on each cell
    [k, k+1) / 4096, from the range bound c0 +- sum_{q>=1} |c_q| w^q of
    each sub-piece of ``ppoly`` split at the cell edges, widened by 1e-9
    ``envelope``, far above the rounding of evaluating ``ppoly``, so that
    they bracket its computed values too.
    """
    pp = smoothed.ppoly
    spacing = 1.0 / 4095.0
    grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 4096),
        np.asarray(smoothed.quad_breakpoints, dtype=float),
    ]))
    vals = np.maximum(pp(grid), 0.0)
    slopes = np.abs(pp(grid, 1))
    envelope = float(np.max(vals) + np.max(slopes) * spacing)
    if not np.isfinite(envelope) or envelope <= 0.0:
        raise ValueError("degenerate rejection envelope %r" % envelope)
    edges = np.arange(_CELLS + 1) / _CELLS
    x, c = _split(pp, edges)
    rest = _spread_and_integral(c[::-1], np.diff(x))[0]
    start = np.searchsorted(x, edges[:-1])
    margin = 1e-9 * envelope
    lo = np.maximum(np.minimum.reduceat(c[-1] - rest, start), 0.0) - margin
    hi = np.maximum(np.maximum.reduceat(c[-1] + rest, start), 0.0) + margin
    return envelope, lo, hi


_WARMUP_PROPOSALS = 50000
_MIN_ACCEPTANCE = 1e-4


def rejection_sample(smoothed, n, rng):
    """Draw n observations from the normalized smoothed density by rejection.

    The smoother's ``sampler_table``, built on its first draw, holds a
    constant envelope and a squeeze (Marsaglia 1977): lower and upper bounds
    of the target ``smoothed.ppoly`` on each cell [k, k+1) / 4096.
    Proposals are uniform on [0, 1] under the envelope; one under its
    cell's lower bound is accepted and one over its upper bound rejected,
    and only the rest, a fraction of a percent, evaluate ``smoothed.ppoly``.
    The bounds bracket the computed target, so every decision, and so every
    draw, is the one evaluating each proposal would give. Batch sizes adapt
    to the running acceptance-rate estimate but depend only on deterministic
    quantities, keeping the draw reproducible. An acceptance rate below 1e-4
    once 50000 or more proposals have been made raises
    :class:`EnvelopeError`.
    """
    n = _count(n, "n", 1)
    bound, lo, hi = smoothed.sampler_table
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
        # the draws of gen.uniform(size=batch) and
        # gen.uniform(0.0, bound, size=batch), without their overhead
        t = gen.random(batch)
        u = bound * gen.random(batch)
        k = (t * _CELLS).astype(np.intp)
        keep = u <= lo[k]
        near = np.flatnonzero(~keep & (u <= hi[k]))
        if near.size:
            keep[near] = u[near] <= smoothed.ppoly(t[near])
        acc = t[keep]
        kept.append(acc)
        got += acc.size
        proposed += batch
        if proposed >= _WARMUP_PROPOSALS and got < _MIN_ACCEPTANCE * proposed:
            raise EnvelopeError(
                "acceptance rate %.3g below %g after %d proposals"
                % (got / proposed, _MIN_ACCEPTANCE, proposed)
            )
    return Sample(np.concatenate(kept)[:n])
