"""Seeded random streams and the samplers behind the bootstrap procedures.

Randomness is addressed hierarchically: a master seed plus an integer path
names a stream, and substreams extend the path. Replicate b of experiment r
always draws from the same stream no matter how work is scheduled, which is
what makes multi-threaded runs byte-identical to serial ones.
"""

import numpy as np

from .density import Sample

__all__ = [
    "RngStream",
    "EnvelopeError",
    "sample_from_analytic",
    "multinomial_bootstrap",
    "subsample_without_replacement",
    "envelope_bound",
    "rejection_sample",
]


class EnvelopeError(RuntimeError):
    """Rejection sampler acceptance rate collapsed below the floor."""


class RngStream:
    """Deterministic random stream addressed by (seed, path).

    Wraps numpy's SeedSequence spawning: the same (seed, path) pair always
    yields the same generator state, and distinct paths never collide. The
    underlying Generator is created lazily so substream handles are cheap.
    """

    def __init__(self, seed, path=()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        if any(p < 0 for p in self.path):
            raise ValueError("path indices must be nonnegative")
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
    if n < 1:
        raise ValueError("n must be at least 1")
    u = rng.gen.uniform(size=int(n))
    return Sample(density.ppf(u))


def multinomial_bootstrap(sample, rng):
    """Resample n of the n observations with replacement."""
    idx = rng.gen.integers(0, sample.n, size=sample.n)
    return Sample(sample.values[idx])


def subsample_without_replacement(sample, m, rng):
    """Draw m of the n observations without replacement, m <= n."""
    m = int(m)
    if not 1 <= m <= sample.n:
        raise ValueError("m must lie in [1, n]")
    idx = rng.gen.choice(sample.n, size=m, replace=False)
    return Sample(sample.values[idx])


def envelope_bound(smoothed):
    """Upper bound for the truncated extended estimate, for rejection sampling.

    Grid maximum over 4096 points joined with the seam points, plus a
    Lipschitz slack max|slope| * grid spacing.
    """
    spacing = 1.0 / 4095.0
    grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 4096),
        np.asarray(smoothed.quad_breakpoints, dtype=float),
    ]))
    vals = np.maximum(np.asarray(smoothed.extended(grid, 0)), 0.0)
    slopes = np.abs(np.asarray(smoothed.extended(grid, 1)))
    bound = float(np.max(vals) + np.max(slopes) * spacing)
    if not np.isfinite(bound) or bound <= 0.0:
        raise ValueError("degenerate rejection envelope %r" % bound)
    return bound


def rejection_sample(smoothed, n, rng, min_rate=1e-4, burn_in=50000):
    """Draw n observations from the normalized smoothed density by rejection.

    Proposals are uniform on [0, 1] under the constant envelope
    ``smoothed.envelope``, which the smoother computes once with
    :func:`envelope_bound`; the target is the unnormalized truncated
    extension, so no normalizer is needed. Batch sizes adapt to the running
    acceptance-rate estimate but depend only on deterministic quantities,
    keeping the draw reproducible. An acceptance rate below ``min_rate``
    after ``burn_in`` proposals raises :class:`EnvelopeError`.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    bound = smoothed.envelope
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
        target = np.maximum(np.asarray(smoothed.extended(t, 0)), 0.0)
        acc = t[u <= target]
        kept.append(acc)
        got += acc.size
        proposed += batch
        if proposed >= burn_in and got < min_rate * proposed:
            raise EnvelopeError(
                "acceptance rate %.3g below %g after %d proposals"
                % (got / proposed, min_rate, proposed)
            )
    return Sample(np.concatenate(kept)[:n])
