"""Spans and counters recorded from outside the grenboot package.

``Tracer.install`` replaces each target function with a timing wrapper in
every grenboot module that binds it (the package imports names with
``from .x import y``, so a function is looked up in several modules), and
wraps the two ``SmoothedDensity`` methods on the class. ``uninstall`` puts
the originals back.

A span's self time is its duration minus the union of its child spans'
intervals. Each thread keeps its own span stack; work that
``map_indexed`` hands to a pool thread starts that thread's stack at the
``map_indexed`` span, so replicate spans count as its children whichever
thread ran them.
"""

import functools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (span name, module, attribute); "Class.method" attributes are wrapped on
# the class, plain functions wherever a grenboot module binds them
TARGETS = (
    ("density.grenander_fit", "density", "grenander_fit"),
    ("density.l1_distance", "density", "l1_distance"),
    ("integrate.integrate_piecewise", "integrate", "integrate_piecewise"),
    ("smoothing.build", "smoothing", "SmoothedDensity.__init__"),
    ("smoothing.eval", "smoothing", "SmoothedDensity.extended"),
    ("resampling.rejection_sample", "resampling", "rejection_sample"),
    ("resampling.envelope", "resampling", "envelope_bound"),
    ("inference.supersample", "inference", "supersample_centering"),
    ("limits.simulate_path", "limits", "simulate_path"),
    ("limits.argmax_process", "limits", "argmax_process"),
    ("limits.argmax_process", "limits", "chernoff_draw"),
    ("limits.argmax_process", "limits", "doubled_draw"),
    ("limits.reduce", "limits", "estimate_constants"),
    ("limits.reduce", "limits", "doubled_scaling_check"),
    ("limits.reduce", "limits", "chernoff_sample"),
    ("limits.reduce", "limits", "doubled_sample"),
    ("parallel.map_indexed", "parallel", "map_indexed"),
    ("cli.read_observations", "cli", "read_observations"),
    ("cli.write", "cli", "_write_csv"),
    ("cli.write", "cli", "_write_json"),
    ("cli.write", "cli", "_write_manifest"),
)

REJECTION = "resampling.rejection_sample"
ENVELOPE = "resampling.envelope"
MAP = "parallel.map_indexed"


def _union_length(intervals):
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def _npoints(args, kwargs, pos, key):
    t = args[pos] if len(args) > pos else kwargs.get(key)
    return int(np.size(t))


class _Span:
    __slots__ = ("name", "start", "children")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.children = []


class Tracer:
    """Per-name call counts, self seconds and counters, thread-safe."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.map_wall_s = 0.0
        self.map_cpu_s = 0.0
        self.absent = []

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name):
        span = _Span(name, time.perf_counter())
        self._stack().append(span)
        return span

    def exit(self, span):
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        parent = stack[-1] if stack else None
        with self._lock:
            self.calls[span.name] += 1
            self.self_s[span.name] += (end - span.start) - _union_length(span.children)
            if parent is not None:
                parent.children.append((span.start, end))

    def proposing(self):
        """Inside a rejection_sample span but not building its envelope."""
        names = [s.name for s in self._stack()]
        return REJECTION in names and ENVELOPE not in names

    def count(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def span(self, name, fn):
        """Call ``fn()`` inside a span named ``name``."""
        s = self.enter(name)
        try:
            return fn()
        finally:
            self.exit(s)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        before = {
            "smoothing.eval": self._count_eval,
            REJECTION: self._count_drawn,
            "integrate.integrate_piecewise": self._count_integrand,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            s = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(s)

        return wrapper

    def _count_eval(self, args, kwargs):
        # SmoothedDensity.extended(self, t, order=0)
        points = _npoints(args, kwargs, 1, "t")
        self.count("smoothing.eval.points", points)
        if self.proposing():
            self.count("resampling.proposals", points)
        return args, kwargs

    def _count_drawn(self, args, kwargs):
        # rejection_sample(smoothed, n, rng, ...)
        n = args[1] if len(args) > 1 else kwargs["n"]
        self.count("resampling.drawn", int(n))
        return args, kwargs

    def _count_integrand(self, args, kwargs):
        # integrate_piecewise(f, breakpoints, ...): count what f is given
        f = args[0] if args else kwargs.pop("f")

        def counted(x):
            self.count("integrate.integrand_points", int(np.size(x)))
            return f(x)

        return (counted,) + tuple(args[1:]), kwargs

    def _map_indexed(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(work, count, threads=1):
            span = tracer.enter(MAP)

            def adopted(i):
                # a pool thread starts its own stack at the map span
                stack = tracer._stack()
                if stack:
                    return work(i)
                stack.append(span)
                try:
                    return work(i)
                finally:
                    stack.pop()

            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                return fn(adopted, count, threads)
            finally:
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
                tracer.exit(span)
                with tracer._lock:
                    tracer.map_wall_s += wall
                    tracer.map_cpu_s += cpu

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "grenboot" or k.startswith("grenboot.")) and m is not None]
        for name, modname, attr in TARGETS:
            module = sys.modules.get("grenboot." + modname)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                self.absent.append("%s:%s" % (modname, attr))
                continue
            if owner_name:
                self._patch(owner, method, self._wrap(name, original))
                continue
            wrapped = (self._map_indexed(original) if name == MAP
                       else self._wrap(name, original))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def snapshot(self):
        """Totals so far, as plain data."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "map_wall_s": self.map_wall_s,
                "map_cpu_s": self.map_cpu_s,
            }
