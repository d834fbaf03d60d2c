"""Command-line harness: data generation, fitting, inference, limit-constant
estimation, and the simulation experiments, each run emitting a manifest.

Output conventions: JSON with sorted keys and two-space indentation; CSV
with a header row and full-precision (repr) decimals; `gen` writes the data
file at --out plus <out>.manifest.json, every other subcommand treats --out
as a prefix and writes <prefix>.json, usually <prefix>.csv, and
<prefix>.manifest.json. Exit codes: 0 success, 2 usage error, 1 runtime
error. Wall-clock time appears only in the manifest.

Every subcommand but `gen` hands its results to one writer, which times the
run and writes nothing until the run has succeeded; one helper resolves
--kernel, --alpha and --scale, with the library's defaults for unset flags.
"""

import argparse
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .density import (Sample, grenander_fit, triangular_density,
                      trunc_exp_density, uniform_density)
from .experiments import (run_band_coverage, run_inconsistency, run_l1_clt,
                          run_pointwise_coverage, run_rate)
from .inference import l1_band, smoothed_pointwise_ci
from .limits import (LimitConstants, LimitSimConfig, doubled_scaling_check,
                     estimate_constants)
from .parallel import default_threads
from .resampling import RngStream, sample_from_analytic
from .smoothing import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                        EPANECHNIKOV, BandwidthRule, SmoothedDensity,
                        kernel_by_name, kernel_satisfies)

__all__ = ["main"]


class UsageError(ValueError):
    """Bad flag values or combinations; maps to exit code 2."""


# -- small IO helpers --------------------------------------------------------


def _fmt(x):
    """Full-precision decimal text for floats; plain text otherwise."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[key]) for key in header) + "\n")


def _digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _write_manifest(path, subcommand, args, inputs, outputs, elapsed):
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "tool": "grenboot",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": {k: _json_safe(v) for k, v in params.items()},
        "seed": getattr(args, "seed", None),
        "input_digests": {p: _digest(p) for p in inputs},
        "outputs": sorted(outputs),
        "wall_clock_seconds": elapsed,
    }
    _write_json(path, manifest)


def _json_safe(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def read_observations(path, rescale=None):
    """Parse a data file: one decimal per line, '#' comments and blanks skipped.

    ``rescale`` is an optional (lo, hi) pair mapping [lo, hi] affinely onto
    [0, 1] before validation. Errors name the offending line number.
    """
    values = []
    lo = hi = None
    if rescale is not None:
        lo, hi = float(rescale[0]), float(rescale[1])
        if not hi > lo:
            raise UsageError("--rescale needs LO < HI")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                x = float(text)
            except ValueError:
                raise ValueError("line %d of %s: not a decimal value: %r"
                                 % (lineno, path, text)) from None
            if rescale is not None:
                x = (x - lo) / (hi - lo)
            if not 0.0 <= x <= 1.0:
                raise ValueError("line %d of %s: value %r outside [0, 1]"
                                 % (lineno, path, x))
            values.append(x)
    if not values:
        raise ValueError("no observations in %s" % path)
    return Sample(values)


def make_density(name, rate):
    if name == "uniform":
        return uniform_density()
    if name == "triangular":
        return triangular_density()
    if name == "trunc-exp":
        return trunc_exp_density(rate)
    raise UsageError("unknown density %r (choose uniform, triangular, trunc-exp)"
                     % name)


def _usage_guard(fn, *a, **kw):
    """Re-raise validation ValueErrors from flag semantics as usage errors."""
    try:
        return fn(*a, **kw)
    except UsageError:
        raise
    except ValueError as e:
        raise UsageError(str(e)) from None


def _resolve_threads(args):
    """The worker count from --threads or GRENBOOT_THREADS, stored back on
    ``args`` so that the manifest records the count that ran."""
    if args.threads is None:
        args.threads = _usage_guard(default_threads)
    elif args.threads < 1:
        raise UsageError("--threads must be at least 1, got %d" % args.threads)
    return args.threads


def _load_constants(path):
    with open(path, "r", encoding="utf-8") as fh:
        return LimitConstants.from_dict(json.load(fh))


# -- subcommands --------------------------------------------------------------


def _writes_outputs(cmd):
    """Time ``cmd(args)`` and write what it returns: ``(inputs, payload,
    tables)`` go to <out>.json, one <out><suffix> per (suffix, header, rows)
    table, and <out>.manifest.json. Nothing is written when ``cmd`` raises."""

    def run(args):
        t_start = time.monotonic()
        inputs, payload, tables = cmd(args)
        outputs = [args.out + ".json"]
        _write_json(outputs[0], {k: _json_safe(v) for k, v in payload.items()})
        for suffix, header, rows in tables:
            outputs.append(args.out + suffix)
            _write_csv(outputs[-1], header, rows)
        _write_manifest(args.out + ".manifest.json", args.subcommand, args,
                        inputs, outputs, time.monotonic() - t_start)
        return 0

    return run


# the library's kernel and bandwidth rule for each regime, for flags left unset
_REGIME_DEFAULTS = {"pointwise": (EPANECHNIKOV, DEFAULT_POINTWISE_RULE),
                    "l1": (BIWEIGHT, DEFAULT_L1_RULE)}


def _smoother_flags(args, regime):
    """The kernel and bandwidth rule that --kernel, --alpha and --scale give
    in ``regime``."""
    kernel, rule = _REGIME_DEFAULTS[regime]
    name = kernel.name if args.kernel is None else args.kernel
    alpha = rule.alpha if args.alpha is None else args.alpha
    return (_usage_guard(kernel_by_name, name),
            _usage_guard(BandwidthRule, alpha, args.scale, regime))


def cmd_gen(args):
    density = make_density(args.density, args.rate)
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    rng = RngStream(args.seed)
    t0 = time.monotonic()
    sample = sample_from_analytic(density, args.n, rng)
    with open(args.out, "w", encoding="utf-8") as fh:
        for v in sample.values:
            fh.write(repr(float(v)) + "\n")
    _write_manifest(args.out + ".manifest.json", "gen", args, [], [args.out],
                    time.monotonic() - t0)
    return 0


@_writes_outputs
def cmd_fit(args):
    if args.smooth_grid < 0 or args.smooth_grid == 1:
        raise UsageError("--smooth-grid must be 0 or at least 2, got %d"
                         % args.smooth_grid)
    if args.smooth_grid:
        kernel, rule = _smoother_flags(args, args.regime)
    sample = read_observations(args.data, args.rescale)
    fit = grenander_fit(sample)
    tables = [(".csv", ["breakpoint", "height"],
               [{"breakpoint": b, "height": h}
                for b, h in zip(fit.breakpoints, fit.heights)])]
    if args.smooth_grid:
        sd = SmoothedDensity(sample, kernel, rule.bandwidth(sample.n))
        grid = np.linspace(0.0, 1.0, args.smooth_grid)
        d2 = (sd.d2pdf(grid) if kernel_satisfies(kernel, "l1")
              else [""] * grid.size)
        rows = [{"t": t, "value": v, "deriv1": d1, "deriv2": dd}
                for t, v, d1, dd in zip(grid, sd.pdf(grid), sd.dpdf(grid), d2)]
        tables.append((".smooth.csv", ["t", "value", "deriv1", "deriv2"],
                       rows))
    return [args.data], {
        "n": sample.n,
        "steps": int(fit.heights.size),
        "mass": fit.mass,
        "max_height": float(fit.heights[0]),
    }, tables


@_writes_outputs
def cmd_ci(args):
    kernel, rule = _smoother_flags(args, "pointwise")
    threads = _resolve_threads(args)
    sample = read_observations(args.data, args.rescale)
    result = _usage_guard(
        smoothed_pointwise_ci,
        sample, args.t0, level=args.level, n_boot=args.boot, kernel=kernel,
        rule=rule, rng=RngStream(args.seed), threads=threads)
    return [args.data], result.summary_dict(), [
        (".csv", ["replicate", "deviation"],
         [{"replicate": b, "deviation": d}
          for b, d in enumerate(result.deviations)])]


@_writes_outputs
def cmd_band(args):
    kernel, rule = _smoother_flags(args, "l1")
    threads = _resolve_threads(args)
    sample = read_observations(args.data, args.rescale)
    result = _usage_guard(
        l1_band, sample, level=args.level, n_boot=args.boot, m=args.m,
        kernel=kernel, rule=rule, rng=RngStream(args.seed), threads=threads)
    return [args.data], result.summary_dict(), [
        (".csv", ["replicate", "l1_value", "standardized"],
         [{"replicate": b, "l1_value": l, "standardized": s}
          for b, (l, s) in enumerate(zip(result.l1_values,
                                         result.standardized))])]


@_writes_outputs
def cmd_limits(args):
    config = _usage_guard(
        LimitSimConfig, step=args.delta, window=args.window,
        n_paths=args.paths, lag_max=args.lag_max, lag_step=args.lag_step,
        n_batches=args.batches)
    threads = _resolve_threads(args)
    rng = RngStream(args.seed)
    # the scaling check runs first, so a bad scaling flag is a usage error
    # before the long constants run; its stream is independent of theirs
    scaling = None
    if args.check_scaling:
        scaling = _usage_guard(
            doubled_scaling_check, args.scaling_paths, args.delta,
            args.scaling_width, rng.substream(1), threads)
    constants = estimate_constants(config, rng.substream(0), threads)
    payload = constants.to_dict()
    if scaling is not None:
        payload["scaling"] = scaling
    return [], payload, []


@_writes_outputs
def cmd_experiment(args):
    threads = _resolve_threads(args)
    rng = RngStream(args.seed)
    truth = make_density(args.density, args.rate)
    inputs = []
    if args.name in ("inconsistency", "l1clt"):
        if not args.limits:
            raise UsageError("experiment %r needs --limits CONSTANTS.json "
                             "from a previous `grenboot limits` run" % args.name)
        constants = _load_constants(args.limits)
        inputs.append(args.limits)
    if args.name == "coverage":
        if args.band:
            kernel, rule = _smoother_flags(args, "l1")
            summary, rows = _usage_guard(
                run_band_coverage, truth, n=args.n, replicates=args.replicates,
                n_boot=args.boot, m=args.m, level=args.level, kernel=kernel,
                rule=rule, rng=rng, threads=threads)
        else:
            kernel, rule = _smoother_flags(args, "pointwise")
            summary, rows = _usage_guard(
                run_pointwise_coverage, truth, n=args.n,
                replicates=args.replicates, n_boot=args.boot, level=args.level,
                t0=args.t0, kernel=kernel, rule=rule, rng=rng, threads=threads)
    elif args.name == "inconsistency":
        summary, rows = _usage_guard(
            run_inconsistency, truth, constants, n=args.n,
            replicates=args.replicates, t0=args.t0, rng=rng, threads=threads)
    elif args.name == "rate":
        kernel, rule = _smoother_flags(args, "l1")
        n_grid = _usage_guard(
            lambda: [int(x) for x in args.n_grid.split(",") if x.strip()])
        summary, rows = _usage_guard(
            run_rate, truth, n_grid=n_grid, replicates=args.replicates,
            kernel=kernel, rule=rule, t0=args.t0, grid_size=args.grid_size,
            rng=rng, threads=threads)
    elif args.name == "l1clt":
        summary, rows = _usage_guard(
            run_l1_clt, truth, constants, n=args.n,
            replicates=args.replicates, rng=rng, threads=threads)
    else:
        raise UsageError("unknown experiment %r (choose coverage, "
                         "inconsistency, rate, l1clt)" % args.name)
    return inputs, summary, [(".csv", list(rows[0].keys()), rows)]


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grenboot",
        description="Monotone density estimation on [0,1] with bootstrap "
                    "inference and limit-law Monte Carlo.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seed=True, threads=True):
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="master seed; all randomness derives from it")
        if threads:
            p.add_argument("--threads", type=int, default=None,
                           help="worker processes; 1 runs in-process "
                                "(default: GRENBOOT_THREADS or 1)")

    p = sub.add_parser("gen", help="generate synthetic data from a known density")
    p.add_argument("--density", required=True,
                   help="uniform, triangular, or trunc-exp")
    p.add_argument("--rate", type=float, default=1.0,
                   help="rate for trunc-exp (default 1)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output data file")
    add_common(p, threads=False)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="Grenander fit of a data file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--rescale", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None, help="affinely map [LO, HI] onto [0, 1]")
    p.add_argument("--smooth-grid", type=int, default=0,
                   help="also dump the kernel smooth on a uniform grid of "
                        "this many points, 0 (no dump) or at least 2")
    p.add_argument("--kernel", default="biweight")
    p.add_argument("--alpha", type=float, default=DEFAULT_L1_RULE.alpha)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--regime", default="l1", choices=["pointwise", "l1"])
    p.set_defaults(func=cmd_fit, seed=None)

    p = sub.add_parser("ci", help="smoothed-bootstrap pointwise confidence interval")
    p.add_argument("--data", required=True)
    p.add_argument("--rescale", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--level", type=float, default=0.90,
                   help="confidence level (default 0.90)")
    p.add_argument("--boot", type=int, default=500, help="bootstrap replicates")
    p.add_argument("--alpha", type=float, default=DEFAULT_POINTWISE_RULE.alpha,
                   help="bandwidth exponent, in (0, 1/3)")
    p.add_argument("--scale", type=float, default=1.0, help="bandwidth scale")
    p.add_argument("--kernel", default="epanechnikov",
                   choices=["epanechnikov", "biweight"])
    p.add_argument("--out", required=True, help="output prefix")
    add_common(p)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("band", help="supersample-calibrated L1 confidence band")
    p.add_argument("--data", required=True)
    p.add_argument("--rescale", nargs=2, type=float, metavar=("LO", "HI"),
                   default=None)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--boot", type=int, default=300)
    p.add_argument("--m", type=int, default=None,
                   help="supersample size (default "
                        "max(10n, min(ceil(n^1.5), 200000)); an explicit "
                        "value may exceed the 200000 cap)")
    p.add_argument("--alpha", type=float, default=DEFAULT_L1_RULE.alpha,
                   help="bandwidth exponent, in (1/6, 1/5)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--kernel", default="biweight",
                   choices=["epanechnikov", "biweight"])
    p.add_argument("--out", required=True, help="output prefix")
    add_common(p)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("limits", help="Monte Carlo limit constants")
    p.add_argument("--delta", type=float, default=0.002, help="grid step")
    p.add_argument("--window", type=float, default=3.0,
                   help="argmax window half-width")
    p.add_argument("--paths", type=int, default=20000)
    p.add_argument("--lag-max", type=float, default=8.0)
    p.add_argument("--lag-step", type=float, default=0.25)
    p.add_argument("--batches", type=int, default=20,
                   help="batch count for batch-means standard errors")
    p.add_argument("--check-scaling", action="store_true",
                   help="also run the doubled-noise variance-ratio check")
    p.add_argument("--scaling-paths", type=int, default=20000)
    p.add_argument("--scaling-width", type=float, default=3.0)
    p.add_argument("--out", required=True, help="output prefix")
    add_common(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("experiment", help="run a named simulation experiment")
    p.add_argument("name", help="coverage, inconsistency, rate, or l1clt")
    p.add_argument("--density", default="triangular")
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--boot", type=int, default=200)
    p.add_argument("--m", type=int, default=20000)
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--t0", type=float, default=0.5)
    p.add_argument("--band", action="store_true",
                   help="coverage: build L1 bands instead of pointwise CIs")
    p.add_argument("--kernel", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--n-grid", default="1000,3162,10000,31623",
                   help="rate: comma-separated sample sizes")
    p.add_argument("--grid-size", type=int, default=2001,
                   help="rate: sup-norm evaluation grid")
    p.add_argument("--limits", default=None,
                   help="constants JSON from `grenboot limits` "
                        "(required for inconsistency and l1clt)")
    p.add_argument("--out", required=True, help="output prefix")
    add_common(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print("usage error: %s" % e, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
