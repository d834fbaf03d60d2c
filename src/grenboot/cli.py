"""Command-line harness: data generation, fitting, inference, limit-constant
estimation, and the simulation experiments, each run emitting a manifest.

Output conventions: JSON with sorted keys and two-space indentation; CSV
with a header row and full-precision (repr) decimals; `gen` writes the data
file at --out plus <out>.manifest.json, every other subcommand treats --out
as a prefix and writes <prefix>.json, usually <prefix>.csv, and
<prefix>.manifest.json. Exit codes: 0 success, 2 usage error, 1 runtime
error. Wall-clock time appears only in the manifest.

Every subcommand returns the text of its files to one writer, which times
the run and opens no file until every text, the manifest's included, is
built. A data file is read in one pass; argparse checks the density and
experiment names, and ``main`` checks that every float flag is finite. An
unset flag takes the library's default, and the value that ran is stored
back for the manifest: one helper resolves --kernel, --alpha and --scale,
and ``ci``, ``band`` and ``experiment`` share one path that passes the
library only the flags that are set. ``experiment`` runs from one table of
each run's runner, regime and flags, and a flag set where the run does not
read it is a usage error. A usage error is an
:class:`~grenboot.parallel.InputError`, raised where the value is checked,
in the library or here; ``main`` reports it with the flag in place of the
parameter that heads its message.

--threads caps the workers of every replicate loop, at the usable CPUs by
default; outputs do not depend on it, and the manifest records the cap.
"""

import argparse
import hashlib
import json
import math
import os
import re
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
from .parallel import InputError, _count
from .resampling import RngStream, sample_from_analytic
from .smoothing import (BIWEIGHT, DEFAULT_L1_RULE, DEFAULT_POINTWISE_RULE,
                        EPANECHNIKOV, BandwidthRule, fit_smoothed,
                        kernel_by_name, kernel_satisfies)

__all__ = ["main"]


# -- small IO helpers --------------------------------------------------------


def _fmt(x):
    """Full-precision decimal text for floats; plain text otherwise."""
    if isinstance(x, float) or isinstance(x, np.floating):
        return repr(float(x))
    return str(x)


def _json_text(obj):
    """``obj`` as strict JSON text: a non-finite float raises ValueError."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header, rows):
    """The header line, then one line of ``_fmt`` cells per row."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])


def _digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _manifest_text(args, inputs, outputs, elapsed):
    params = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return _json_text({
        "tool": "grenboot",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "input_digests": {p: _digest(p) for p in inputs},
        "outputs": sorted(outputs),
        "wall_clock_seconds": elapsed,
    })


def read_observations(path, rescale=None):
    """Parse a data file in one pass: one decimal per line, '#' comments,
    blanks and a leading UTF-8 byte-order mark skipped. ``rescale`` is an
    optional (lo, hi) pair mapping [lo, hi] affinely onto [0, 1] before
    validation. The first line that is no decimal, or lies outside [0, 1],
    raises, naming its number."""
    if rescale is not None:
        lo, hi = float(rescale[0]), float(rescale[1])
        if not -np.inf < lo < hi < np.inf:
            raise InputError("--rescale needs finite LO < HI")
    values = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text[0] == "#":
                continue
            try:
                value = float(text)
            except ValueError:
                raise ValueError("line %d of %s: not a decimal value: %r"
                                 % (lineno, path, text)) from None
            if rescale is not None:
                value = (value - lo) / (hi - lo)
            if not 0.0 <= value <= 1.0:
                raise ValueError("line %d of %s: value %r outside [0, 1]"
                                 % (lineno, path, value))
            values.append(value)
    if not values:
        raise ValueError("no observations in %s" % path)
    return Sample(np.array(values))


# --density's choices; only trunc-exp takes a --rate
_DENSITIES = {"uniform": uniform_density, "triangular": triangular_density,
              "trunc-exp": trunc_exp_density}


def _density(args):
    """The density that --density names, at --rate when that is set."""
    if args.rate is None:
        return _DENSITIES[args.density]()
    if args.density != "trunc-exp":
        raise InputError("--density %s does not read --rate" % args.density)
    return trunc_exp_density(args.rate)


def _sizes(text):
    """--n-grid's comma-separated integers."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "takes comma-separated integers, got %r" % text) from None


# the flag that sets each library parameter that can head an InputError's
# message; --paths and --scaling-paths both set an n_paths, and the scaling
# check names its own
_FLAGS = {"n": "--n", "rate": "--rate", "seed": "--seed",
          "alpha": "--alpha", "scale": "--scale", "t0": "--t0",
          "level": "--level", "n_boot": "--boot", "supersample size m": "--m",
          "step": "--delta", "window": "--window", "n_paths": "--paths",
          "lag_max": "--lag-max", "lag_step": "--lag-step",
          "n_batches": "--batches", "replicates": "--replicates",
          "the scaling check's n_paths": "--scaling-paths",
          "grid_size": "--grid-size", "n_grid": "--n-grid",
          "each n_grid size": "each --n-grid size"}


def _flagged(message):
    """``message`` with the parameter at its head replaced by its flag."""
    for name, flag in _FLAGS.items():
        if re.match(re.escape(name) + r"\b", message):
            return flag + message[len(name):]
    return message


def _usable_cpus():
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU. A cgroup CPU quota is not seen."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_constants(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return LimitConstants.from_dict(json.load(fh))


# -- subcommands --------------------------------------------------------------


def _writes_outputs(cmd):
    """Time ``cmd(args)`` and write what it returns: ``(inputs, files)``, a
    (suffix, text) pair per file, each written to <out><suffix>, and then
    <out>.manifest.json. Every text is built before the first file opens,
    so nothing is written when ``cmd`` raises or the manifest is not
    strict JSON."""

    def run(args):
        t_start = time.monotonic()
        inputs, files = cmd(args)
        files = [(args.out + suffix, text) for suffix, text in files]
        files.append((args.out + ".manifest.json", _manifest_text(
            args, inputs, [path for path, _ in files],
            time.monotonic() - t_start)))
        for path, text in files:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0

    return run


# the library's kernel and bandwidth rule for each regime, for flags left unset
_REGIME_DEFAULTS = {"pointwise": (EPANECHNIKOV, DEFAULT_POINTWISE_RULE),
                    "l1": (BIWEIGHT, DEFAULT_L1_RULE)}


def _smoother_flags(args, regime):
    """The kernel and bandwidth rule that --kernel, --alpha and --scale give
    in ``regime``. The kernel name, alpha and scale are stored back on
    ``args``, so that the manifest records the values that ran."""
    kernel, rule = _REGIME_DEFAULTS[regime]
    if args.kernel is None:
        args.kernel = kernel.name
    if args.alpha is None:
        args.alpha = rule.alpha
    if args.scale is None:
        args.scale = rule.scale
    return (kernel_by_name(args.kernel),
            BandwidthRule(args.alpha, args.scale, regime))


def _run_lib(args, regime, params, call):
    """The .json and .csv texts of ``call(**kwargs)``: its summary, then a
    CSV of its header and rows. ``kwargs`` holds --seed's stream, --threads,
    the flags in ``params`` that are set, so that an unset one takes the
    library's default, and, unless ``regime`` is None, its kernel and rule.
    Each value that ran is stored back from the summary for the manifest."""
    kwargs = {key: getattr(args, key) for key in params
              if getattr(args, key) is not None}
    if regime is not None:
        kwargs["kernel"], kwargs["rule"] = _smoother_flags(args, regime)
    summary, header, rows = call(rng=RngStream(args.seed),
                                 threads=args.threads, **kwargs)
    for key in params:
        setattr(args, key, summary[key])
    return [(".json", _json_text(summary)), (".csv", _csv_text(header, rows))]


@_writes_outputs
def cmd_gen(args):
    sample = sample_from_analytic(_density(args), args.n,
                                  RngStream(args.seed))
    return [], [("", "".join(repr(float(v)) + "\n" for v in sample.values))]


@_writes_outputs
def cmd_fit(args):
    if args.smooth_grid:
        _count(args.smooth_grid, "a nonzero --smooth-grid", 2)
    kernel, rule = _smoother_flags(args, args.regime)
    sample = read_observations(args.data, args.rescale)
    fit = grenander_fit(sample)
    files = [(".json", _json_text({
        "n": sample.n,
        "steps": int(fit.heights.size),
        "mass": fit.mass,
        "max_height": float(fit.heights[0]),
    })), (".csv", _csv_text(["breakpoint", "height"],
                            zip(fit.breakpoints, fit.heights)))]
    if args.smooth_grid:
        sd = fit_smoothed(sample, kernel, rule)
        grid = np.linspace(0.0, 1.0, args.smooth_grid)
        d2 = (sd.d2pdf(grid) if kernel_satisfies(kernel, "l1")
              else [""] * grid.size)
        files.append((".smooth.csv", _csv_text(
            ["t", "value", "deriv1", "deriv2"],
            zip(grid, sd.pdf(grid), sd.dpdf(grid), d2))))
    return [args.data], files


@_writes_outputs
def cmd_ci(args):
    def call(**kwargs):
        sample = read_observations(args.data, args.rescale)
        ci = smoothed_pointwise_ci(sample, args.t0, **kwargs)
        return (ci.summary_dict(), ["replicate", "deviation"],
                enumerate(ci.deviations))
    return [args.data], _run_lib(args, "pointwise", ["level", "n_boot"], call)


@_writes_outputs
def cmd_band(args):
    def call(**kwargs):
        band = l1_band(read_observations(args.data, args.rescale), **kwargs)
        return (band.summary_dict(), ["replicate", "l1_value", "standardized"],
                zip(range(band.n_boot), band.l1_values, band.standardized))
    return [args.data], _run_lib(args, "l1", ["level", "n_boot", "m"], call)


@_writes_outputs
def cmd_limits(args):
    config = LimitSimConfig(
        step=args.delta, window=args.window, n_paths=args.paths,
        lag_max=args.lag_max, lag_step=args.lag_step, n_batches=args.batches)
    rng = RngStream(args.seed)
    # the scaling check runs first, so a bad scaling flag is a usage error
    # before the long constants run; its stream is independent of theirs
    payload = {}
    if args.check_scaling:
        if args.scaling_paths is None:
            args.scaling_paths = LimitSimConfig.n_paths
        payload["scaling"] = doubled_scaling_check(
            args.scaling_paths, args.delta, args.window,
            rng.substream(1), args.threads)
    elif args.scaling_paths is not None:
        raise InputError("limits without --check-scaling does not read "
                         "--scaling-paths")
    payload.update(estimate_constants(config, rng.substream(0),
                                      args.threads).to_dict())
    return [], [(".json", _json_text(payload))]


# each experiment run: its runner, the regime whose kernel and bandwidth
# --kernel, --alpha and --scale set (None: it reads --limits instead), and
# the other flags it reads, by the runner's parameter names; an unset flag
# takes the runner's default
_EXPERIMENTS = {
    "coverage": (run_pointwise_coverage, "pointwise",
                 ["n", "replicates", "n_boot", "level", "t0"]),
    "coverage --band": (run_band_coverage, "l1",
                        ["n", "replicates", "n_boot", "m", "level"]),
    "inconsistency": (run_inconsistency, None, ["n", "replicates", "t0"]),
    "rate": (run_rate, "l1", ["n_grid", "replicates", "t0", "grid_size"]),
    "l1clt": (run_l1_clt, None, ["n", "replicates"]),
}


@_writes_outputs
def cmd_experiment(args):
    run = args.name + " --band" * args.band
    if run not in _EXPERIMENTS:
        raise InputError("experiment %s does not read --band" % args.name)
    runner, regime, params = _EXPERIMENTS[run]
    reads = params + (["limits"] if regime is None
                      else ["kernel", "alpha", "scale"])
    varying = {"limits", "kernel", "alpha", "scale"}.union(
        *(flags for _, _, flags in _EXPERIMENTS.values()))
    unread = [_FLAGS.get(key, "--" + key.replace("_", "-"))
              for key, value in vars(args).items()
              if key in varying and key not in reads and value is not None]
    if unread:
        raise InputError("experiment %s does not read %s"
                         % (run, ", ".join(unread)))
    inputs, given = [], [_density(args)]
    if regime is None:
        if args.limits is None:
            raise InputError("experiment %r needs --limits CONSTANTS.json "
                             "from a previous `grenboot limits` run" % run)
        given.append(_load_constants(args.limits))
        inputs.append(args.limits)

    def call(**kwargs):
        summary, rows = runner(*given, **kwargs)
        return summary, list(rows[0]), map(dict.values, rows)
    return inputs, _run_lib(args, regime, params, call)


# -- parser -------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="grenboot",
        description="Monotone density estimation on [0,1] with bootstrap "
                    "inference and limit-law Monte Carlo.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_flags(p, data=False, boot=False, smoother=False, seed=True,
                  threads=True, out="output prefix"):
        """Declare on ``p`` the flag families it takes: --data/--rescale,
        --level/--boot, --kernel/--alpha/--scale, and --out with --seed and,
        when ``threads`` is true, --threads."""
        if data:
            p.add_argument("--data", required=True,
                           help="data file, one decimal per line")
            p.add_argument("--rescale", nargs=2, type=float,
                           metavar=("LO", "HI"),
                           help="affinely map [LO, HI] onto [0, 1]")
        if boot:
            p.add_argument("--level", type=float,
                           help="confidence level (default: the library's)")
            p.add_argument("--boot", type=int, dest="n_boot",
                           help="bootstrap resamples (default: the library's)")
        if smoother:
            p.add_argument("--kernel",
                           help="kernel name (default: the regime's)")
            p.add_argument("--alpha", type=float,
                           help="bandwidth exponent, in (0, 1/3) for the "
                                "pointwise regime and (1/6, 1/5) for l1 "
                                "(default: the regime's)")
            p.add_argument("--scale", type=float,
                           help="bandwidth scale (default: the regime's)")
        p.add_argument("--out", required=True, help=out)
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="master seed; all randomness derives from it")
        if threads:
            p.add_argument("--threads", type=int, default=_usable_cpus(),
                           help="most worker processes (default: the usable "
                                "CPUs); 1 runs in-process")

    p = sub.add_parser("gen", help="generate synthetic data from a known density")
    p.add_argument("--density", required=True, choices=_DENSITIES)
    p.add_argument("--rate", type=float,
                   help="trunc-exp's rate (default: the library's)")
    p.add_argument("--n", type=int, required=True)
    add_flags(p, threads=False, out="output data file")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="Grenander fit of a data file")
    p.add_argument("--smooth-grid", type=int, default=0,
                   help="also dump the kernel smooth on a uniform grid of "
                        "this many points, 0 (no dump) or at least 2")
    p.add_argument("--regime", default="l1", choices=["pointwise", "l1"],
                   help="smoother regime; sets the default kernel and alpha")
    add_flags(p, data=True, smoother=True, seed=False, threads=False)
    p.set_defaults(func=cmd_fit, seed=None)

    p = sub.add_parser("ci", help="smoothed-bootstrap pointwise confidence interval")
    p.add_argument("--t0", type=float, required=True)
    add_flags(p, data=True, boot=True, smoother=True)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("band", help="L1 confidence band; its radius is the "
                                    "bootstrap quantile of the L1 errors")
    p.add_argument("--m", type=int, help="supersample size (default: the "
                   "band's rule, given in the README)")
    add_flags(p, data=True, boot=True, smoother=True)
    p.set_defaults(func=cmd_band)

    p = sub.add_parser("limits", help="Monte Carlo limit constants")
    p.add_argument("--delta", type=float, default=LimitSimConfig.step,
                   help="grid step")
    p.add_argument("--window", type=float, default=LimitSimConfig.window,
                   help="argmax window half-width, the scaling check's too")
    p.add_argument("--paths", type=int, default=LimitSimConfig.n_paths)
    p.add_argument("--lag-max", type=float, default=LimitSimConfig.lag_max)
    p.add_argument("--lag-step", type=float, default=LimitSimConfig.lag_step)
    p.add_argument("--batches", type=int, default=LimitSimConfig.n_batches,
                   help="batch count for batch-means standard errors")
    p.add_argument("--check-scaling", action="store_true",
                   help="also run the doubled-noise variance-ratio check")
    p.add_argument("--scaling-paths", type=int,
                   help="the scaling check's paths (default: --paths' "
                        "default)")
    add_flags(p)
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("experiment", help="run a named simulation experiment",
                       description="A flag that the run does not read is "
                                   "refused; an unset one takes its default.")
    p.add_argument("name", choices=dict.fromkeys(
        run.split()[0] for run in _EXPERIMENTS))
    p.add_argument("--density", default="triangular", choices=_DENSITIES)
    p.add_argument("--rate", type=float,
                   help="trunc-exp's rate (default: the library's)")
    p.add_argument("--n", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--m", type=int, help="coverage --band: supersample size")
    p.add_argument("--t0", type=float)
    p.add_argument("--band", action="store_true",
                   help="coverage: build L1 bands instead of pointwise CIs")
    p.add_argument("--n-grid", type=_sizes,
                   help="rate: comma-separated sample sizes")
    p.add_argument("--grid-size", type=int,
                   help="rate: sup-norm evaluation grid")
    p.add_argument("--limits",
                   help="constants JSON from `grenboot limits` "
                        "(inconsistency and l1clt)")
    add_flags(p, boot=True, smoother=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            for x in value if isinstance(value, list) else [value]:
                if isinstance(x, float) and not math.isfinite(x):
                    raise InputError("--%s must be finite, got %r"
                                     % (name.replace("_", "-"), x))
        _count(getattr(args, "threads", 1), "--threads", 1)
        return args.func(args)
    except InputError as e:
        print("usage error: %s" % _flagged(str(e)), file=sys.stderr)
        return 2
    except Exception as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
