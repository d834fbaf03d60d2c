"""Output checks, each against a computation made apart from the program or
a property the method must have; none compares with a stored output.

Every ``check_*`` function returns a list of failure messages, empty when
the output passes. ``check_workload`` reads one op's files and runs the
checks of its workload.
"""

import csv
import json
import math
from fractions import Fraction

import numpy as np
from scipy.optimize import isotonic_regression

import workloads

GRENANDER_TOL = 1e-9
EXACT_TOL = 1e-12


def read_csv(path):
    """Columns of a CSV with a header row as float arrays; empty cells are nan."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) if r[key] != "" else np.nan
                           for r in rows]) for key in (rows[0] if rows else {})}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_data(path):
    with open(path, encoding="utf-8") as fh:
        return np.array([float(line) for line in fh if line.strip()])


def order_stat_quantile(values, p):
    """k-th smallest of ``values`` with k = ceil(p * B), p an exact Fraction."""
    v = np.sort(np.asarray(values, dtype=float))
    k = math.ceil(p * v.size)
    return float(v[k - 1])


def grenander_reference(x):
    """Grenander fit as a decreasing weighted isotonic regression.

    The fit is the antitonic regression of the histogram slopes
    count / (n gap) with weights gap, over the intervals between 0, the
    distinct data points and 1. Returns (left, right, value) per interval.
    """
    xs, counts = np.unique(np.asarray(x, dtype=float), return_counts=True)
    n = counts.sum()
    right = xs
    if xs[-1] < 1.0:
        right = np.append(xs, 1.0)
        counts = np.append(counts, 0)
    left = np.concatenate([[0.0], right[:-1]])
    gap = right - left
    fit = isotonic_regression(counts / (n * gap), weights=gap, increasing=False)
    return left, right, fit.x


def step_value(breakpoints, heights, t):
    """Value of a step density stored as (right edges, heights) at points t."""
    idx = np.searchsorted(np.asarray(breakpoints), t, side="left")
    return np.asarray(heights)[np.minimum(idx, len(heights) - 1)]


def check_grenander(breakpoints, heights, x, label):
    """The program's step fit equals the isotonic reference on every interval."""
    left, right, ref = grenander_reference(x)
    bp = np.asarray(breakpoints, dtype=float)
    got = step_value(bp, heights, 0.5 * (left + right))
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    failures = []
    if not np.all(np.isin(bp, right)):
        failures.append("%s: a breakpoint is neither a data point nor 1" % label)
    if err.max() > GRENANDER_TOL:
        i = int(np.argmax(err))
        failures.append("%s: height %r on (%r, %r] differs from the isotonic "
                        "fit %r" % (label, float(got[i]), left[i], right[i], ref[i]))
    return failures


def grenander_at(x, t):
    _, right, ref = grenander_reference(x)
    return float(ref[min(np.searchsorted(right, t, side="left"), ref.size - 1)])


def check_ci(summary, deviations, x, n_boot, level=workloads.CI_LEVEL,
             t0=workloads.CI_T0):
    failures = []
    n = x.size
    if summary["n"] != n or summary["n_boot"] != n_boot or deviations.size != n_boot:
        failures.append("ci: n or replicate count differs from the request")
        return failures
    ref = grenander_at(x, t0)
    if abs(summary["grenander_value"] - ref) > GRENANDER_TOL * max(1.0, ref):
        failures.append("ci: grenander_value %r, isotonic fit %r"
                        % (summary["grenander_value"], ref))
    alpha = 1 - Fraction(level)
    q_hi = order_stat_quantile(deviations, 1 - alpha / 2)
    q_lo = order_stat_quantile(deviations, alpha / 2)
    cube = float(n) ** (1.0 / 3.0)
    point = summary["grenander_value"]
    for key, want in (("lower", point - q_hi / cube), ("upper", point - q_lo / cube)):
        if abs(summary[key] - want) > EXACT_TOL * max(1.0, abs(want)):
            failures.append("ci: %s %r, from the deviations %r"
                            % (key, summary[key], want))
    # n^(1/3)(refit - smooth) at t0 tends to |4 f f'|^(1/3) Z, Z Chernoff
    f, df = 2.0 * (1.0 - t0), -2.0
    sd_theory = abs(4.0 * f * df) ** (1.0 / 3.0) * math.sqrt(workloads.CHERNOFF_VAR)
    sd = float(np.std(deviations, ddof=1))
    if not sd_theory / 1.5 <= sd <= 1.5 * sd_theory:
        failures.append("ci: deviation SD %r outside a factor 1.5 of %r"
                        % (sd, sd_theory))
    return failures


def check_band(summary, l1_values, standardized, x, n_boot,
               level=workloads.BAND_LEVEL):
    failures = []
    n = x.size
    if summary["n"] != n or summary["n_boot"] != n_boot or l1_values.size != n_boot:
        failures.append("band: n or replicate count differs from the request")
        return failures
    failures += check_grenander(summary["center_breakpoints"],
                                summary["center_heights"], x, "band center")
    cube = float(n) ** (1.0 / 3.0)
    sixth = float(n) ** (1.0 / 6.0)
    mu_hat = summary["mu_hat"]
    want = sixth * (cube * l1_values - mu_hat)
    if not np.allclose(standardized, want, rtol=EXACT_TOL, atol=EXACT_TOL):
        failures.append("band: standardized != n^(1/6)(n^(1/3) l1_value - mu_hat)")
    c_crit = order_stat_quantile(standardized, Fraction(level))
    if abs(summary["c_critical"] - c_crit) > EXACT_TOL * max(1.0, abs(c_crit)):
        failures.append("band: c_critical %r, from the replicates %r"
                        % (summary["c_critical"], c_crit))
    radius = mu_hat / cube + summary["c_critical"] / math.sqrt(n)
    if abs(summary["radius"] - radius) > EXACT_TOL * max(1.0, abs(radius)):
        failures.append("band: radius %r, from mu_hat and c_critical %r"
                        % (summary["radius"], radius))
    if summary["empty"] or not summary["radius"] > 0.0:
        failures.append("band: the band is empty")
    if summary["m"] < 10 * n:
        failures.append("band: supersample m=%r below 10n" % summary["m"])
    return failures


def l1_quadrature(x, smooth_pdf, h, panels=20000, order=4):
    """Integral of |isotonic Grenander fit - smooth| by composite
    Gauss-Legendre on fixed panels split at the step edges and at h, 1-h."""
    _, right, ref = grenander_reference(x)
    edges = np.unique(np.concatenate([np.linspace(0.0, 1.0, panels + 1),
                                      right, [h, 1.0 - h]]))
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    smooth = np.asarray(smooth_pdf(t), dtype=float).reshape(mid.size, order)
    step = step_value(right, ref, mid)[:, None]
    return float(np.sum(half[:, None] * weights[None, :] * np.abs(step - smooth)))


def check_band_l1(program_l1, quadrature_l1):
    if abs(program_l1 - quadrature_l1) > 1e-6:
        return ["band: l1_distance %r, dense quadrature %r"
                % (program_l1, quadrature_l1)]
    return []


def check_limits(summary):
    failures = []
    var, var_se = summary["chernoff_var"], summary["chernoff_var_se"]
    if not abs(var - workloads.CHERNOFF_VAR) <= 4.0 * var_se:
        failures.append("limits: chernoff_var %r not within 4 SE (%r) of %r"
                        % (var, var_se, workloads.CHERNOFF_VAR))
    scaling = summary["scaling"]
    target = 2.0 ** (2.0 / 3.0)
    if not abs(scaling["ratio"] - target) <= 4.0 * scaling["ratio_se"]:
        failures.append("limits: scaling ratio %r not within 4 SE (%r) of 2^(2/3)"
                        % (scaling["ratio"], scaling["ratio_se"]))
    if not summary["boundary_hit_rate"] <= 1e-3:
        failures.append("limits: boundary_hit_rate %r above 1e-3"
                        % summary["boundary_hit_rate"])
    if not abs(summary["cov_at_lag_max"]) <= 4.0 * summary["cov_at_lag_max_se"]:
        failures.append("limits: |cov_at_lag_max| %r above 4 SE (%r)"
                        % (summary["cov_at_lag_max"], summary["cov_at_lag_max_se"]))
    if not summary["l1_variance"] > 0.0:
        failures.append("limits: l1_variance %r not positive" % summary["l1_variance"])
    return failures


def biweight_sum(x, t, h):
    """(1/(n h)) sum_i K((t - x_i)/h) with K(v) = (15/16)(1 - v^2)^2 on [-1, 1]."""
    xs = np.sort(x)
    out = np.empty(t.size)
    for j, tj in enumerate(t):
        near = xs[np.searchsorted(xs, tj - h):np.searchsorted(xs, tj + h, side="right")]
        v = (tj - near) / h
        out[j] = np.sum(0.9375 * (1.0 - v * v) ** 2)
    return out / (x.size * h)


def check_fit(summary, steps, smooth, x, grid):
    failures = []
    n = x.size
    if summary["n"] != n or summary["steps"] != steps["height"].size:
        failures.append("fit: n or step count differs from the CSV")
    if abs(summary["mass"] - 1.0) > 1e-9:
        failures.append("fit: mass %r" % summary["mass"])
    failures += check_grenander(steps["breakpoint"], steps["height"], x, "fit")
    t, value = smooth["t"], smooth["value"]
    if t.size != grid or not np.allclose(t, np.linspace(0.0, 1.0, grid), rtol=0, atol=1e-15):
        failures.append("fit: smooth grid is not linspace(0, 1, %d)" % grid)
        return failures
    if np.any(value < 0.0):
        failures.append("fit: negative smooth value")
    mass = float(np.trapezoid(value, t))
    if abs(mass - 1.0) > 2e-3:
        failures.append("fit: smooth grid integrates to %r" % mass)
    # the fit command smooths with its defaults: biweight, h = n^(-0.18)
    h = min(float(n) ** -0.18, 0.5)
    inner = (t > h) & (t < 1.0 - h)
    ratio = biweight_sum(x, t[inner], h) / value[inner]
    spread = (ratio.max() - ratio.min()) / np.median(ratio)
    if not spread <= 1e-9:
        failures.append("fit: kernel sum / value varies by %r over the interior"
                        % spread)
    return failures


def _ci_outputs(size, seed, workdir, j):
    prefix = workloads.out_prefix(workdir, j)
    x = read_data(workloads.data_path(workdir, j))
    failures = check_ci(read_json(prefix + ".json"),
                        read_csv(prefix + ".csv")["deviation"], x,
                        workloads.params("ci", size)["boot"])
    if j == 0:
        failures += _same_as_one_thread(size, seed, workdir, j)
    return failures


def _same_as_one_thread(size, seed, workdir, j):
    """The ci outputs equal, byte for byte, those of a --threads 1 run."""
    import grenboot.cli

    rc = grenboot.cli.main(workloads.command("ci", size, seed, workdir, j,
                                             tag="one_thread", threads=1))
    if rc != 0:
        return ["ci: --threads 1 run exited with %d" % rc]
    failures = []
    for ext in (".json", ".csv"):
        with open(workloads.out_prefix(workdir, j) + ext, "rb") as a, \
                open(workloads.out_prefix(workdir, j, "one_thread") + ext, "rb") as b:
            if a.read() != b.read():
                failures.append("ci: %s differs from the --threads 1 run" % ext)
    return failures


def _band_outputs(size, seed, workdir, j):
    from grenboot import Sample, fit_smoothed, grenander_fit, l1_distance

    prefix = workloads.out_prefix(workdir, j)
    x = read_data(workloads.data_path(workdir, j))
    rows = read_csv(prefix + ".csv")
    failures = check_band(read_json(prefix + ".json"), rows["l1_value"],
                          rows["standardized"], x,
                          workloads.params("band", size)["boot"])
    # the band command's kernel and bandwidth rule are the library defaults
    sample = Sample(x)
    smooth = fit_smoothed(sample)
    program = l1_distance(grenander_fit(sample), smooth)
    return failures + check_band_l1(program, l1_quadrature(x, smooth.pdf, smooth.h))


def _limits_outputs(size, seed, workdir, j):
    return check_limits(read_json(workloads.out_prefix(workdir, j) + ".json"))


def _fit_outputs(size, seed, workdir, j):
    prefix = workloads.out_prefix(workdir, j)
    return check_fit(read_json(prefix + ".json"), read_csv(prefix + ".csv"),
                     read_csv(prefix + ".smooth.csv"),
                     read_data(workloads.data_path(workdir, j)),
                     workloads.params("fit", size)["grid"])


_OUTPUT_CHECKS = {"ci": _ci_outputs, "band": _band_outputs,
                  "limits": _limits_outputs, "fit": _fit_outputs}


def check_workload(workload, size, seed, workdir):
    """Failure lists, one per input, for the outputs in ``workdir``; a
    missing or malformed file is a failure like any other."""
    out = []
    for j in range(workloads.params(workload, size)["inputs"]):
        try:
            out.append(_OUTPUT_CHECKS[workload](size, seed, workdir, j))
        except (OSError, KeyError, ValueError, IndexError) as e:
            out.append(["%s input %d: reading the outputs raised %s: %s"
                        % (workload, j, type(e).__name__, e)])
    return out
