"""Fast self-test of the benchmark, about a minute on two cores.

    python3 perfbench/selftest.py

Runs every workload at the tiny size, untraced and traced, and checks that
the runs pass, report exactly the metrics BENCHMARK.json names, and that two
traced runs with the same seed give the same counts (on ci, apart from the
one that the envelope race moves). Then it corrupts kept
outputs and checks that each check rejects them, and runs the benchmark from
a directory without the program's sources, where it must fail.
Exits 0 when all of that holds.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 1
# rejection_sample's envelope cache is a check-then-set on the smoother, so
# with two threads both may build the envelope, and its grid then adds to
# the smoother's evaluated points
ENVELOPE_RACE = {"smoothing.eval.points"}
problems = []


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        problems.append(what)


def bench(workload, trace, keep=False, cwd=ROOT, run=RUN):
    argv = [sys.executable, run, "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv + (["--keep"] if keep else []), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    workdir = re.search(r"work directory: (\S+)", proc.stderr)
    return proc, workdir.group(1) if workdir else None


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(line, skip=()):
    return {k: v["value"] for k, v in line["metrics"].items()
            if v["unit"] == "count" and k not in skip}


def corrupted(name, check, clean, dirty):
    """``check`` passes on the clean output and fails on the corrupted one."""
    expect(check(clean) == [] and check(dirty) != [], "%s is rejected" % name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: sorted(m["name"] for m in spec["end_to_end"]),
             1: sorted(m["name"] for m in spec["per_layer"])}
    kept = {}
    try:
        for w in workloads.WORKLOADS:
            for trace in (0, 1):
                proc, workdir = bench(w, trace, keep=trace == 0)
                if trace == 0:
                    kept[w] = workdir
                line = last_json(proc) if proc.returncode == 0 else None
                expect(line is not None and line["correct"] and line["failed"] == 0
                       and line["attempted"] >= 1,
                       "%s trace %d runs and passes its checks" % (w, trace))
                expect(line is not None and sorted(line["metrics"]) == names[trace],
                       "%s trace %d reports the metrics BENCHMARK.json names"
                       % (w, trace))
                if trace == 1 and w in ("ci", "band"):
                    skip = ENVELOPE_RACE if w == "ci" else ()
                    again = last_json(bench(w, 1)[0])
                    expect(line is not None and counts(line, skip) == counts(again, skip),
                           "two traced %s runs give identical counts%s"
                           % (w, " apart from %s" % ", ".join(sorted(skip)) if skip else ""))
        corruptions(kept)
        no_sources()
    finally:
        for workdir in kept.values():
            if workdir:
                shutil.rmtree(workdir, ignore_errors=True)
    print("self-test %s" % ("passed" if not problems else
                            "FAILED: %d problem(s)" % len(problems)))
    return 0 if not problems else 1


def corruptions(kept):
    ci, band, lim, fit = (kept[w] for w in workloads.WORKLOADS)

    x = checks.read_data(workloads.data_path(fit, 0))
    steps = checks.read_csv(workloads.out_prefix(fit, 0) + ".csv")
    moved = steps["height"].copy()
    moved[moved.size // 2] += 1e-6
    corrupted("a Grenander height moved by 1e-6",
              lambda h: checks.check_grenander(steps["breakpoint"], h, x, "fit"),
              steps["height"], moved)

    prefix = workloads.out_prefix(ci, 0)
    summary = checks.read_json(prefix + ".json")
    dev = checks.read_csv(prefix + ".csv")["deviation"]
    xci = checks.read_data(workloads.data_path(ci, 0))
    boot = workloads.params("ci", "tiny")["boot"]
    # lower uses the order statistic k = ceil(0.95 B); take the one below it
    k = math.ceil(Fraction("0.95") * boot)
    off = dict(summary)
    off["lower"] = (summary["grenander_value"]
                    - np.sort(dev)[k - 2] / float(xci.size) ** (1.0 / 3.0))
    corrupted("a ci quantile index off by one",
              lambda s: checks.check_ci(s, dev, xci, boot), summary, off)

    prefix = workloads.out_prefix(band, 0)
    summary = checks.read_json(prefix + ".json")
    rows = checks.read_csv(prefix + ".csv")
    xb = checks.read_data(workloads.data_path(band, 0))
    boot = workloads.params("band", "tiny")["boot"]
    # c_critical is the order statistic k = ceil(0.95 B); take the one above it
    off = dict(summary)
    k = math.ceil(Fraction(workloads.BAND_LEVEL) * boot)
    off["c_critical"] = float(np.sort(rows["standardized"])[k])
    corrupted("a band quantile index off by one",
              lambda s: checks.check_band(s, rows["l1_value"], rows["standardized"],
                                          xb, boot), summary, off)

    summary = checks.read_json(workloads.out_prefix(lim, 0) + ".json")
    scaled = dict(summary, chernoff_var=1.2 * summary["chernoff_var"])
    corrupted("chernoff_var scaled by 1.2", checks.check_limits, summary, scaled)

    prefix = workloads.out_prefix(fit, 0)
    fit_json = checks.read_json(prefix + ".json")
    smooth = checks.read_csv(prefix + ".smooth.csv")
    bad = dict(smooth, value=smooth["value"].copy())
    bad["value"][smooth["t"].size // 2] *= 1.001
    grid = workloads.params("fit", "tiny")["grid"]
    corrupted("a smooth-grid value scaled at one point",
              lambda s: checks.check_fit(fit_json, steps, s, x, grid), smooth, bad)


def no_sources():
    """Without src/, the benchmark exits non-zero and prints no result."""
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc, _ = bench("ci", 0, cwd=bare, run=os.path.join(bare, "perfbench", "run.py"))
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               "without the program's sources the run fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
