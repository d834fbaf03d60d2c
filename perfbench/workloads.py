"""Workload definitions: the inputs each workload draws from its seed and
the grenboot command it times.

Every data file is a sample of the triangular density f(t) = 2(1 - t), whose
CDF t(2 - t) inverts in closed form, so the benchmark draws it itself with
numpy and hands the program only the file. A workload has ``inputs`` inputs
(a data file and a program seed each), and a round runs its command once on
each. ``--seed`` sets the program seeds, and the data of fit.

The data of ci and band come from a fixed panel instead. Their cost jumps
with the data: a bootstrap draw whose first batch of 2n rejection proposals
accepts fewer than n points needs a second batch, which evaluates the
smoother against every data point (see README.md). Over seeds, the
acceptance rate of a fresh sample straddles that threshold, so with data
drawn per seed the spread between runs would be that of the draw rather
than of the program.

``full`` is the size the benchmark measures; ``tiny`` is what
``selftest.py`` runs in seconds.
"""

import os

WORKLOADS = ("ci", "band", "limits", "fit")

SIZES = {
    "full": {
        "ci": {"inputs": 4, "n": 1000, "boot": 200, "panel": True},
        "band": {"inputs": 3, "n": 1000, "boot": 100, "panel": True},
        "limits": {"inputs": 1, "paths": 4000, "scaling_paths": 2000,
                   "extra": []},
        "fit": {"inputs": 1, "n": 100000, "grid": 201},
    },
    "tiny": {
        "ci": {"inputs": 2, "n": 200, "boot": 40, "panel": True},
        "band": {"inputs": 2, "n": 200, "boot": 50, "panel": True},
        "limits": {"inputs": 1, "paths": 2000, "scaling_paths": 500,
                   "extra": ["--lag-max", "1.0"]},
        "fit": {"inputs": 1, "n": 2000, "grid": 51},
    },
}

# confidence levels as decimal text, so checks can use exact fractions;
# the band runs at the program's default level
CI_LEVEL = "0.90"
BAND_LEVEL = "0.95"
CI_T0 = 0.5
CI_THREADS = 2

# variance of Chernoff's distribution, from Groeneboom & Wellner (2001),
# Computing Chernoff's distribution
CHERNOFF_VAR = 0.2636


def params(workload, size):
    return SIZES[size][workload]


def data_path(workdir, j):
    return os.path.join(workdir, "data%d.txt" % j)


def out_prefix(workdir, j, tag="out"):
    return os.path.join(workdir, "%s%d" % (tag, j))


def draw_data(workload, size, seed, j):
    """Input j's data: n draws of f(t) = 2(1 - t) by inverse CDF."""
    import numpy as np

    p = params(workload, size)
    stream = [20081, j] if p.get("panel") else [20081, int(seed), j]
    u = np.random.default_rng(stream).uniform(size=p["n"])
    return 1.0 - np.sqrt(1.0 - u)


def write_inputs(workload, size, seed, workdir):
    """Write the workload's data files (limits reads none)."""
    p = params(workload, size)
    if "n" not in p:
        return
    for j in range(p["inputs"]):
        with open(data_path(workdir, j), "w", encoding="utf-8") as fh:
            fh.write("".join(repr(float(v)) + "\n"
                             for v in draw_data(workload, size, seed, j)))


def program_seed(seed, j):
    """--seed passed to the program for input j, apart from the data streams."""
    return 1000 * int(seed) + j


def command(workload, size, seed, workdir, j, tag="out", threads=CI_THREADS):
    """argv for ``grenboot.cli.main`` on input j; ``threads`` applies to ci."""
    p = params(workload, size)
    data = data_path(workdir, j)
    out = out_prefix(workdir, j, tag)
    tail = ["--seed", str(program_seed(seed, j)), "--out", out]
    if workload == "ci":
        return ["ci", "--data", data, "--t0", repr(CI_T0), "--level", CI_LEVEL,
                "--boot", str(p["boot"]), "--kernel", "epanechnikov",
                "--threads", str(threads)] + tail
    if workload == "band":
        return ["band", "--data", data, "--boot", str(p["boot"]),
                "--kernel", "biweight", "--threads", "1"] + tail
    if workload == "limits":
        return ["limits", "--paths", str(p["paths"]), "--check-scaling",
                "--scaling-paths", str(p["scaling_paths"])] + p["extra"] + tail
    if workload == "fit":
        return ["fit", "--data", data, "--smooth-grid", str(p["grid"]),
                "--out", out]
    raise ValueError("unknown workload %r" % workload)
