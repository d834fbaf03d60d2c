"""Benchmark of grenboot's resample-refit-evaluate loop.

    python3 perfbench/run.py --workload {ci,band,limits,fit} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src``. The workload runs in a child process (``worker.py``),
which imports grenboot, writes the inputs drawn from ``--seed`` and calls
``grenboot.cli.main`` in rounds, once per input of the workload, until
``--seconds`` have passed. Set-up is timed in that child and in ``SETUP_REPEATS - 1`` more that
only set up. This process then checks the outputs (``checks.py``) and prints
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and reports the per-layer metrics. Work files
go to ``.bench_out/work`` and are removed at the end; a summary of every run
is kept in ``.bench_out/results``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units():
    """The per-layer metric names and units that BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def child(mode, spec):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "GRENBOOT_THREADS"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode, json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d:\n%s"
                           % (mode, proc.returncode, proc.stderr[-4000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_metrics(result):
    """Per-op means of the traced ops' spans and counters."""
    ops = result["per_op_trace"]
    k = len(ops)

    def mean(key, name):
        return sum(op[key].get(name, 0) for op in ops) / k

    units = per_layer_units()
    values = {}
    for name in units:
        prefix, _, suffix = name.rpartition(".")
        if suffix == "calls":
            values[name] = mean("calls", prefix)
        elif suffix == "s":
            values[name] = mean("self_s", prefix)
        else:
            values[name] = mean("counts", name)
    proposals = mean("counts", "resampling.proposals")
    values["resampling.acceptance"] = (
        mean("counts", "resampling.drawn") / proposals if proposals else 0.0)
    wall = sum(op["map_wall_s"] for op in ops)
    values["parallel.cpu_per_wall"] = (
        sum(op["map_cpu_s"] for op in ops) / wall if wall else 0.0)
    values["trace.overhead_s"] = (statistics.median(result["traced_op_s"])
                                  - statistics.median(result["op_s"]))
    # counts are whole numbers per op; report them as such
    for name, unit in units.items():
        if unit == "count" and float(values[name]).is_integer():
            values[name] = int(values[name])
    return values


def counts_repeat(result):
    """Whether every traced op on an input made the same calls and counts
    as the first traced op on that input."""
    first = {}
    for op in result["per_op_trace"]:
        seen = first.setdefault(op["input"], op)
        if (op["calls"], op["counts"]) != (seen["calls"], seen["counts"]):
            return False
    return True


def shares(result):
    """Each span's self seconds as a share of the traced op wall time."""
    ops = result["per_op_trace"]
    wall = sum(result["traced_op_s"])
    names = sorted({n for op in ops for n in op["self_s"]})
    return {n: sum(op["self_s"].get(n, 0.0) for op in ops) / wall for n in names}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                   help="input size; tiny is for the self-test")
    p.add_argument("--keep", action="store_true",
                   help="keep the work directory and print its path on stderr")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grenboot", "cli.py")):
        print("no grenboot sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(OUT, "work", "%s-seed%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        spec = {"workload": args.workload, "size": args.size, "seed": args.seed,
                "workdir": workdir, "seconds": args.seconds, "trace": args.trace}
        setup_s = [child("setup", spec)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        result = child("run", spec)
        setup_s.append(result["setup_s"])

        import checks
        t = time.perf_counter()
        failures = checks.check_workload(args.workload, args.size, args.seed, workdir)
        check_s = time.perf_counter() - t
        # the checks read each input's last outputs; an op on that input
        # failed if they failed, or if its exit code or output digest differ
        last = {op["input"]: op["digest"] for op in result["ops"]}
        failed = sum(1 for op in result["ops"]
                     if op["rc"] != 0 or op["digest"] != last[op["input"]]
                     or failures[op["input"]])
        attempted = len(result["ops"])
        if args.trace:
            units = per_layer_units()
            values = layer_metrics(result)
        else:
            units = END_TO_END
            values = {"op_s": statistics.median(result["op_s"]),
                      "setup_s": statistics.median(setup_s),
                      "peak_rss_mb": result["peak_rss_mb"]}
        summary = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "argv": workloads.command(args.workload, args.size, args.seed, "WORKDIR", 0),
            "failures": failures, "setup_s": setup_s, "check_s": check_s,
            "op_s": result["op_s"], "traced_op_s": result["traced_op_s"],
            "ops": result["ops"], "peak_rss_mb": result["peak_rss_mb"],
            "metrics": values,
        }
        if args.trace:
            summary.update(absent=result["absent"], shares=shares(result),
                           counts_repeat=counts_repeat(result))
        os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
        with open(os.path.join(OUT, "results", "%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace)), "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
        for msg in (m for per_input in failures for m in per_input):
            print("check failed: " + msg, file=sys.stderr)
        if args.trace and result["absent"]:
            print("absent trace targets: " + ", ".join(result["absent"]),
                  file=sys.stderr)
    finally:
        if args.keep:
            print("work directory: " + workdir, file=sys.stderr)
        else:
            shutil.rmtree(workdir, ignore_errors=True)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
