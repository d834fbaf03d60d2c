"""Regenerate the reference figures in README.md.

    python3 perfbench/reference.py

Runs every workload once untraced and once traced, with seed 1, for the
run length in BENCHMARK.json and prints, as Markdown, the machine, the
end-to-end metrics, the tracing overhead and each span's share of the
traced op time.
Takes about four minutes on two cores.
"""

import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".bench_out", "results", "%s-seed%d-trace%d.json"
                           % (workload, seed, trace))) as fh:
        return line, json.load(fh)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    print("Machine: %d CPUs (`nproc`), Python %s, numpy %s, scipy %s, %s; "
          "seed %d, %d s per run.\n" % (os.cpu_count(), platform.python_version(),
                                        numpy.__version__, scipy.__version__,
                                        platform.machine(), SEED, seconds))
    print("| workload | op_s | setup_s | peak_rss_mb | ops | trace.overhead_s |")
    print("|---|---|---|---|---|---|")
    share_rows = []
    for w in workloads.WORKLOADS:
        line, _ = run(w, SEED, seconds, 0)
        traced, summary = run(w, SEED, seconds, 1)
        m, t = line["metrics"], traced["metrics"]
        print("| %s | %.2f | %.2f | %.0f | %d | %+.3f |" % (
            w, m["op_s"]["value"], m["setup_s"]["value"], m["peak_rss_mb"]["value"],
            line["attempted"], t["trace.overhead_s"]["value"]))
        top = sorted(summary["shares"].items(), key=lambda kv: -kv[1])
        share_rows.append("| %s | %s |" % (w, ", ".join(
            "%s %.0f%%" % (k, 100 * v) for k, v in top if v >= 0.005)))
    print("\nSelf time of each span as a share of the traced op wall time "
          "(spans under 0.5% left out; `op` is time outside every other span):\n")
    print("| workload | shares |")
    print("|---|---|")
    print("\n".join(share_rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
