"""Child process of run.py: set up one workload, then time its command.

    python3 perfbench/worker.py setup SPEC_JSON
    python3 perfbench/worker.py run SPEC_JSON

SPEC_JSON holds workload, size, seed, workdir and, for ``run``, seconds and
trace. Both modes first import grenboot from the checkout's ``src`` and
write the workload's inputs, timing the two together as set-up. ``run`` then
calls ``grenboot.cli.main`` in rounds, one call per input, until ``seconds``
have passed (at least one round). With trace on, the rounds of the first
half of the time run untraced and the rest under the tracer. The result is
one JSON line on stdout.
"""

import gc
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(spec):
    """Import grenboot and write the inputs; returns (cli module, seconds)."""
    t0 = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import grenboot.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError("grenboot imported from %s, not from %s"
                           % (cli.__file__, src))
    import workloads
    workloads.write_inputs(spec["workload"], spec["size"], spec["seed"],
                           spec["workdir"])
    return cli, time.perf_counter() - t0


def output_digest(prefix):
    """sha256 over the op's result files; the manifest holds wall-clock time."""
    folder, stem = os.path.split(prefix)
    sha = hashlib.sha256()
    for name in sorted(os.listdir(folder)):
        if name.startswith(stem + ".") and not name.endswith(".manifest.json"):
            sha.update(name.encode() + b"\0")
            with open(os.path.join(folder, name), "rb") as fh:
                sha.update(fh.read())
    return sha.hexdigest()


def _delta(after, before):
    out = {}
    for key in ("calls", "self_s", "counts"):
        out[key] = {k: v - before[key].get(k, 0) for k, v in after[key].items()}
    for key in ("map_wall_s", "map_cpu_s"):
        out[key] = after[key] - before[key]
    return out


def run(spec, cli, setup_s):
    import workloads
    from tracer import Tracer

    w, size, seed, workdir = (spec["workload"], spec["size"], spec["seed"],
                              spec["workdir"])
    inputs = range(workloads.params(w, size)["inputs"])
    argvs = [workloads.command(w, size, seed, workdir, j) for j in inputs]
    seconds = float(spec["seconds"])
    result = {"setup_s": setup_s, "op_s": [], "traced_op_s": [], "ops": [],
              "per_op_trace": [], "absent": []}

    def one_op(j, tracer):
        gc.collect()
        if tracer is None:
            t = time.perf_counter()
            rc = cli.main(argvs[j])
            result["op_s"].append(time.perf_counter() - t)
        else:
            before = tracer.snapshot()
            t = time.perf_counter()
            rc = tracer.span("op", lambda: cli.main(argvs[j]))
            result["traced_op_s"].append(time.perf_counter() - t)
            result["per_op_trace"].append(
                dict(_delta(tracer.snapshot(), before), input=j))
        digest = output_digest(workloads.out_prefix(workdir, j)) if rc == 0 else None
        result["ops"].append({"input": j, "rc": rc, "digest": digest})

    def rounds(until, tracer=None):
        # whole rounds only, at least one
        while True:
            for j in inputs:
                one_op(j, tracer)
            if time.perf_counter() - start >= until:
                return

    start = time.perf_counter()
    rounds(seconds / 2.0 if spec["trace"] else seconds)
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            rounds(seconds, tracer)
        finally:
            tracer.uninstall()
        result["absent"] = tracer.absent
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv):
    mode, spec = argv[0], json.loads(argv[1])
    os.environ.pop("GRENBOOT_THREADS", None)
    cli, setup_s = setup(spec)
    out = {"setup_s": setup_s} if mode == "setup" else run(spec, cli, setup_s)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
