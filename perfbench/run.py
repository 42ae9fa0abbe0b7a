"""Benchmark of the zbrng command line on one named workload.

    python3 perfbench/run.py --workload {hadamard,characters,lift}
        --seed N --seconds S --trace {0,1}

Set-up is timed in fresh interpreters that each import zbrng and write the
workload's inputs; setup_s is the median of eight, four taken before and four
after the measurement.  One worker process runs whole passes over the
workload's commands through zbrng.cli.main, one at a time, for S seconds;
pass_s sums each command's median time over the passes and worst_cmd_s is
the largest of those medians.  This process then checks every output against
the oracles in oracles.py, so the checks' memory stays out of peak_rss_mb.  The
last line of stdout is one JSON object: end-to-end metrics with --trace 0,
per-layer metrics (from wrapped calls, see tracer.py) with --trace 1.
Everything is written under .perfbench_work/ at the root of the checkout.
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
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SAMPLES = 4
# the worker must end in time for the checks and the late set-up samples
TIME_LIMIT_S = 150
# one BLAS thread: commands run one at a time in a closed loop
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


class BenchError(Exception):
    pass


def _worker(args, workdir, extra, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir] + extra
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=ENV, cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker timed out after %.0f s" % timeout) from exc
    dt = time.perf_counter() - t0
    if proc.returncode:
        raise BenchError("worker failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    return dt


def _median_times(passes, n):
    """Each command's median time over the passes, so that one stalled
    sample cannot move it."""
    return [statistics.median(p["times"][c] for p in passes)
            for c in range(n)]


def measure(args):
    if not os.path.isdir(os.path.join(ROOT, "src", "zbrng")):
        raise BenchError("no zbrng sources under %s" % ROOT)
    os.makedirs(WORK, exist_ok=True)
    start = time.perf_counter()
    setup_dir = os.path.join(WORK, "setup")
    setup = [_worker(args, setup_dir, ["--setup-only"], 60)
             for _ in range(SETUP_SAMPLES)]

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_file = os.path.join(WORK, "worker-%s.json" % tag)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", result_file]
    if args.trace:
        extra += ["--trace-file", os.path.join(WORK, "trace-%s.json" % tag)]
    workdir = os.path.join(WORK, "run")
    _worker(args, workdir, extra,
            TIME_LIMIT_S - (time.perf_counter() - start))
    # half the set-up samples are taken after the measured passes, so that
    # setup_s does not rest on the host's speed at one moment
    setup += [_worker(args, setup_dir, ["--setup-only"], 60)
              for _ in range(SETUP_SAMPLES)]
    with open(result_file) as fh:
        res = json.load(fh)

    spec = workloads.build(args.workload, args.seed)
    n = len(spec.commands)
    passes = res["passes"]
    attempted = n * len(passes)
    failed_cmds = {c for p in passes for c in range(n) if p["codes"][c]}
    failed = sum(rc != 0 for p in passes for rc in p["codes"])
    problems = []
    for p in passes[1:]:
        for c in range(n):
            if p["digests"][c] != passes[0]["digests"][c] and \
                    c not in failed_cmds:
                problems.append("%s: output differs between passes%s" % (
                    res["commands"][c],
                    " (traced and untraced)" if p["traced"] else ""))

    def read(name):
        with open(os.path.join(workdir, name)) as fh:
            return fh.read()
    outputs = [read("c%02d.out" % c) for c in range(n)]
    problems += workloads.run_checks(spec, outputs, read, failed_cmds)
    # a command that exits non-zero has no output to check, so its exit is
    # itself a failed check: no command of any workload may fail
    problems += ["%s: exit %s" % (res["commands"][c],
                                  [p["codes"][c] for p in passes])
                 for c in sorted(failed_cmds)]
    for msg in problems:
        print("CHECK FAILED %s" % msg, file=sys.stderr)

    plain = [p for p in passes if not p["traced"]]
    med = _median_times(plain, n)
    print("host_ref_s %.4f (fixed pure-Python loop; not a metric)"
          % res["host_ref_s"])
    print("passes %d (%d traced), commands per pass %d"
          % (len(passes), len(passes) - len(plain), n))
    for c in range(n):
        print("  %8.4f s  %s" % (med[c], res["commands"][c]))

    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["trace_overhead_s"] = (sum(_median_times(traced, n))
                                      - sum(med))
        metrics = {k: {"value": v,
                       "unit": "count" if k.endswith(("calls", "sets"))
                       else "s"}
                   for k, v in layers.items()}
    else:
        metrics = {
            "pass_s": {"value": sum(med), "unit": "s"},
            "worst_cmd_s": {"value": max(med), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    out = {"correct": not problems, "attempted": attempted,
           "failed": failed, "metrics": metrics}
    with open(os.path.join(WORK, "result-%s.json" % tag), "w") as fh:
        json.dump(out, fh, indent=1)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = measure(args)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
