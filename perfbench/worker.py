"""The measured process: imports zbrng, writes one workload's inputs, then
runs whole passes over its command list through zbrng.cli.main, one command
at a time, until the time budget is spent.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR --result FILE [--setup-only]

With --trace 1, untraced and traced passes alternate, so that the tracing
overhead and the byte-identity of the outputs can be measured in one run.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a per-command median needs three samples to ignore one stalled pass; with
# --trace 1 traced and untraced passes alternate, so four give two of each
MIN_PASSES_PLAIN, MIN_PASSES_TRACED = 3, 4


def host_reference():
    """Median of three timings of a fixed pure-Python loop; tells a slow
    host from a slow program."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def _digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def run_pass(cli, commands, tracer):
    times, codes, digests = [], [], []
    for idx, argv in enumerate(commands):
        out_path, err_path = "c%02d.out" % idx, "c%02d.err" % idx
        with open(out_path, "w") as out, open(err_path, "w") as err, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            if tracer:
                tracer.request = idx
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
            times.append(time.perf_counter() - t0)
        codes.append(rc)
        files = [out_path]
        if "-o" in argv and os.path.exists(argv[argv.index("-o") + 1]):
            files.append(argv[argv.index("-o") + 1])
        digests.append(_digest(files))
    return {"times": times, "codes": codes, "digests": digests}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result")
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import zbrng
    from zbrng import cli

    spec = workloads.build(args.workload, args.seed)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    for name, text in spec.inputs.items():
        with open(name, "w") as fh:
            fh.write(text)
    if args.setup_only:
        return 0

    host_ref = host_reference()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(zbrng)

    passes = []
    min_passes = MIN_PASSES_TRACED if tracer else MIN_PASSES_PLAIN
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rec = run_pass(cli, spec.commands, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        rec["wall_s"] = time.perf_counter() - t0
        if traced:
            rec["layers"] = tracer.snapshot()
        passes.append(rec)
        elapsed = time.perf_counter() - start
        longest = max(p["wall_s"] for p in passes)
        if len(passes) >= min_passes and elapsed + longest > args.seconds:
            break

    if tracer and args.trace_file:
        tracer.write(args.trace_file)
    result = {
        "commands": [" ".join(c) for c in spec.commands],
        "passes": passes,
        "host_ref_s": host_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
