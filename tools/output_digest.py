"""Digest the outputs of one pass of every benchmark workload.

    python3 tools/output_digest.py [--seed S]

Runs each perfbench/ workload's command list at seed S (default 0) through
zbrng.cli.main, with tools/unreached.py's runner, in a temporary directory.
Prints one line per command: the workload, the exit code, the argv, the
sha256 of its stdout and stderr, and the sha256 of its -o file ("-" without
one); then one sha256 over those lines.  Two checkouts whose totals agree
wrote the same bytes on every command.
"""

import argparse
import hashlib
import os
import sys

from unreached import ROOT, run_workloads


def sha(data):
    return hashlib.sha256(data).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from zbrng import cli

    lines = ["%s %s %s %s %s" % (name, rc, " ".join(argv),
                                 sha(text.encode()),
                                 "-" if out is None else sha(out))
             for name, argv, rc, text, out in run_workloads(cli, args.seed)]
    listing = "".join(line + "\n" for line in lines)
    sys.stdout.write(listing)
    print("total", sha(listing.encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
