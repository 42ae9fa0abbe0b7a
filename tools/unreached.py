"""List the functions of src/zbrng that no command, acceptance criterion or
benchmark workload enters.

    python3 tools/unreached.py

Under one sys.setprofile hook it runs tests/test_acceptance.py and
tests/test_cli.py (through pytest.main, with the cache provider off), then
one pass of each perfbench/ workload's command list at seed 0, each command
through zbrng.cli.main.  It then prints every function and method defined
in src/zbrng whose code none of them called, one per line as
"file:line qualname".  Lambdas and comprehensions are not listed.

A failing test or command is reported and the run goes on: the hook slows
every Python call, so a test with a wall-clock bound can fail under it.
Everything runs in one temporary directory (pytest's --basetemp too) and
no bytecode is written, so the run leaves nothing inside the checkout.
"""

import contextlib
import io
import os
import sys
import tempfile
import threading
import types
from collections import Counter

# real paths, so that the imported modules' co_filename match PKG's files
HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
PKG = os.path.join(ROOT, "src", "zbrng")
TESTS = ("tests/test_acceptance.py", "tests/test_cli.py")
SEED = 0


def defined():
    """{(file, first line, name): "file:line qualname"} for every function
    and method in src/zbrng, nested ones included."""
    found = {}
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PKG, fname)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for c in stack.pop().co_consts:
                if isinstance(c, types.CodeType):
                    stack.append(c)
                    if not c.co_name.startswith("<"):
                        found[(path, c.co_firstlineno, c.co_name)] = (
                            "%s:%d %s" % (os.path.relpath(path, ROOT),
                                          c.co_firstlineno, c.co_qualname))
    return found


def run_workloads(cli, seed=SEED):
    """One pass of every workload's command list at seed, each command
    through cli.main in a fresh temporary directory per workload.  Returns
    one (workload, argv, exit code, stdout and stderr text, bytes of the -o
    file or None) per command; an exception a command raises is its exit
    code, as "raised <repr>"."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads
    cwd = os.getcwd()
    runs = []
    for name in workloads.WORKLOADS:
        spec = workloads.build(name, seed)
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            for fname, text in spec.inputs.items():
                with open(fname, "w") as fh:
                    fh.write(text)
            for argv in spec.commands:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        rc = cli.main(list(argv))
                    except SystemExit as exc:
                        rc = exc.code
                    except Exception as exc:
                        rc = "raised %r" % exc
                out = None
                if "-o" in argv:
                    path = argv[argv.index("-o") + 1]
                    if os.path.exists(path):
                        with open(path, "rb") as fh:
                            out = fh.read()
                runs.append((name, argv, rc, sink.getvalue(), out))
            os.chdir(cwd)
    return runs


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    seen = set()
    cwd = os.getcwd()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sys.setprofile(hook)
        threading.setprofile(hook)
        try:
            code = pytest.main(["-q", "-p", "no:cacheprovider", "--basetemp",
                                os.path.join(scratch, "pytest")]
                               + [os.path.join(ROOT, t) for t in TESTS])
            from zbrng import cli
            runs = run_workloads(cli)
        finally:
            threading.setprofile(None)
            sys.setprofile(None)
            os.chdir(cwd)
    if code != 0:
        print("pytest exit code %d (failures above)" % code)
    for name, count in Counter(run[0] for run in runs).items():
        print("workload %s: %d commands" % (name, count))
    for name, argv, rc, _, _ in runs:
        if rc != 0:
            print("failed command: %s: %s exit %s" % (name, " ".join(argv),
                                                      rc))

    entered = {(c.co_filename, c.co_firstlineno, c.co_name) for c in seen}
    found = defined()
    missing = [found[k] for k in sorted(found) if k not in entered]
    print("%d of %d functions in src/zbrng not entered:"
          % (len(missing), len(found)))
    for line in missing:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
