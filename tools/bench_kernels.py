"""In-process timings of single kernels, before and after a change.

    python3 tools/bench_kernels.py --before OTHER_CHECKOUT --out BENCH_<n>.json
                                   [ROW ...]

Without ROW arguments every row below runs; with them, only the rows named
(in-process or one-shot, by the names below), in the order of this list.
The checkout this file lies in is the "after" side.  Each checkout's
`src/zbrng` is imported in its own long-lived interpreter with one BLAS
thread.  Row by row, both interpreters set the row up and call it once
untimed; then they time its repeats in turn, the two sides alternating
which goes first from one repeat to the next, so that drift of the host
lands on both sides alike.  A row's value is the median over its repeats of
the mean time per call.  The rows:

    f2_algebra_check k=16, k=24   associativity over GF(2) (`had f2`)
    ring_from_text, ring_lines    the Sylvester 64 ring (n = 64); ring_lines
                                  consumed piece by piece, as `had ring`
                                  writes it
    ring_lines kp40               the same for the Verlinde ring of the
                                  level-40 sl2 table (n = 41), as
                                  `verlinde` writes it
    smatrix_from_text kp40,       reading and writing the text of that
    smatrix_to_text kp40          numeric table
    hadamard_from_text sylvester64
                                  reading the +-1 text of the Sylvester 64
                                  matrix
    _row_order z15                the row order of the numeric s-matrix of
                                  the Z/3 x Z/5 ring, as `smatrix` sorts it
    parser first call             build_parser + parse_args, as paid once
                                  by each `zbrng` process
    parser repeat call            build_parser + parse_args again in the
                                  same process, as paid by each further
                                  cli.main call of a long-lived caller
    assoc_witness z64 x 2^24      the Z/64 group law scaled by 2^24:
                                  max|N|^2 n = 2^54, past the float64 pass
    assoc_witness sylvester128    the Sylvester 128 ring (commutative: the
                                  scan takes k > i only)
    assoc_witness dihedral128     the group law of the dihedral group of
                                  order 128 (not commutative: every k)
    smatrix sylvester128          character_signs of the Sylvester 128 ring
                                  (the +-k splitting and its certificate)
    profile sylvester64,          the profile invariant of the Sylvester 64
    profile sylvester128          and 128 matrices (`had profile`)
    split_pm sylvester256         split_pm of the Sylvester 256 ring in
                                  natural order at the first primes(1, 256)
    reconstruct_mod3 sylvester64  reconstruct_mod3 of a seeded scrambled
                                  Sylvester 64 ring (negative constants), as
                                  `had reconstruct3` runs it
    identity sylvester128         identity_coefficients on a fresh
                                  FusionRing over the Sylvester 128 tensor
    verify_axioms sylvester128    verify_axioms on a fresh FusionRing over
                                  the Sylvester 128 tensor: the scan, the
                                  identity solve and the duality product
    closed ext2 group 4 6         closed_subset_heuristic on the exterior
                                  square of the Z/4 x Z/6 table (n = 276)
    closed kp 40                  closed_subset_heuristic on the level-40
                                  sl2 table (n = 41, numeric)
    closed group 7 9              closed_subset_heuristic on the Z/7 x Z/9
                                  table (n = 63, q = 63)
    verlinde group 7 9            verlinde_tensor on the same table
    root_columns group 7 9        root_columns on a fresh SMatrix over the
                                  same table's array (entries interned and
                                  factored)
    fannsc_lift paley12           the semigroup lift of the Paley 12 ring's
                                  s-matrix (m = 1024)
    lift_lines paley12, paley24   the lift text of Paley 12 and Paley 24
                                  (m = 1024, 2048), consumed line by line
    lift -o paley12               cli.main(["lift", f, "-o", out]) on the
                                  Paley 12 s-matrix file: read, lift,
                                  format and write (m = 1024)
    inverse group 3 5             SMatrix.inverse of the Z/3 x Z/5 table
                                  (orthogonal rows, q = 15)
    inverse ext2 group 4 6        SMatrix.inverse of the exterior square of
                                  the Z/4 x Z/6 table (orthogonal, n = 276)
    inverse random 40 x 2^40      SMatrix.inverse of a seeded 40 x 40
                                  integer matrix with entries below 2^40 in
                                  absolute value (rows not orthogonal)
    product q=3 small             the entrywise CycArray product of seeded
                                  (9, 8, 2) and (9, 1, 2) arrays at q = 3,
                                  the fixed cost of one modular product
    peak lift paley12, paley24    the tracemalloc peak, in MB, of
                                  fannsc_lift and the lift text consumed
                                  line by line (m = 1024, 2048)
    peak ring_from_text sylvester256
                                  the tracemalloc peak, in MB, of reading
                                  the Sylvester 256 ring text (32 MB, held
                                  before the row starts)
    smatrix_from_tensor z3^4, z4^4
                                  the numeric characters of the group rings
                                  of (Z/3)^4 and (Z/4)^4 (n = 81, 256),
                                  built directly from the group law
    peak smatrix_from_tensor z3^4, z4^4
                                  their tracemalloc peak, in MB

A peak row's value is the median over its repeats of that peak.

The one-shot rows run a fresh `python -m zbrng.cli` per repeat, with one
BLAS thread, the two checkouts alternating which goes first from one repeat
to the next, on inputs that the "after" checkout generates before the
first row that reads them: the Sylvester 64, 128 and 256 matrices, the
rings of the last two (`had ring -o`), the Z/6 and (Z/4)^4 rings (`gen
group`, then `verlinde`), the (Z/2)^9 and Z/7 x Z/9 tables (`gen group`)
and the Paley 12 s-matrix.  Each gives two rows: the median wall time of
the process and the median of its peak RSS (`ru_maxrss` from `os.wait4`),
in MB:

    had ring -o sylvester64, sylvester256
    had ring --check-parity sylvester64, sylvester256
    quotient2 z6                  quotient2 of the Z/6 ring by its element
                                  of order 2
    identity sylvester256         identity of the Sylvester 256 ring file
    had reconstruct3 sylvester256 had reconstruct3 of the same file
    verify sylvester128           verify of the Sylvester 128 ring file
    verify, smatrix, had reconstruct sylvester256
                                  the same three commands on the Sylvester
                                  256 ring file (3 repeats: `verify` and
                                  `smatrix` take 14-28 s each)
    smatrix z4^4                  smatrix of the (Z/4)^4 ring file (n = 256,
                                  the numeric path; 3 repeats)
    verlinde -o z2^9              verlinde of the (Z/2)^9 table, written to
                                  a file (n = 512; 3 repeats)
    verlinde -o z7xz9             verlinde of the Z/7 x Z/9 table, written
                                  to a file (n = 63, q = 63)
    lift paley12                  lift of the Paley 12 s-matrix file (`had
                                  ring`, then `smatrix`), written to a file

The JSON written holds the machine description, both checkouts (commit, and
whether `src/` has uncommitted changes) and one record per row with both
values.  This is the first part of the ladder; it is not the benchmark under
perfbench/, and no test runs it.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")

SYLVESTER64 = ("from collections import deque\n"
               "from zbrng.generators import gen_sylvester\n"
               "from zbrng.hadamard import ring_from_hadamard\n"
               "from zbrng.rng_core import ring_from_text, ring_lines\n"
               "ring = ring_from_hadamard(gen_sylvester(6))\n"
               "text = ''.join(ring_lines(ring.N, ring.tilde))")

Z64 = ("import numpy as np\n"
       "from zbrng.rng_core import assoc_witness\n"
       "i = np.arange(64)\n"
       "N = np.zeros((64, 64, 64), dtype=np.int64)\n"
       "N[i[:, None], i, (i[:, None] + i) % 64] = 2 ** 24")

SYLVESTER128 = ("from zbrng.generators import gen_sylvester\n"
                "from zbrng.hadamard import ring_from_hadamard\n"
                "from zbrng.rng_core import assoc_witness\n"
                "N = ring_from_hadamard(gen_sylvester(7)).N")

KP40 = ("from collections import deque\n"
        "from zbrng.generators import kac_peterson_a1\n"
        "from zbrng.rng_core import ring_from_tensor, ring_lines\n"
        "from zbrng.spectra import (involution_from_smatrix,\n"
        "                           smatrix_from_text, smatrix_to_text,\n"
        "                           verlinde_tensor)\n"
        "s = kac_peterson_a1(40)\n"
        "ring = ring_from_tensor(s.n, verlinde_tensor(s).tensor,\n"
        "                        involution_from_smatrix(s))\n"
        "text = smatrix_to_text(s)")

# x^r y^f with y x = x^-1 y: (r, f)(s, g) = (r + (-1)^f s, f + g)
DIHEDRAL128 = ("import numpy as np\n"
               "from zbrng.rng_core import assoc_witness\n"
               "k = np.arange(128)\n"
               "r, f = k % 64, k // 64\n"
               "prod = ((r[:, None] + (1 - 2 * f[:, None]) * r) % 64\n"
               "        + 64 * (f[:, None] ^ f))\n"
               "N = np.zeros((128, 128, 128), dtype=np.int64)\n"
               "N[k[:, None], k, prod] = 1")


def group_ring(orders):
    """Set-up: the group ring of the product of cyclic groups of the given
    orders as `ring`, b_x b_y = b_(x+y) on mixed-radix digits, without the
    exact Verlinde tensor of its table."""
    return ("import numpy as np\n"
            "from zbrng.rng_core import ring_from_tensor\n"
            "from zbrng.spectra import smatrix_from_tensor\n"
            "o = %r\n"
            "d = np.indices(o).reshape(len(o), -1).T\n"
            "w = np.cumprod((1,) + o[:0:-1])[::-1]\n"
            "add = (d[:, None] + d) %% o @ w\n"
            "n = len(d)\n"
            "N = np.zeros((n, n, n), dtype=np.int8)\n"
            "N[np.arange(n)[:, None], np.arange(n), add] = 1\n"
            "ring = ring_from_tensor(n, N, -d %% o @ w)" % (tuple(orders),))


def paley_lift(q):
    """Set-up: the s-matrix s of the Paley q + 1 ring and its lift L."""
    return ("from collections import deque\n"
            "from zbrng.generators import gen_paley\n"
            "from zbrng.hadamard import ring_from_hadamard\n"
            "from zbrng.quotients import fannsc_lift, lift_lines\n"
            "from zbrng.spectra import smatrix_from_tensor\n"
            "s = smatrix_from_tensor(ring_from_hadamard(gen_paley(%d)))\n"
            "L = fannsc_lift(s)" % q)


# the Paley 12 s-matrix in a file, and a file to write its lift to; stdout
# is the answer pipe of serve, so the "wrote" line goes to a sink
LIFT_CLI = ("import atexit, contextlib, io, os, shutil, tempfile\n"
            "from zbrng.cli import main\n"
            "from zbrng.generators import gen_paley\n"
            "from zbrng.hadamard import ring_from_hadamard\n"
            "from zbrng.spectra import smatrix_from_tensor, smatrix_to_text\n"
            "d = tempfile.mkdtemp()\n"
            "atexit.register(shutil.rmtree, d)\n"
            "f = os.path.join(d, 'p12.smat')\n"
            "out = os.path.join(d, 'p12.lift')\n"
            "with open(f, 'w') as fh:\n"
            "    fh.write(smatrix_to_text(smatrix_from_tensor(\n"
            "        ring_from_hadamard(gen_paley(11)))))")

# row name: (set-up statement, timed statement, calls per repeat, repeats)
ROWS = {
    "f2_algebra_check k=16": (
        "from zbrng.hadamard import f2_algebra_check as f",
        "assert f(16)", 1, 7),
    "f2_algebra_check k=24": (
        "from zbrng.hadamard import f2_algebra_check as f",
        "assert f(24)", 1, 3),
    "ring_from_text sylvester64": (SYLVESTER64, "ring_from_text(text)", 1, 15),
    "ring_lines sylvester64": (
        SYLVESTER64, "deque(ring_lines(ring.N, ring.tilde), 0)", 1, 15),
    "ring_lines kp40": (KP40, "deque(ring_lines(ring.N, ring.tilde), 0)",
                        10, 15),
    "smatrix_from_text kp40": (KP40, "smatrix_from_text(text)", 10, 15),
    "smatrix_to_text kp40": (KP40, "smatrix_to_text(s)", 10, 15),
    "hadamard_from_text sylvester64": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import hadamard_from_text, hadamard_to_text\n"
        "text = hadamard_to_text(gen_sylvester(6))",
        "hadamard_from_text(text)", 20, 15),
    "_row_order z15": (
        "from zbrng.generators import group_ring_smatrix\n"
        "from zbrng.rng_core import ring_from_tensor\n"
        "from zbrng.spectra import (_row_order, involution_from_smatrix,\n"
        "                           smatrix_from_tensor, verlinde_tensor)\n"
        "t = group_ring_smatrix([3, 5])\n"
        "ring = ring_from_tensor(15, verlinde_tensor(t).tensor,\n"
        "                        involution_from_smatrix(t))\n"
        "rows = smatrix_from_tensor(ring).array",
        "_row_order(rows)", 50, 15),
    # __wrapped__ is the uncached builder where build_parser is cached
    "parser first call": (
        "from zbrng.cli import build_parser\n"
        "build = getattr(build_parser, '__wrapped__', build_parser)",
        "build().parse_args(['verify', 'r.zbrng', '--machine'])", 50, 9),
    "parser repeat call": (
        "from zbrng.cli import build_parser",
        "build_parser().parse_args(['verify', 'r.zbrng', '--machine'])",
        50, 9),
    "assoc_witness z64 x 2^24": (Z64, "assert assoc_witness(N, None) is None",
                                 1, 3),
    "assoc_witness sylvester128": (
        SYLVESTER128, "assert assoc_witness(N, None) is None", 1, 3),
    "assoc_witness dihedral128": (
        DIHEDRAL128, "assert assoc_witness(N, None) is None", 1, 3),
    "smatrix sylvester128": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import character_signs, ring_from_hadamard\n"
        "ring = ring_from_hadamard(gen_sylvester(7))",
        "character_signs(ring)", 1, 5),
    "profile sylvester64": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import profile\n"
        "H = gen_sylvester(6)", "profile(H)", 5, 15),
    "profile sylvester128": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import profile\n"
        "H = gen_sylvester(7)", "profile(H)", 1, 7),
    "split_pm sylvester256": (
        "from zbrng.exact import primes\n"
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import ring_from_hadamard, split_pm\n"
        "N = ring_from_hadamard(gen_sylvester(8)).N\n"
        "p = next(primes(1, 256))",
        "split_pm(N, 64, p)", 1, 3),
    "reconstruct_mod3 sylvester64": (
        "import numpy as np\n"
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import (normalize_hadamard, reconstruct_mod3,\n"
        "                            ring_from_hadamard)\n"
        "rng = np.random.default_rng(6)\n"
        "a = gen_sylvester(6).array\n"
        "a = a[rng.permutation(64)][:, rng.permutation(64)]\n"
        "a = a * rng.choice([-1, 1], 64)[:, None] * rng.choice([-1, 1], 64)\n"
        "N = ring_from_hadamard(normalize_hadamard(a)).N",
        "reconstruct_mod3(N, 16)", 5, 9),
    "identity sylvester128": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import ring_from_hadamard\n"
        "from zbrng.rng_core import FusionRing, identity_coefficients\n"
        "ring = ring_from_hadamard(gen_sylvester(7))",
        "identity_coefficients(FusionRing(ring.n, ring.N, ring.tilde))", 1, 5),
    "verify_axioms sylvester128": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import ring_from_hadamard\n"
        "from zbrng.rng_core import FusionRing, verify_axioms\n"
        "ring = ring_from_hadamard(gen_sylvester(7))",
        "verify_axioms(FusionRing(ring.n, ring.N, ring.tilde))", 1, 5),
    "closed ext2 group 4 6": (
        "from zbrng.generators import exterior_square, group_ring_smatrix\n"
        "from zbrng.spectra import closed_subset_heuristic as f\n"
        "s = exterior_square(group_ring_smatrix([4, 6]))",
        "f(s)", 1, 3),
    "closed kp 40": (
        "from zbrng.generators import kac_peterson_a1\n"
        "from zbrng.spectra import closed_subset_heuristic as f\n"
        "s = kac_peterson_a1(40)",
        "f(s)", 5, 5),
    "closed group 7 9": (
        "from zbrng.generators import group_ring_smatrix\n"
        "from zbrng.spectra import closed_subset_heuristic as f\n"
        "s = group_ring_smatrix([7, 9])",
        "f(s)", 1, 3),
    "verlinde group 7 9": (
        "from zbrng.generators import group_ring_smatrix\n"
        "from zbrng.spectra import verlinde_tensor as f\n"
        "s = group_ring_smatrix([7, 9])",
        "f(s)", 1, 3),
    "root_columns group 7 9": (
        "from zbrng.generators import group_ring_smatrix\n"
        "from zbrng.spectra import SMatrix, root_columns\n"
        "s = group_ring_smatrix([7, 9])",
        "root_columns(SMatrix(s.array))", 1, 9),
    "fannsc_lift paley12": (paley_lift(11), "fannsc_lift(s)", 1, 15),
    "lift_lines paley12": (paley_lift(11), "deque(lift_lines(L), 0)", 1, 15),
    "lift_lines paley24": (paley_lift(23), "deque(lift_lines(L), 0)", 1, 5),
    "lift -o paley12": (
        LIFT_CLI,
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['lift', f, '-o', out]) == 0", 1, 15),
    "inverse group 3 5": (
        "from zbrng.generators import group_ring_smatrix\n"
        "s = group_ring_smatrix([3, 5])",
        "s.inverse(1e-8)", 20, 9),
    "inverse ext2 group 4 6": (
        "from zbrng.generators import exterior_square, group_ring_smatrix\n"
        "s = exterior_square(group_ring_smatrix([4, 6]))",
        "s.inverse(1e-8)", 1, 5),
    "inverse random 40 x 2^40": (
        "import numpy as np\n"
        "from zbrng.exact import CycArray\n"
        "from zbrng.spectra import SMatrix\n"
        "a = np.random.default_rng(17).integers(-2 ** 40, 2 ** 40,\n"
        "                                        (40, 40, 1))\n"
        "s = SMatrix(CycArray(1, a, 1))",
        "s.inverse(1e-8)", 1, 5),
    "product q=3 small": (
        "import numpy as np\n"
        "from zbrng.exact import CycArray\n"
        "rng = np.random.default_rng(3)\n"
        "a = CycArray(3, rng.integers(-3, 4, (9, 8, 2)), 1)\n"
        "b = CycArray(3, rng.integers(-3, 4, (9, 1, 2)), 1)",
        "a * b", 2000, 9),
    "peak lift paley12": (paley_lift(11),
                          "deque(lift_lines(fannsc_lift(s)), 0)", 1, 3),
    "peak lift paley24": (paley_lift(23),
                          "deque(lift_lines(fannsc_lift(s)), 0)", 1, 3),
    "peak ring_from_text sylvester256": (
        "from zbrng.generators import gen_sylvester\n"
        "from zbrng.hadamard import ring_from_hadamard\n"
        "from zbrng.rng_core import ring_from_text, ring_lines\n"
        "ring = ring_from_hadamard(gen_sylvester(8))\n"
        "text = ''.join(ring_lines(ring.N, ring.tilde))\n"
        "del ring", "ring_from_text(text)", 1, 3),
    "smatrix_from_tensor z3^4": (group_ring([3] * 4),
                                 "smatrix_from_tensor(ring)", 1, 9),
    "smatrix_from_tensor z4^4": (group_ring([4] * 4),
                                 "smatrix_from_tensor(ring)", 1, 3),
    "peak smatrix_from_tensor z3^4": (group_ring([3] * 4),
                                      "smatrix_from_tensor(ring)", 1, 3),
    "peak smatrix_from_tensor z4^4": (group_ring([4] * 4),
                                      "smatrix_from_tensor(ring)", 1, 3),
}
# rows measured in MB of tracemalloc peak rather than in seconds
PEAKS = {name for name in ROWS if name.startswith("peak ")}

# the inputs of the one-shot rows, each written by the "after" checkout
# before the first row that reads it: file name: argv
INPUTS = {"s64.had": ["gen", "sylvester", "6", "-o", "s64.had"],
          "s128.had": ["gen", "sylvester", "7", "-o", "s128.had"],
          "s256.had": ["gen", "sylvester", "8", "-o", "s256.had"],
          "s128.zbrng": ["had", "ring", "s128.had", "-o", "s128.zbrng"],
          "s256.zbrng": ["had", "ring", "s256.had", "-o", "s256.zbrng"],
          "g6.smat": ["gen", "group", "2", "3", "-o", "g6.smat"],
          "z6.zbrng": ["verlinde", "g6.smat", "-o", "z6.zbrng"],
          "g256.smat": ["gen", "group", "4", "4", "4", "4", "-o",
                        "g256.smat"],
          "z256.zbrng": ["verlinde", "g256.smat", "-o", "z256.zbrng"],
          "g512.smat": ["gen", "group"] + ["2"] * 9 + ["-o", "g512.smat"],
          "g63.smat": ["gen", "group", "7", "9", "-o", "g63.smat"],
          "p12.had": ["gen", "paley", "11", "-o", "p12.had"],
          "p12.zbrng": ["had", "ring", "p12.had", "-o", "p12.zbrng"],
          "p12.smat": ["smatrix", "p12.zbrng", "-o", "p12.smat"]}
# one-shot rows, run in a directory holding the INPUTS they read:
# row name: (argv, repeats)
ONESHOT = {
    "had ring -o sylvester64": (["had", "ring", "s64.had", "-o", "r"], 15),
    "had ring --check-parity sylvester64": (
        ["had", "ring", "s64.had", "--check-parity"], 15),
    "had ring -o sylvester256": (["had", "ring", "s256.had", "-o", "r"], 5),
    "had ring --check-parity sylvester256": (
        ["had", "ring", "s256.had", "--check-parity"], 5),
    "quotient2 z6": (["quotient2", "z6.zbrng", "3"], 15),
    "identity sylvester256": (["identity", "s256.zbrng"], 5),
    "had reconstruct3 sylvester256": (
        ["had", "reconstruct3", "s256.zbrng"], 5),
    "verify sylvester128": (["verify", "s128.zbrng"], 5),
    "verify sylvester256": (["verify", "s256.zbrng"], 3),
    "smatrix sylvester256": (["smatrix", "s256.zbrng"], 3),
    "had reconstruct sylvester256": (["had", "reconstruct", "s256.zbrng"],
                                     5),
    "smatrix z4^4": (["smatrix", "z256.zbrng"], 3),
    "verlinde -o z2^9": (["verlinde", "g512.smat", "-o", "r"], 3),
    "verlinde -o z7xz9": (["verlinde", "g63.smat", "-o", "r"], 9),
    "lift paley12": (["lift", "p12.smat", "-o", "r"], 15),
}


class Peak:
    """timeit.Timer's interface, measuring memory: timeit(number) is the
    tracemalloc peak, in MB, over number runs of stmt.  Peak rows make one
    call per repeat, so the caller's division by number leaves it as is."""

    def __init__(self, stmt, setup):
        self.ns = {}
        exec(setup, self.ns)
        self.code = compile(stmt, "<peak>", "exec")

    def timeit(self, number):
        tracemalloc.start()
        try:
            for _ in range(number):
                exec(self.code, self.ns)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()


def serve(src):
    """The child: import zbrng from src, then answer one line of stdin at a
    time.  A row name sets that row up and calls it once untimed; an empty
    line times one repeat of it.  Each answer is one line of stdout."""
    sys.path.insert(0, src)
    for line in iter(sys.stdin.readline, ""):
        name = line.strip()
        if name:
            setup, stmt, number, _ = ROWS[name]
            timer = (Peak if name in PEAKS else timeit.Timer)(stmt, setup)
            timer.timeit(1)
            print("ready", flush=True)
        else:
            print(timer.timeit(number) / number, flush=True)


class Child:
    """A long-lived child interpreter timing rows for one checkout."""

    def __init__(self, checkout):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child",
             os.path.join(checkout, "src")],
            env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def ask(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("child exited with %s" % self.proc.wait())
        return answer.strip()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def measure(sides, names):
    """{row: [before, after] seconds per call} for the named rows and the
    two Child sides, which alternate in timing first from one repeat to the
    next."""
    out = {}
    for name in names:
        repeats = ROWS[name][3]
        for side in sides:
            side.ask(name)
        times = ([], [])
        for r in range(repeats):
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                times[k].append(float(sides[k].ask("")))
        out[name] = [statistics.median(t) for t in times]
    return out


def run_cli(checkout, argv, cwd):
    """(wall time in s, peak RSS in MB) of one `python -m zbrng.cli argv`
    process in cwd, importing zbrng from checkout; it must exit 0."""
    env = dict(ENV, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "zbrng.cli"] + argv,
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError("%s exited %d in %s" % (" ".join(argv),
                                                   proc.returncode, checkout))
    return wall, usage.ru_maxrss / 1024     # ru_maxrss is in KB on Linux


def prepare(argv, checkout, cwd):
    """Write, with checkout, each file of INPUTS that argv reads and cwd
    lacks, after the inputs it reads in turn."""
    for arg in argv[:argv.index("-o")] if "-o" in argv else argv:
        if arg in INPUTS and not os.path.exists(os.path.join(cwd, arg)):
            prepare(INPUTS[arg], checkout, cwd)
            run_cli(checkout, INPUTS[arg], cwd)


def measure_oneshot(checkouts, names):
    """{row: ([before, after] wall s, [before, after] MB)} for the named
    one-shot rows, the two checkouts alternating in running first."""
    cwd = tempfile.mkdtemp()
    try:
        out = {}
        for name in names:
            argv, repeats = ONESHOT[name]
            prepare(argv, checkouts[1], cwd)
            runs = ([], [])
            for r in range(repeats):
                for k in (0, 1) if r % 2 == 0 else (1, 0):
                    runs[k].append(run_cli(checkouts[k], argv, cwd))
            out[name] = tuple([statistics.median(run[v] for run in runs[k])
                               for k in (0, 1)] for v in (0, 1))
        return out
    finally:
        shutil.rmtree(cwd)


def describe(checkout):
    """The checkout's commit, and whether its working tree differs."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout] + list(args),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True).stdout
    return {"commit": git("rev-parse", "HEAD").strip() or None,
            "modified": bool(git("status", "--porcelain", "src").strip())}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"cpu": cpu, "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": 1}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--before", help="checkout measured as the baseline")
    ap.add_argument("--out", help="JSON file to write")
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("rows", nargs="*", metavar="ROW",
                    help="rows to run (default: all)")
    args = ap.parse_args(argv)
    if args.child:
        serve(args.child)
        return 0
    if not (args.before and args.out):
        ap.error("--before and --out are required")
    unknown = set(args.rows) - set(ROWS) - set(ONESHOT)
    if unknown:
        ap.error("unknown rows: %s" % ", ".join(sorted(unknown)))
    chosen = set(args.rows or list(ROWS) + list(ONESHOT))
    names = [name for name in ROWS if name in chosen]
    values = {}
    if names:
        sides = (Child(args.before), Child(ROOT))
        try:
            values = measure(sides, names)
        finally:
            for side in sides:
                side.close()
    rows = [{"row": name, "unit": "MB" if name in PEAKS else "s",
             "before": values[name][0],
             "after": values[name][1], "repeats": ROWS[name][3],
             "calls_per_repeat": ROWS[name][2]} for name in names]
    oneshot = [name for name in ONESHOT if name in chosen]
    for name, (wall, rss) in measure_oneshot((args.before, ROOT),
                                             oneshot).items():
        for row, unit, pair in ((name, "s", wall),
                                ("peak rss " + name, "MB", rss)):
            rows.append({"row": "one-shot " + row, "unit": unit,
                         "before": pair[0], "after": pair[1],
                         "repeats": ONESHOT[name][1],
                         "calls_per_repeat": 1})
    record = {"machine": machine(),
              "before": describe(args.before),
              "after": describe(ROOT),
              "rows": rows}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for r in rows:
        print("%-52s %10.6f -> %10.6f %s" % (r["row"], r["before"],
                                               r["after"], r["unit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
