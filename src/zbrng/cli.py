"""Command-line frontend.  File types are recognized by their first line
("zbrng 1" ring, "smatrix 1" / "smatrix-numeric 1" s-matrix, "zbrng-monomial
1" a lift, which no command reads, anything else a +-1 matrix).  Exit codes:
0 verified or success, 1 verification failed, 2 input error.
"""

import argparse
import functools
import itertools
import json
import sys

import numpy as np

from .exact import ExactError, format_cyc
from .rng_core import (FormatError, FusionRing, RingError, assoc_witness,
                       identity_coefficients, nonblank_lines, ring_blocks,
                       ring_from_text, ring_lines, verify_axioms)
from .spectra import (SMatrix, SpectraError, closed_subset_heuristic,
                      involution_from_smatrix, smatrix_from_tensor,
                      smatrix_from_text, smatrix_to_text, subring_smatrix,
                      verlinde_tensor)
from .hadamard import (HadamardError, HadamardMatrix, PreconditionError,
                       census_values, equiv_screen, f2_algebra_check,
                       had_closed_subsets, hadamard_from_text,
                       hadamard_to_text, hadamard_type, multiset_census,
                       normalize_hadamard, profile, reconstruct_exact,
                       reconstruct_mod3, ring_from_hadamard, ring_from_tensor,
                       triangular_bound, triple_slabs, v_rank, wmatrix)
from .quotients import (QuotientError, fannsc_lift, lift_lines,
                        order2_quotient)
from .generators import (exterior_square, fixture_ds3, gen_kronecker,
                         gen_paley, gen_sylvester, group_ring_smatrix,
                         kac_peterson_a1)

DOMAIN_ERRORS = (RingError, SpectraError, HadamardError, QuotientError,
                 ExactError)


class InputError(Exception):
    pass


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc))


def load_any(path):
    text = _read(path)
    head = next(nonblank_lines(text), (0, ""))[1]
    if head == "zbrng-monomial 1":
        raise InputError("%s: lift (pointed algebra) file; expected a ring, "
                         "s-matrix or Hadamard file" % path)
    try:
        if head == "zbrng 1":
            return ring_from_text(text)
        if head in ("smatrix 1", "smatrix-numeric 1"):
            return smatrix_from_text(text)
        return normalize_hadamard(hadamard_from_text(text))
    except (FormatError,) + DOMAIN_ERRORS as exc:
        raise InputError("%s: %s" % (path, exc))


def as_ring(obj):
    if isinstance(obj, FusionRing):
        return obj
    if isinstance(obj, HadamardMatrix):
        return ring_from_hadamard(obj)
    raise InputError("expected a ring or Hadamard file")


def as_smatrix(obj, tol):
    """The s-matrix of what load_any returns: an s-matrix, a ring or a
    Hadamard matrix."""
    if isinstance(obj, SMatrix):
        return obj
    if isinstance(obj, FusionRing):
        return smatrix_from_tensor(obj, tol=tol)
    return smatrix_from_tensor(ring_from_hadamard(obj), tol=tol)


def as_hadamard(obj):
    if isinstance(obj, HadamardMatrix):
        return obj
    raise InputError("expected a Hadamard matrix file")


def in_range(values, lo, n, what):
    """Index arguments must lie in lo..n-1: bad input, not a failed
    verification."""
    if any(not lo <= v < n for v in values):
        raise InputError("%s out of range %d..%d" % (what, lo, n - 1))


def emit(args, text):
    """Write text, one string or an iterable of str or bytes pieces written
    piece by piece, to the -o file, opened in binary (bytes as they are, str
    encoded), or to stdout (bytes decoded)."""
    pieces = [text] if isinstance(text, str) else text
    out = getattr(args, "out", None)
    if out:
        with open(out, "wb") as fh:
            fh.writelines(p.encode() if isinstance(p, str) else p
                          for p in pieces)
        print("wrote %s" % out)
    else:
        sys.stdout.writelines(p.decode() if isinstance(p, bytes) else p
                              for p in pieces)
    return 0


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args):
    report = verify_axioms(as_ring(load_any(args.file)))
    if args.machine:
        print(json.dumps(
            {a: {"pass": p, "witness": w} for a, p, w in report.entries},
            sort_keys=True))
    else:
        print(report)
    return 0 if report.all_pass else 1


def cmd_identity(args):
    ring = as_ring(load_any(args.file))
    coeffs = identity_coefficients(ring)
    if args.machine:
        print(json.dumps([format_cyc(c) for c in coeffs]))
    else:
        print("identity " + " ".join(format_cyc(c) for c in coeffs))
    return 0


def cmd_smatrix(args):
    ring = as_ring(load_any(args.file))
    w = assoc_witness(ring.N, None)
    if w is not None:
        print("associativity fails at (%d, %d, %d)" % w[:3])
        return 1
    s = smatrix_from_tensor(ring, tol=args.tol)
    return emit(args, smatrix_to_text(s))


def cmd_verlinde(args):
    s = as_smatrix(load_any(args.file), args.tol)
    res = verlinde_tensor(s, tol=args.tol)
    try:
        tilde = involution_from_smatrix(s, tol=args.tol)
    except SpectraError as exc:
        print("no involution: %s" % exc)
        sys.stdout.writelines(ring_blocks(res.tensor))
        return 1
    ring = ring_from_tensor(s.n, res.tensor, tilde)
    return emit(args, ring_lines(ring.N, ring.tilde))


def cmd_closed(args):
    s = as_smatrix(load_any(args.file), args.tol)
    res = closed_subset_heuristic(s, tol=args.tol)
    if args.machine:
        print(json.dumps([list(S) for S in res.sets]))
    else:
        for S in res.sets:
            print(" ".join(str(i) for i in S))
    return 0


def cmd_subring(args):
    s = as_smatrix(load_any(args.file), args.tol)
    in_range(args.indices, 0, s.n, "index")
    sub = subring_smatrix(s, tuple(args.indices), tol=args.tol)
    return emit(args, smatrix_to_text(sub))


def cmd_quotient2(args):
    ring = as_ring(load_any(args.file))
    in_range([args.d], 0, ring.n, "d")
    alg, classmap = order2_quotient(ring, args.d)
    classes = ("class %d %d %d\n" % (i, r, sg)
               for i, (r, sg) in enumerate(classmap))
    return emit(args, itertools.chain(ring_lines(alg.tensor), classes))


def cmd_lift(args):
    # no lift reads a tolerance: a numeric s-matrix is bad input
    s = as_smatrix(load_any(args.file), TOL[1]["default"])
    if s.mode != "exact":
        raise InputError("exact s-matrix required")
    L = fannsc_lift(s, cap=args.cap)
    return emit(args, lift_lines(L))


def cmd_had_ring(args):
    H = as_hadamard(load_any(args.file))
    ring = ring_from_hadamard(H)
    if args.check_parity:
        # N_ij^m = k - 2|xi_i . xi_j . xi_m| on pairwise-distinct nonzero
        # triples (inclusion-exclusion from |xi_i| = 2k, |xi_i . xi_j| = k)
        j, m = np.ogrid[:H.n, :H.n]
        ok = True
        for lo, inter in triple_slabs(H.array == -1):
            i = np.arange(lo, lo + len(inter))[:, None, None]
            bad = ring.N[lo:lo + len(inter)] != H.k - 2 * inter
            ok &= not np.any(bad & (i != j) & (j != m) & (i != m)
                             & (i != 0) & (j != 0) & (m != 0))
        print("parity %s" % ("ok" if ok else "FAIL"))
        return 0 if ok else 1
    return emit(args, ring_lines(ring.N, ring.tilde))


def cmd_had_profile(args):
    H = as_hadamard(load_any(args.file))
    p = profile(H)
    if args.machine:
        print(json.dumps(sorted(p.counts.items())))
    else:
        for value, count in sorted(p.counts.items()):
            print("%d %d" % (value, count))
        print("total %d" % p.total())
    return 0


def cmd_had_census(args):
    ring = ring_from_hadamard(as_hadamard(load_any(args.file)))
    cens = sorted(multiset_census(ring))
    k = (ring.n // 4)
    for entry in cens:
        print(" ".join(str(v) for v in census_values(entry)))
    if k % 2 and k >= 3:
        print("count %d bound %d" % (len(cens), triangular_bound(k)))
    else:
        print("count %d" % len(cens))
    return 0


def cmd_had_closed(args):
    ring = ring_from_hadamard(as_hadamard(load_any(args.file)))
    for S in had_closed_subsets(ring):
        print(" ".join(str(i) for i in S))
    return 0


def cmd_had_wmatrix(args):
    ring = ring_from_hadamard(as_hadamard(load_any(args.file)))
    in_range([args.i], 1, ring.n, "i")
    return emit(args, hadamard_to_text(wmatrix(ring, args.i)))


def cmd_had_reconstruct(args):
    ring = as_ring(load_any(args.file))
    return emit(args, hadamard_to_text(reconstruct_exact(ring)))


def cmd_had_reconstruct3(args):
    ring = as_ring(load_any(args.file))
    k = hadamard_type(ring)
    return emit(args, hadamard_to_text(reconstruct_mod3(ring.N, k)))


def cmd_had_f2(args):
    ok = f2_algebra_check(args.k)
    print("f2 %s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_had_vrank(args):
    H = as_hadamard(load_any(args.file))
    print(v_rank(H))
    return 0


def cmd_had_equiv(args):
    H1 = as_hadamard(load_any(args.file))
    H2 = as_hadamard(load_any(args.file2))
    verdict = equiv_screen(H1, H2)
    if args.machine:
        print(json.dumps({"verdict": verdict}))
    else:
        print(verdict)
    return 0


def cmd_gen_sylvester(args):
    return emit(args, hadamard_to_text(gen_sylvester(args.m)))


def cmd_gen_paley(args):
    return emit(args, hadamard_to_text(gen_paley(args.q)))


def cmd_gen_kronecker(args):
    H1 = as_hadamard(load_any(args.file))
    H2 = as_hadamard(load_any(args.file2))
    return emit(args, hadamard_to_text(gen_kronecker(H1, H2)))


def cmd_gen_group(args):
    return emit(args, smatrix_to_text(group_ring_smatrix(args.orders)))


def cmd_gen_ext2(args):
    obj = load_any(args.file)
    if isinstance(obj, HadamardMatrix):
        out = SMatrix.numeric(exterior_square(obj))
    elif isinstance(obj, SMatrix):
        out = exterior_square(obj)
    else:
        raise InputError("expected an s-matrix or Hadamard file")
    return emit(args, smatrix_to_text(out))


def cmd_gen_kp(args):
    return emit(args, smatrix_to_text(kac_peterson_a1(args.level)))


def cmd_gen_ds3(args):
    return emit(args, smatrix_to_text(fixture_ds3()))


# ---------------------------------------------------------------------------

def tolerance(text):
    """--tol: a finite number above 0, the scale of every numeric equality
    and integrality test."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be finite and above 0: %r"
                                         % text)
    return value


def positive(text):
    """--cap: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1: %r" % text)
    return value


# options, attached only to the subcommands that read them
TOL = ("--tol", {"type": tolerance, "default": 1e-8})
MACHINE = ("--machine", {"action": "store_true"})


def _subcommand(sub, name, func, *arguments, out=True, gen=False):
    p = sub.add_parser(name)
    for arg, kw in arguments:
        p.add_argument(arg, **kw)
    if out:
        p.add_argument("-o", "--out")
    p.set_defaults(func=func, _gen=gen)


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared after it:
    parse_args keeps no state in the parser.  Building it takes about 5 ms,
    as long as many whole commands, so a caller that runs main many times in
    one process saves that on every call after the first; a one-shot `zbrng`
    process builds it once either way."""
    top = argparse.ArgumentParser(prog="zbrng")
    sub = top.add_subparsers(dest="command", required=True)
    f = ("file", {})

    _subcommand(sub, "verify", cmd_verify, f, MACHINE, out=False)
    _subcommand(sub, "identity", cmd_identity, f, MACHINE, out=False)
    _subcommand(sub, "smatrix", cmd_smatrix, f, TOL)
    _subcommand(sub, "verlinde", cmd_verlinde, f, TOL)
    _subcommand(sub, "closed", cmd_closed, f, TOL, MACHINE, out=False)
    _subcommand(sub, "subring", cmd_subring, f,
                ("indices", {"type": int, "nargs": "+"}), TOL)
    _subcommand(sub, "quotient2", cmd_quotient2, f, ("d", {"type": int}))
    _subcommand(sub, "lift", cmd_lift, f,
                ("--cap", {"type": positive, "default": 4096}))

    had = sub.add_parser("had").add_subparsers(dest="hadcmd", required=True)
    _subcommand(had, "ring", cmd_had_ring, f,
                ("--check-parity", {"action": "store_true"}))
    _subcommand(had, "profile", cmd_had_profile, f, MACHINE, out=False)
    _subcommand(had, "census", cmd_had_census, f, out=False)
    _subcommand(had, "closed", cmd_had_closed, f, out=False)
    _subcommand(had, "wmatrix", cmd_had_wmatrix, f, ("i", {"type": int}))
    _subcommand(had, "reconstruct", cmd_had_reconstruct, f)
    _subcommand(had, "reconstruct3", cmd_had_reconstruct3, f)
    _subcommand(had, "f2", cmd_had_f2, ("k", {"type": int}), out=False)
    _subcommand(had, "vrank", cmd_had_vrank, f, out=False)
    _subcommand(had, "equiv", cmd_had_equiv, f, ("file2", {}), MACHINE,
                out=False)

    gen = sub.add_parser("gen").add_subparsers(dest="gencmd", required=True)
    _subcommand(gen, "sylvester", cmd_gen_sylvester, ("m", {"type": int}),
                gen=True)
    _subcommand(gen, "paley", cmd_gen_paley, ("q", {"type": int}), gen=True)
    _subcommand(gen, "kronecker", cmd_gen_kronecker, f, ("file2", {}),
                gen=True)
    _subcommand(gen, "group", cmd_gen_group,
                ("orders", {"type": int, "nargs": "+"}), gen=True)
    _subcommand(gen, "ext2", cmd_gen_ext2, f, gen=True)
    _subcommand(gen, "kp", cmd_gen_kp, ("level", {"type": int}), gen=True)
    _subcommand(gen, "ds3", cmd_gen_ds3, gen=True)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError, PreconditionError, OverflowError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        # generator failures are bad arguments, not failed verifications
        code = 2 if args._gen else 1
        print("%s: %s" % ("input error" if code == 2 else "failed", exc),
              file=sys.stderr)
        return code
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("input error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
