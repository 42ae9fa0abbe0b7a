"""Based rings from structure constants alone: identity and trace recovery,
axiom verification, products, closed subsets, involution search, text
format.

Convention: b_i b_j = sum_m N[i,j,m] b_m with an integer tensor N, an
involutive basis permutation tilde, and an identity e that in general only
exists in the complexification (its coefficients are rational here since N
is integral).
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from .exact import (CycArray, CycNum, _maxabs, _slab, floor_mod,
                    int_matmul, int_mod, narrow_dtype, primes, rref_mod)


class RingError(ValueError):
    pass


class FormatError(ValueError):
    pass


# A ring of order n holds n^3 structure constants: at most 2^27 of them
# (1 GiB in int64, 128 MiB in int8) for n <= MAX_RING.
MAX_RING = 512


class FusionRing:
    """Free Z-module with basis 0..n-1 and distinguished multiplication.
    N is an integer array of any signed dtype; the reader and the Hadamard
    ring store it in the smallest one holding max|N| (narrow_dtype), so
    every consumer promotes the slab it computes on, never N whole."""

    def __init__(self, n, N, tilde):
        self.n = n
        self.N = N
        self.tilde = tilde

    @cached_property
    def eCoeffs(self):
        """The identity's coefficients, computed on first use; RingError when
        there is no unique identity."""
        return identity_coefficients(self)


class RingElement:
    """Coefficient vector over the basis of the ambient ring."""

    def __init__(self, coeffs):
        self.coeffs = [c if isinstance(c, CycNum) else CycNum.from_rat(c)
                       for c in coeffs]

    @classmethod
    def from_ints(cls, vec):
        return cls([CycNum.from_rat(int(v)) for v in vec])


class VerifyReport:
    """Ordered axiom results; witness = indices of the first failure."""

    def __init__(self):
        self.entries = []

    def add(self, axiom, passed, witness=None):
        self.entries.append((axiom, passed, witness))

    @property
    def all_pass(self):
        return all(p for _, p, _ in self.entries)

    def __str__(self):
        lines = []
        for axiom, passed, witness in self.entries:
            tail = "" if witness is None else "  witness %s" % (witness,)
            lines.append("%-24s %s%s" % (axiom, "pass" if passed else "FAIL", tail))
        return "\n".join(lines)


def ring_from_tensor(n, N, tilde):
    """The ring of N, kept in the signed integer dtype it is given (any
    other input is read as int64)."""
    N = np.asarray(N)
    if N.dtype.kind != "i":
        N = N.astype(np.int64)
    if N.shape != (n, n, n):
        raise RingError("shape mismatch")
    tilde = tuple(int(t) for t in tilde)
    if sorted(tilde) != list(range(n)):
        raise RingError("tilde not a permutation")
    if any(tilde[tilde[i]] != i for i in range(n)):
        raise RingError("tilde not an involution")
    w = _noncommuting(N)
    if w is not None:
        raise RingError("not commutative at (%d,%d,%d)" % w)
    return FusionRing(n, N, tilde)


def identity_coefficients(ring):
    """Solve (sum_i e_i b_i) b_j = b_j for all j: the n^2 linear conditions
    A e = b with A[(j, m), i] = N_ijm and b = vec(I).  A^T = N.reshape(n,
    n^2) is a view of N, and each kernel reads it where it lies.

    The rows of A independent mod a prime p (the pivots of rref_mod on A^T,
    at most n) are independent over Q.  With n of them A has rank n over Q,
    and the certified inverse (CycArray.inverse) of those rows gives the
    only candidate, certified against all n^2 equations over Z: A num =
    den b, so den at the n diagonal positions (j, j) and 0 elsewhere; when
    it fails, b is outside the column space of A and there is no identity.
    Otherwise more primes are tried, and at each b is reduced against the
    echelon form of A^T, which continues the elimination to [A|b]^T.  A
    prime fails only by dividing a nonzero minor of [A|b], below 2^bits by
    Hadamard's inequality (column norms at most n max|N_i| and n); once the
    failed primes multiply past 2^bits, the largest ranks of [A|b] and A
    mod the failed primes are their ranks over Q, so the system is
    inconsistent exactly when the first exceeds the second."""
    n, N = ring.n, ring.N
    At = N.reshape(n, n * n)                        # row i, column (j, m)
    b = np.eye(n, dtype=np.int64).reshape(n * n)
    big = [_maxabs(Ni) for Ni in N]
    bits = sum((n * x).bit_length() for x in big) + n.bit_length()
    span, rank, failed = 0, 0, 1
    for p in primes(1, 1):
        R, piv = rref_mod(At, p)
        r = len(piv)
        if r == n:
            break
        # b reduced against the rows of R: [A|b] has rank r + 1 mod p
        # exactly when something is left
        rest = (b - b[piv] @ R[:r]) % p
        span, rank = max(span, r + bool(rest.any())), max(rank, r)
        failed *= p
        if failed > 2 ** bits:
            raise RingError("no identity in R(x)C" if span > rank
                            else "identity not unique")
    del R                   # the reduced copy of N goes before the product
    e = (CycArray(1, At.T[piv].astype(np.int64)[..., None], 1).inverse()
         @ CycArray(1, b[piv].reshape(n, 1, 1), 1))
    num = [int(x) for x in e.num.ravel()]
    g = gcd(e.den, *num)
    den, num = e.den // g, [x // g for x in num]
    # num A^T = den vec(I) over Z: den (>= 1, compared as a Python int) at
    # the n positions j (n + 1), 0 elsewhere
    t = int_matmul(np.array(num, dtype=object), At)
    if t[::n + 1].tolist() != [den] * n or np.count_nonzero(t) != n:
        raise RingError("no identity in R(x)C")
    return [CycNum.from_rat(Fraction(x, den)) for x in num]


def trace_eval(ring, r):
    """tau(r) = sum_i conj(e_i) r_i."""
    total = CycNum.from_rat(0)
    for e_i, r_i in zip(ring.eCoeffs, r.coeffs):
        total = total + e_i.conj() * r_i
    return total


def multiply(ring, r1, r2):
    """r1 r2 for rational coefficients: each element as an integer vector
    over its coefficients' common denominator, two exact products (v1 N,
    then v2 times that) and the result divided back; ExactError at a
    coefficient that is not rational."""
    vecs, den = [], 1
    for r in (r1, r2):
        vals = [c.rational_value() for c in r.coeffs]
        d = lcm(*(v.denominator for v in vals))
        vecs.append(np.array([int(v * d) for v in vals], dtype=object))
        den *= d
    n = ring.n
    left = int_matmul(vecs[0], ring.N.reshape(n, n * n)).reshape(n, n)
    return RingElement([Fraction(int(x), den)
                        for x in int_matmul(vecs[1], left)])


def _first_mismatch(a, b):
    """The first index in C order at which a and b differ, or None."""
    ne = a != b
    if not ne.any():
        return None
    return tuple(int(x) for x in np.unravel_index(ne.argmax(), ne.shape))


def _noncommuting(N):
    """The first (i, j, m) in C order with N[i, j, m] != N[j, i, m], or
    None; compared a slab of 2^18 entries at a time, so no n^3 mask is
    formed."""
    step = _slab(N[0].size)
    for lo in range(0, len(N), step):
        w = _first_mismatch(N[lo:lo + step],
                            N[:, lo:lo + step].transpose(1, 0, 2))
        if w is not None:
            return (w[0] + lo,) + w[1:]
    return None


def assoc_witness(N, modulus):
    """First (i, j, k, l) in C order at which (b_i b_j) b_k and b_i (b_j b_k)
    differ in coefficient l (mod modulus unless it is None), or None.  Works
    in slabs of i, so memory is O(n^3).  Every sum is bounded by
    max|N|^2 * n, which picks the pass: float32 below 2^24, float64 below
    2^53; every partial sum is then an integer the dtype holds exactly, and
    a nonzero difference of two such sums cannot round to 0.  From 2^53 on
    (no modulus) the difference, at most 2 max|N|^2 n in size, is zero
    exactly when it is zero modulo the first primes(1, n), whose product
    exceeds it: one float64 pass each, the witness the first index nonzero
    modulo any of them.  N keeps its dtype: a modulus reduces it in the
    narrowest dtype holding both (int_mod), and each pass converts it to
    its float dtype once."""
    N = np.asarray(N)
    if modulus is not None:
        N = int_mod(N, modulus)
    n = N.shape[0]
    big = _maxabs(N)
    bound = big * big * n
    if bound < 2 ** 53:
        dtype = np.float32 if bound < 2 ** 24 else np.float64
        return _assoc_scan(N.astype(dtype), modulus, n)
    if modulus is not None:
        raise ValueError("modulus too large: (modulus-1)^2 * n >= 2^53")
    best, product = None, 1
    for p in primes(1, n):
        stop = n if best is None else best[0] + 1
        w = _assoc_scan(int_mod(N, p).astype(np.float64), p, stop)
        best = min((x for x in (best, w) if x is not None), default=None)
        product *= p
        if product > 2 * bound:
            return best


def _assoc_scan(A, modulus, stop):
    """assoc_witness on an exact float32 or float64 tensor, over i < stop:
    the tiers of assoc_witness, not int_matmul's, so that a bound below
    2^24 runs in float32 and residues mod p are reduced in place.

    With T[k] the matrix T[k, j, m] = N[j, k, m], the differences of slab i
    are d(i, j, k, l) = (N[i] T[k] - T[k] N[i])[j, l], taken for a chunk of
    about 2^20 / n^2 values of k at a time, whose arrays go before the next
    chunk's are made.  When N is commutative, T = N, d(i, j, k, l) =
    -d(k, j, i, l) and d(i, j, i, l) = 0, so the first witness in C order
    has k > i and slab i takes only k > i; otherwise it takes every k.
    When N is moreover symmetric in all three indices (every N[i] a
    symmetric matrix, as in Hadamard rings and f2_tensor), N[i] N[k] =
    (N[k] N[i])^T, so one product Q[k] = N[k] N[i] per chunk gives
    d(i, j, k, l) = Q[k, l, j] - Q[k, j, l]: nonzero where Q[k] is not
    symmetric (mod modulus)."""
    n = A.shape[0]
    commutative = np.array_equal(A, A.transpose(1, 0, 2))
    symmetric = commutative and np.array_equal(A, A.transpose(0, 2, 1))
    T = A if commutative else np.ascontiguousarray(A.transpose(1, 0, 2))
    step = max(1, 2 ** 20 // (n * n))
    for i in range(stop):
        lo = i + 1 if commutative else 0
        best = None
        for k0 in range(lo, n, step):
            Tk = T[k0:k0 + step]
            # Q[k] = T[k] N[i], one BLAS product over the rows (k, j)
            Q = (Tk.reshape(-1, n) @ A[i]).reshape(Tk.shape)
            if symmetric:
                if modulus is not None:     # sums in [0, 2^mantissa): exact
                    floor_mod(Q, modulus)
                bad = Q != Q.transpose(0, 2, 1)
            else:
                bad = np.matmul(A[i], Tk)               # bad[k - k0, j, l]
                bad -= Q
                if modulus is not None:
                    floor_mod(bad, modulus)
            del Q
            if bad.any():
                at = np.flatnonzero(bad.transpose(1, 0, 2))[0]
                j, k, l = np.unravel_index(at, (n, len(Tk), n))
                w = (int(j), int(k) + k0, int(l))
                best = w if best is None else min(best, w)
            del bad
        if best is not None:
            return (i,) + best
    return None


def verify_axioms(ring):
    """Check, in order: commutativity, associativity, involution
    compatibility, identity existence, e~ = e, duality tau(b~_i b_j) = d_ij."""
    rep = VerifyReport()
    N = ring.N
    n = ring.n
    tl = list(ring.tilde)

    w = _noncommuting(N)
    rep.add("commutativity", w is None, w)

    # regular-representation identity: (b_i b_j) b_k = b_i (b_j b_k)
    w = assoc_witness(N, None)
    rep.add("associativity", w is None, w)

    w = _first_mismatch(N[np.ix_(tl, tl, tl)], N)
    rep.add("involution compatibility", w is None, w)

    try:
        e = ring.eCoeffs
        rep.add("identity existence", True)
    except RingError as exc:
        rep.add("identity existence", False, str(exc))
        rep.add("e~ = e", False, "no identity")
        rep.add("duality", False, "no identity")
        return rep

    # e is rational (N is integral), so e = num / den and conj(e) = e
    den = lcm(*(c.rational_value().denominator for c in e))
    num = np.array([int(c.rational_value() * den) for c in e], dtype=object)
    w = next((i for i in range(n) if num[i] != num[tl[i]]), None)
    rep.add("e~ = e", w is None, w)

    # tau(b~_i b_j) = sum_m conj(e_m) N[~i, j, m] = delta_ij; den = sum_i
    # N_i00 num_i (e's certificate) is within the product's bound, so
    # t.dtype holds it
    t = int_matmul(N, num)[tl]
    w = _first_mismatch(t, den * np.eye(n, dtype=t.dtype))
    rep.add("duality", w is None, w)
    return rep


def _involutive_permutations(n):
    """All permutations p with p(p(i)) = i, as tuples: the least index left
    is fixed first, then paired with each larger one in turn."""
    p = list(range(n))

    def build(rest):
        if not rest:
            yield tuple(p)
            return
        i = rest[0]
        for partner in rest:
            p[i], p[partner] = partner, i
            yield from build([x for x in rest[1:] if x != partner])
    return build(list(range(n)))


def search_involution(n, N):
    """Factorial search (n <= 12) over involutive permutations for a tilde
    making all axioms pass.  Returns (tilde, report) or None."""
    if n > 12:
        raise RingError("involution search limited to n <= 12")
    N = np.asarray(N, dtype=np.int64)
    for cand in _involutive_permutations(n):
        ring = FusionRing(n, N, cand)
        rep = verify_axioms(ring)
        if rep.all_pass:
            return cand, rep
    return None


def is_closed_subset(ring, S):
    S = sorted(set(S))
    if not S or S[0] < 0 or S[-1] >= ring.n:
        raise RingError("S must be a nonempty subset of the basis")
    comp = [m for m in range(ring.n) if m not in set(S)]
    if not comp:
        return True
    return not np.any(ring.N[np.ix_(S, S, comp)])


# ---------------------------------------------------------------------------
# text format
#   zbrng 1 / n <n> / involution p_0 .. p_{n-1} / n blocks "N <i>" each with
#   n lines of n integers (row j, column m); ring_lines writes it

_INT64_MAX = np.iinfo(np.int64).max


def ring_blocks(N):
    """The n blocks "N i" of the text format, as lines, formatted one n x n
    block at a time: each distinct value of a block is turned into a string
    once and the rows are joined from that table."""
    for i, block in enumerate(N):
        yield "N %d" % i
        # return_counts keeps np.unique on its sort path (one plain sort),
        # which does not import numpy.ma and beats return_inverse here; the
        # sort runs on an int64 copy, which numpy sorts faster than int8
        values = np.unique(block.astype(np.int64, copy=False),
                           return_counts=True)[0]
        table = np.array([str(v) for v in values.tolist()], dtype=object)
        cells = table[np.searchsorted(values, block)]
        yield from map(" ".join, cells.tolist())


def ring_lines(N, tilde=None):
    """The text of N, a newline-ended line at a time: the header, the
    involution line when tilde is given, then the blocks."""
    yield "zbrng 1\nn %d\n" % len(N)
    if tilde is not None:
        yield "involution %s\n" % " ".join(map(str, tilde))
    yield from (ln + "\n" for ln in ring_blocks(N))


def ring_from_text(text):
    """The ring of a text; error messages give physical line numbers,
    blank lines included.  Each block is parsed in int64 and stored in N,
    which starts in int8 and is widened to the narrow_dtype of the first
    block that needs it."""
    stripped = [ln.strip() for ln in text.splitlines()]
    numbers = [no for no, ln in enumerate(stripped, 1) if ln]
    lines = [ln for ln in stripped if ln]
    if not lines or lines[0] != "zbrng 1":
        raise FormatError("missing 'zbrng 1' header")
    try:
        if not lines[1].startswith("n "):
            raise FormatError("missing size line")
        n = int(lines[1].split()[1])
        if n < 1:
            raise FormatError("ring order %d below 1" % n)
        if n > MAX_RING:
            raise FormatError("ring order %d above %d" % (n, MAX_RING))
        if not lines[2].startswith("involution"):
            raise FormatError("missing involution line")
        tilde = [int(t) for t in lines[2].split()[1:]]
        if len(tilde) != n:
            raise FormatError("involution length != n")
        N, top = np.zeros((n, n, n), dtype=np.int8), 127
        for i in range(n):
            at = 3 + i * (n + 1)
            if lines[at] != "N %d" % i:
                raise FormatError("expected 'N %d' at line %d"
                                  % (i, numbers[at]))
            block = _block(lines, numbers, at + 1, n)
            big = _maxabs(block)
            if big > top:
                N = N.astype(narrow_dtype(big))
                top = np.iinfo(N.dtype).max
            N[i] = block
        if 3 + n * (n + 1) != len(lines):
            raise FormatError("trailing content")
    except (IndexError, ValueError, OverflowError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError("malformed ring file: %s" % exc) from exc
    return ring_from_tensor(n, N, tilde)


def _block(lines, numbers, at, n):
    """lines[at:at + n] as an n x n int64 array; numbers[k] is the line
    number of lines[k].

    A block of n lines with n - 1 spaces each, no tab, no "+", and every "-"
    opening a token longer than the sign, is converted in one np.fromstring
    call.  No line then has more than n tokens, and each token gives at most
    one value, after which the call stops or raises unless the token is an
    integer; so n^2 values are n^2 integers, n to a line.  The call
    saturates past int64, so a block holding an int64 bound is read again,
    as is any other block: row by row, which raises at the first row that
    is missing, not integers or not of length n."""
    rows = lines[at:at + n]
    text = " %s " % " ".join(rows)
    if (len(rows) == n and all(ln.count(" ") == n - 1 for ln in rows)
            and "\t" not in text and "+" not in text and "- " not in text
            and text.count("-") == text.count(" -")):
        try:
            block = np.fromstring(text, np.int64, sep=" ")
        except ValueError:
            block = None
        if (block is not None and block.size == n * n
                and -_INT64_MAX < block.min() and block.max() < _INT64_MAX):
            return block.reshape(n, n)
    block = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        row = [int(v) for v in lines[at + j].split()]
        if len(row) != n:
            raise FormatError("row length != n at line %d" % numbers[at + j])
        block[j] = row
    return block
