"""Based rings from structure constants alone: identity and trace recovery,
axiom verification, products, closed subsets, involution search, text
format.

Convention: b_i b_j = sum_m N[i,j,m] b_m with an integer tensor N, an
involutive basis permutation tilde, and an identity e that in general only
exists in the complexification (its coefficients are rational here since N
is integral).
"""

import re
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm

import numpy as np

from .exact import (CycArray, CycNum, _maxabs, _slab, float_tier, floor_mod,
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
    w = _asymmetry(N, (1, 0, 2))
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


def _asymmetry(N, axes):
    """The first index in C order at which N and N.transpose(axes) differ,
    or None; compared a slab of 2^18 entries at a time, so no n^3 mask is
    formed."""
    T = N.transpose(axes)
    step = _slab(N[0].size)
    for lo in range(0, len(N), step):
        w = _first_mismatch(N[lo:lo + step], T[lo:lo + step])
        if w is not None:
            return (w[0] + lo,) + w[1:]
    return None


def assoc_witness(N, modulus):
    """First (i, j, k, l) in C order at which (b_i b_j) b_k and b_i (b_j b_k)
    differ in coefficient l (mod modulus unless it is None), or None.  Works
    in slabs of i, so memory is O(n^3).  Every sum is bounded by
    max|N|^2 * n, whose float_tier is the pass; every partial sum is then
    an integer the dtype holds exactly, and a nonzero difference of two
    such sums cannot round to 0.  From 2^53 on (no modulus) the difference,
    at most 2 max|N|^2 n in size, is zero exactly when it is zero modulo
    the first primes(1, n), whose product exceeds it: one pass each, in the
    float_tier of n (p - 1)^2, the witness the first index nonzero modulo
    any of them.  N keeps its dtype: a modulus reduces it in the narrowest
    dtype holding both (int_mod), and each pass converts it to its float
    dtype once."""
    N = np.asarray(N)
    if modulus is not None:
        N = int_mod(N, modulus)
    n = N.shape[0]
    bound = _maxabs(N) ** 2 * n
    dtype = float_tier(bound)
    if dtype is not None:
        return _assoc_scan(N.astype(dtype), modulus, n)
    if modulus is not None:
        raise ValueError("modulus too large: (modulus-1)^2 * n >= 2^53")
    best, product = None, 1
    for p in primes(1, n):
        stop = n if best is None else best[0] + 1
        w = _assoc_scan(int_mod(N, p).astype(float_tier(n * (p - 1) ** 2)),
                        p, stop)
        best = min((x for x in (best, w) if x is not None), default=None)
        product *= p
        if product > 2 * bound:
            return best


def _assoc_scan(A, modulus, stop):
    """assoc_witness on an exact float32 or float64 tensor, over i < stop,
    residues mod p reduced in place.

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
    commutative = _asymmetry(A, (1, 0, 2)) is None
    symmetric = commutative and _asymmetry(A, (0, 2, 1)) is None
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

    w = _asymmetry(N, (1, 0, 2))
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

# The writer formats a slab of about 2^14 constants at a time.
_TEXT_SLAB = 2 ** 14


def _ascii(texts):
    """The strings texts as one fixed-width bytes array, as wide as the
    longest."""
    return np.array(list(texts), dtype="S")


def _sizes(cells):
    """The length of each cell of the 1-D bytes array cells, counted on the
    bytes a column at a time (cells are padded with NULs on the right), as
    importing numpy.char would cost every process that writes a table a
    quarter of a MB, and numpy reduces the short rows of a bytes array one
    at a time."""
    raw = np.ascontiguousarray(cells).view(np.uint8).reshape(len(cells), -1)
    return sum(col != 0 for col in raw.T)


def _joined(heads, tails):
    """heads[c] + tails[c] for each cell c of two 1-D bytes arrays of one
    length, written on the bytes: byte k of tails[c] at len(heads[c]) + k."""
    out = heads.astype("S%d" % (heads.itemsize + tails.itemsize))
    flat = out.view(np.uint8).reshape(len(out), -1)
    at = np.arange(len(out)), _sizes(heads)
    raw = np.ascontiguousarray(tails).view(np.uint8).reshape(len(tails), -1)
    for k, col in enumerate(raw.T):
        flat[at[0], at[1] + k] = col
    return out


def _terminated(cells):
    """The tokens "cell " then "cell\n" of the 1-D bytes array cells, in one
    array as wide as the longest token: a row's last token is read from the
    second half."""
    size = _sizes(cells)
    w = int(size.max())
    tok = np.concatenate([cells.astype("S%d" % (w + 1))] * 2)
    at = np.arange(0, len(cells) * (w + 1), w + 1) + size
    flat = tok.view(np.uint8)
    flat[at] = ord(" ")
    flat[at + len(cells) * (w + 1)] = ord("\n")
    return tok


def _slab_text(tok, idx):
    """The text of the tokens tok[idx], padding stripped: the one gather
    behind the ring, s-matrix and lift writers."""
    return tok.take(idx).tobytes().translate(None, b"\0").decode("ascii")


def grid_text(cells, ids):
    """The rows of the table cells[ids] (an int array of ids into the list
    of strings cells), each cell followed by a space, the last of a row by
    a newline; each cell is formatted once however often it occurs."""
    idx = ids.astype(np.intp)
    idx[..., -1] += len(cells)
    return _slab_text(_terminated(_ascii(cells)), idx)


def ring_blocks(N):
    """The n blocks "N i" of the text format, newline-ended, one str per
    slab of whole blocks (at least one block, about _TEXT_SLAB constants).
    Each distinct value of a slab is formatted once, as "v " and "v\n", and
    the block headers are cut into tokens of the same width, so a slab is
    one gather of fixed-width tokens."""
    n = len(N)
    step = max(1, _TEXT_SLAB // (n * n))
    for lo in range(0, n, step):
        # return_counts keeps np.unique on its sort path (one plain sort),
        # which does not import numpy.ma; the sort runs on an int64 copy,
        # which numpy sorts faster than int8
        slab = N[lo:lo + step].astype(np.int64, copy=False)
        values = np.unique(slab, return_counts=True)[0]
        tok = _terminated(_ascii(map(str, values.tolist())))
        # each header "N i\n", padded, as k tokens of tok's width
        heads = _ascii("N %d\n" % i for i in range(lo, lo + len(slab)))
        k = -(-heads.itemsize // tok.itemsize)
        heads = np.frombuffer(heads.astype("S%d" % (k * tok.itemsize)),
                              dtype=tok.dtype)
        # row b of idx: block lo + b's header, then its n^2 constants
        idx = np.empty((len(slab), k + n * n), dtype=np.intp)
        idx[:, :k] = np.arange(len(tok), len(tok) + heads.size).reshape(-1, k)
        idx[:, k:] = np.searchsorted(values, slab).reshape(len(slab), -1)
        del slab
        idx[:, k + n - 1::n] += len(values)
        yield _slab_text(np.concatenate([tok, heads]), idx)


def ring_lines(N, tilde=None):
    """The text of N in newline-ended pieces: the header, the involution
    line when tilde is given, then the blocks a slab at a time."""
    yield "zbrng 1\nn %d\n" % len(N)
    if tilde is not None:
        yield "involution %s\n" % " ".join(map(str, tilde))
    yield from ring_blocks(N)


def nonblank_lines(text):
    """(number, stripped line) for each nonblank line of text: the lines and
    numbers of text.splitlines(), made a run up to the next "\n" at a time,
    so that no list of every line is built."""
    no = pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        parts = text[pos:end].splitlines()
        for k, ln in enumerate(parts, no + 1):
            ln = ln.strip()
            if ln:
                yield k, ln
        no += len(parts)
        pos = end


# the header lines exactly as ring_lines writes them, with numbers of at
# most 9 digits (any longer one is left to the line reader's errors)
_RING_HEAD = re.compile(
    r"zbrng 1\nn ([0-9]{1,9})\ninvolution((?: [0-9]{1,9})*)\n")


def ring_from_text(text):
    """The ring of a text.  Text as ring_lines writes it is read block by
    block in place (_ring_grid); any other text from the start, line by
    line (_ring_rows), which raises at the first line out of format with
    its physical line number, blank lines included."""
    got = _ring_grid(text)
    if got is None:
        try:
            got = _ring_rows(text)
        except StopIteration as exc:
            # too few lines: the message callers match, that of indexing a
            # list of the lines past its end
            raise FormatError("malformed ring file: list index out of range"
                              ) from exc
        except (IndexError, ValueError, OverflowError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError("malformed ring file: %s" % exc) from exc
    return ring_from_tensor(*got)


def _widened(N, block):
    """N, or N in the narrow_dtype of block when block does not fit N's
    dtype: N starts in int8 and is widened at the first block that needs
    it."""
    big = _maxabs(block)
    if big > np.iinfo(N.dtype).max:
        N = N.astype(narrow_dtype(big))
    return N


def _ring_grid(text):
    """(n, N, tilde) when text holds the header lines as ring_lines writes
    them and then n blocks "N i" of n rows that int_grid takes, each line
    ended by "\n" (the last by the end of the text too); else None.  Block
    i ends where "N i+1" starts, looked for only as far as n^2 tokens of 20
    characters and their separators reach (a longer block is left to the
    line reader), the last at the text's end."""
    m = _RING_HEAD.match(text)
    if m is None:
        return None
    n, tilde = int(m[1]), [int(t) for t in m[2].split()]
    if not 1 <= n <= MAX_RING or len(tilde) != n:
        return None
    N, pos = np.zeros((n, n, n), dtype=np.int8), m.end()
    for i in range(n):
        head = "N %d\n" % i
        if not text.startswith(head, pos):
            return None
        start = pos + len(head)
        if i + 1 < n:
            after = "\nN %d\n" % (i + 1)
            pos = text.find(after, start, start + 21 * n * n + len(after))
            if pos < 0:
                return None
        else:
            pos = len(text) - text.endswith("\n")
        block = int_grid(text[start:pos], n, n)
        if block is None:
            return None
        N = _widened(N, block)
        N[i] = block
        pos += 1
    return n, N, tilde


def _ring_rows(text):
    """(n, N, tilde) read one nonblank line at a time (nonblank_lines),
    raising at the first line out of format; next() raises StopIteration
    when the text has too few lines.  The n rows of a block are parsed as
    one grid (int_grid) when it takes them, else by _int_rows."""
    lines = nonblank_lines(text)
    first = next(lines, None)
    if first is None or first[1] != "zbrng 1":
        raise FormatError("missing 'zbrng 1' header")
    size = next(lines)[1]
    if not size.startswith("n "):
        raise FormatError("missing size line")
    n = int(size.split()[1])
    if n < 1:
        raise FormatError("ring order %d below 1" % n)
    if n > MAX_RING:
        raise FormatError("ring order %d above %d" % (n, MAX_RING))
    line = next(lines)[1]
    if not line.startswith("involution"):
        raise FormatError("missing involution line")
    tilde = [int(t) for t in line.split()[1:]]
    if len(tilde) != n:
        raise FormatError("involution length != n")
    N = np.zeros((n, n, n), dtype=np.int8)
    for i in range(n):
        no, line = next(lines)
        if line != "N %d" % i:
            raise FormatError("expected 'N %d' at line %d" % (i, no))
        rows = list(islice(lines, n))
        block = int_grid("\n".join(ln for _, ln in rows), n, n)
        if block is None:
            block = _int_rows(rows, n)
        N = _widened(N, block)
        N[i] = block
    if next(lines, None) is not None:
        raise FormatError("trailing content")
    return n, N, tilde


def _int_rows(rows, n):
    """The n x n int64 block of the (number, line) pairs rows, one int() per
    token, raising at the first row that is not n integers, or the
    IndexError of rows[j] when there are fewer than n rows."""
    block = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        no, line = rows[j]
        row = [int(v) for v in line.split()]
        if len(row) != n:
            raise FormatError("row length != n at line %d" % no)
        block[j] = row
    return block


def int_grid(text, rows, cols):
    """text as a rows x cols int64 array when it is exactly that: rows
    lines joined by "\n" (no newline after the last), each of cols tokens
    -?[0-9]+ joined by single spaces, every value strictly inside the int64
    bounds; else None, and the caller reads the text line by line.

    The counts decide: the text holds only digits, "-", " " and "\n", and
    every "-" opens a token and is followed by a digit (np.fromstring would
    stop at any other "-", with a DeprecationWarning, and raises ValueError
    at a lone one), so every token gives one value.  rows * cols values
    from rows * cols - 1 separators then leave no separator doubled or at
    either end, and every cols-th separator, and no other, is a newline.
    np.fromstring saturates past int64, so a grid holding an int64 bound is
    left to the line reader, which reads it exactly or raises."""
    if not text.isascii():
        return None
    b = text.encode("ascii")
    if (not b or b.translate(None, b"0123456789- \n")
            or b.count(b"\n") != rows - 1):
        return None
    a = np.frombuffer(b, dtype=np.uint8)
    sep = (a <= 32).nonzero()[0]
    if (len(sep) != rows * cols - 1 or a[-1] <= 45
            or (a[sep[cols - 1::cols]] != 10).any()):
        return None
    minus = (a == 45).nonzero()[0]
    if len(minus) and ((a[minus[int(minus[0] == 0):] - 1] > 32).any()
                       or (a[minus + 1] < 48).any()):
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")
    if (values.size != rows * cols or values.min() <= -_INT64_MAX
            or values.max() >= _INT64_MAX):
        return None
    return values.reshape(rows, cols)
