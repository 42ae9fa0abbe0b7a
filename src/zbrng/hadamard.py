"""Hadamard matrix pipeline: the associated ring with b_i^2 = k b_0,
profiles and their mod-8 congruence, xi-sets, closed subsets, W-matrices,
exact and mod-3 reconstruction of the matrix from the tensor, the dimension
4k algebra over GF(2), v-matrix rank, and an equivalence screen.

Indices are 0-based throughout; column 0 is the all-ones column.
"""

from math import comb

import numpy as np

from .exact import (_slab, float_tier, int_matmul, int_mod, matmul_mod,
                    narrow_dtype, primes, row_keys, rref_mod)
from .rng_core import (MAX_RING, FormatError, _asymmetry, assoc_witness,
                       is_closed_subset, nonblank_lines, ring_from_tensor)


class HadamardError(ValueError):
    pass


class PreconditionError(HadamardError):
    """The order of the input is outside the command's domain: bad input,
    not a failed verification."""


class HadamardMatrix:
    """Normalized +-1 matrix of order n = 4k with orthogonal rows and
    all-ones first column."""

    def __init__(self, array):
        self.array = array
        self.n = array.shape[0]
        self.k = self.n // 4


def normalize_hadamard(M):
    """Negate rows whose first entry is -1; column order preserved."""
    a = np.asarray(M, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HadamardError("not square")
    n = a.shape[0]
    if not np.all(np.abs(a) == 1):
        raise HadamardError("entries not +-1")
    if n % 4 != 0:
        raise HadamardError("order not divisible by 4")
    if not np.array_equal(int_matmul(a, a.T), n * np.eye(n, dtype=np.int64)):
        raise HadamardError("not orthogonal")
    a = a * a[:, :1]
    return HadamardMatrix(a)


def xi_sets(H):
    """xi_i = rows where column i is -1; |xi_0| = 0, |xi_i| = 2k."""
    a = H.array
    return [frozenset(int(j) for j in np.nonzero(a[:, i] == -1)[0])
            for i in range(H.n)]


def triple_slabs(a):
    """T[i, j, m] = sum_l a_li a_lj a_lm for an integer matrix with entries
    in {-1, 0, 1}, as (lo, T[lo:hi]) for slabs of 2^18 // n^2 (at least
    one) values of i: each one BLAS product of the pair columns a_i a_j, i
    in the slab, with a, in the float_tier of len(a), as every sum has at
    most len(a) unit terms: float32 below 2^24 rows.  Orders up to 64 take
    one product; up to 512 the pair matrix and T[lo:hi] of a square a hold
    at most 2^18 entries (1 MB in float32) each."""
    rows, n = np.shape(a)
    f = np.asarray(a, dtype=float_tier(rows))
    step = max(1, 2 ** 18 // n ** 2)
    for lo in range(0, n, step):
        pairs = (f[:, lo:lo + step, None] * f[:, None, :]).reshape(rows, -1)
        T = pairs.T @ f
        del pairs                       # before the caller holds T
        yield lo, T.reshape(-1, n, n)


def ring_from_hadamard(H):
    """Tensor N_ij^m = (1/4) sum_l s_li s_lj s_lm; tilde = identity.
    PreconditionError above order MAX_RING, before the n^3 tensor exists.
    |N| <= n // 4 (a sum of n unit terms, divisible by 4), so N is stored
    in narrow_dtype(n // 4): int8 up to order 508.  It is filled a slab of
    triple_slabs at a time, each slab cast to int16 (|T| <= n <= 512),
    checked mod 4 and shifted."""
    if H.n > MAX_RING:
        raise PreconditionError("ring order %d above %d" % (H.n, MAX_RING))
    N = np.empty((H.n,) * 3, dtype=narrow_dtype(H.n // 4))
    for lo, T in triple_slabs(H.array):
        slab = T.astype(np.int16)
        if np.any(slab & 3):        # mod 4 in int16: float32 % is 10x slower
            raise HadamardError("non-integral structure constants "
                                "(corrupt input)")
        slab >>= 2
        N[lo:lo + len(slab)] = slab
    return ring_from_tensor(H.n, N, tuple(range(H.n)))


class Profile:
    """Counts of p = |sum_q s_qi s_qj s_ql s_qm| over 4-column subsets."""

    def __init__(self, counts, n, k):
        self.counts = counts
        self.n = n
        self.k = k

    def total(self):
        return sum(self.counts.values())


def profile(H):
    """Counts of |sum_q s_qi s_qj s_ql s_qm| over the column quadruples
    i < j < l < m.  Each is the inner product of the pair columns (i, j) and
    (l, m); for each j one BLAS block takes the pairs (i, j), i < j, against
    the pairs (l, m), l > j, a suffix of the pairs in combinations order.
    The sums are at most n in size, so the pair columns are held in
    float_tier(n) across the blocks (not int_matmul, which would convert
    them once a block).  Raises on a value not congruent to 4k mod 8 at the
    lexicographically first such quadruple."""
    a = H.array
    n, k = H.n, H.k
    I, J = np.triu_indices(n, 1)                # combinations order
    pmat = (a.T[I] * a.T[J]).astype(float_tier(n))  # row t: pair t
    start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    bad = (np.arange(n + 1) - 4 * k) % 8 != 0
    counts = np.zeros(n + 1, dtype=np.int64)
    witness = None
    for j in range(1, n - 2):
        # the pairs (i, j) for i < j sit at start[i] + j - i - 1
        left = pmat[start[:j] + j - np.arange(j) - 1]
        block = np.abs(left @ pmat[start[j + 1]:].T).astype(np.int64)
        c = np.bincount(block.ravel(), minlength=n + 1)
        counts += c
        if c[bad].any():
            hit = bad[block]
            i, t = np.unravel_index(np.argmax(hit), hit.shape)
            t += start[j + 1]
            quad = (int(i), j, int(I[t]), int(J[t]))
            witness = quad if witness is None else min(witness, quad)
    if witness is not None:
        raise HadamardError(
            "profile congruence violation at columns (%d,%d,%d,%d)" % witness)
    prof = Profile({p: c for p, c in enumerate(counts.tolist()) if c}, n, k)
    if prof.total() != comb(n, 4):
        raise HadamardError("profile does not cover every quadruple once")
    return prof


def triangular_bound(k):
    """Partitions of the (k-3)/2-th triangular number into nonzero
    triangular numbers; bounds the census size for odd k."""
    if k % 2 == 0:
        raise PreconditionError("k must be odd")
    if k < 3:
        raise PreconditionError("k must be >= 3")
    j = (k - 3) // 2
    target = j * (j + 1) // 2
    parts = [t * (t + 1) // 2 for t in range(1, j + 1)]
    ways = [1] + [0] * target
    for part in parts:
        for v in range(part, target + 1):
            ways[v] += ways[v - part]
    return ways[target]


def multiset_census(ring):
    """Distinct multisets {|N_ij^m| : m not in {0,i,j}} over pairs of
    distinct nonzero i, j, encoded as count vectors indexed by value."""
    N, n = ring.N, ring.n
    k = int(N[0, 0, 0])
    I, J = np.triu_indices(n - 1, 1)
    I, J = I + 1, J + 1
    rows = np.arange(len(I))
    V = N[I, J].astype(np.int64)        # k + 1 and the offsets need room
    np.abs(V, out=V)
    V[:, 0] = V[rows, I] = V[rows, J] = k       # m in {0, i, j}: never > k
    if np.any(V > k):
        raise HadamardError("entry exceeds k")
    V[:, 0] = V[rows, I] = V[rows, J] = k + 1   # a value the counts drop
    width = k + 2
    V += rows[:, None] * width
    counts = np.bincount(V.ravel(), minlength=len(I) * width).reshape(-1, width)
    out = set(map(tuple, counts[:, :-1].tolist()))
    if k % 2 and k >= 3 and len(out) > triangular_bound(k):
        raise HadamardError("census exceeds triangular bound")
    return out


def census_values(entry):
    """Decode a count vector to a descending value tuple."""
    return tuple(v for v in range(len(entry) - 1, -1, -1)
                 for _ in range(entry[v]))


def had_closed_subsets(ring):
    """For odd k: the 4k subsets {0} and {0,i} plus the full set, each
    re-verified; also checks no triple {0,i,j} is closed."""
    n = ring.n
    k = int(ring.N[0, 0, 0])
    if k % 2 == 0:
        raise PreconditionError("k must be odd")
    sets = [(0,)] + [(0, i) for i in range(1, n)] + [tuple(range(n))]
    for S in sets:
        if not is_closed_subset(ring, S):
            raise HadamardError("verification failure: %r not closed" % (S,))
    for i in range(1, n):
        for j in range(i + 1, n):
            if is_closed_subset(ring, (0, i, j)):
                raise HadamardError(
                    "verification failure: triple (0,%d,%d) closed" % (i, j))
    return sets


def wmatrix(ring, i):
    """[[A+I, A-I], [A-I, -A-I]] with A = N_i minus rows/columns 0 and i;
    size 8k-4, orthogonal rows of norm 2k^2+2, no zero entries."""
    if i == 0:
        raise HadamardError("i must be nonzero")
    if not 0 < i < ring.n:
        raise HadamardError("i out of range")
    N = ring.N
    k = int(N[0, 0, 0])
    keep = [j for j in range(ring.n) if j not in (0, i)]
    A = N[i][np.ix_(keep, keep)]
    eye = np.eye(len(keep), dtype=np.int64)
    W = np.block([[A + eye, A - eye], [A - eye, -A - eye]])
    want = (2 * k * k + 2) * np.eye(W.shape[0], dtype=np.int64)
    if not np.array_equal(int_matmul(W, W.T), want):
        raise HadamardError("orthogonality failure")
    if np.any(W == 0):
        raise HadamardError("orthogonality failure: zero entry")
    return W


# ---------------------------------------------------------------------------
# reconstruction

def hadamard_type(ring):
    """k of a ring of Hadamard type: tilde = identity, b_i^2 = k b_0 with
    k >= 1 and N_0 = k I.  Raises PreconditionError otherwise: the ring is
    outside the domain of the +-k splitting."""
    N, n = ring.N, ring.n
    if list(ring.tilde) != list(range(n)):
        raise PreconditionError("tilde must be identity")
    k = int(N[0, 0, 0])
    want = np.zeros(n, dtype=np.int64)
    want[0] = k
    if k < 1 or any(not np.array_equal(N[i, i], want) for i in range(n)):
        raise PreconditionError("b_i^2 != k b_0")
    if not np.array_equal(N[0], k * np.eye(n, dtype=np.int64)):
        raise PreconditionError("N_0 != k I")
    return k


def split_pm(N, k, p):
    """Common-eigenspace splitting over GF(p) of the commuting matrices
    M_i = N_i^T with eigenvalues +-k, for an odd prime p not dividing k and
    at most the primes(1, n) (matmul_mod sums n terms).  Each space is a
    basis B in reduced row echelon form, so a vector of its span has its
    coordinates at the pivots: M_i maps the span into itself exactly when
    img = A B with A = img[:, pivots], and then acts as A on coordinates.
    A has only eigenvalues +-k, each space of eigenvectors spanned, exactly
    when rank(A + k I) + rank(A - k I) = dim B; the row spaces of A + k I
    and A - k I are then those spaces, and their reduced forms times B are
    reduced bases again.  Returns the sign rows (+1 where the character is
    k, -1 where it is -k mod p), sorted."""
    n, kp = N.shape[0], k % p
    spaces = [np.eye(n)]                    # one basis vector per row
    for i in range(n):
        if all(len(B) == 1 for B in spaces):
            break
        Ni = int_mod(N[i], p).astype(np.float64)
        nxt = []
        for B in spaces:
            if len(B) == 1:
                nxt.append(B)
                continue
            img = matmul_mod(B, Ni, p)          # row r: M_i applied to B[r]
            A = img[:, (B != 0).argmax(axis=1)]     # columns at the pivots
            if not np.array_equal(matmul_mod(A, B, p), img):
                raise HadamardError("non-+-k eigenvalue at basis %d" % i)
            eye = np.eye(len(B))
            if any(np.array_equal(A, e * eye) for e in (kp, p - kp)):
                nxt.append(B)                   # M_i is +-k on all of it
                continue
            halves = [rref_mod(A + e * eye, p) for e in (kp, -kp)]
            if sum(len(piv) for _, piv in halves) != len(B):
                raise HadamardError("non-+-k eigenvalue at basis %d" % i)
            nxt += [matmul_mod(R[:len(piv)], B, p) for R, piv in halves]
        spaces = nxt
    if any(len(B) != 1 for B in spaces):
        raise HadamardError("splitting stalls")

    # character i of eigenvector v, read at its pivot c, where v_c = 1:
    # (M_i v)_c = sum_j N_ijc v_j
    V = np.concatenate(spaces)
    chi = np.array([matmul_mod(int_mod(N[:, :, c], p), v, p)
                    for v, c in zip(V, (V != 0).argmax(axis=1))],
                   dtype=np.int64)
    signs = (chi == kp).astype(np.int64) - (chi == p - kp)
    bad = np.argwhere(signs == 0)
    if len(bad):
        raise HadamardError("non-+-k eigenvalue at basis %d" % bad[0][1])
    return signs[np.lexsort(signs.T[::-1])]


def _is_character_table(N, k, signs):
    """True iff the rows s = k * signs are n distinct characters over Z:
    s_ri s_rj = sum_m N_ijm s_rm for all r, i, j, or divided by k >= 1,
    k signs_ri signs_rj = sum_m N_ijm signs_rm.  Checked a slab of i at a
    time (2^18 // n^2 values, at least one), the right side one int_matmul
    with the slab of N."""
    n = len(signs)
    if len(np.unique(row_keys(signs, np.int64), return_index=True)[0]) != n:
        return False
    step = _slab(n * n)
    for lo in range(0, n, step):
        lhs = k * (signs[:, lo:lo + step, None] * signs[:, None, :])
        rhs = int_matmul(signs, N[lo:lo + step].reshape(-1, n).T)
        if not np.array_equal(lhs.reshape(n, -1), rhs):
            return False
    return True


def character_signs(ring):
    """(k, signs) for a ring of Hadamard type: its characters are the rows
    of k * signs, sorted.  split_pm runs at the primes(1, n) not dividing
    k, until _is_character_table holds.  A prime not dividing det(s / k),
    nonzero and at most n^(n/2) (Hadamard), splits a character table; so
    failure is reported once the failed primes multiply past that."""
    k = hadamard_type(ring)
    N, n, failed = ring.N, ring.n, 1
    for p in primes(1, n):
        if k % p == 0:
            continue
        try:
            signs = split_pm(N, k, p)
            if _is_character_table(N, k, signs):
                return k, signs
            raise HadamardError("rows fail the integer character check")
        except HadamardError:
            failed *= p
            if failed ** 2 > n ** n:
                raise


def reconstruct_exact(ring):
    """Recover the Hadamard matrix from its ring tensor, up to row
    permutation, by certified +-k eigenspace splitting."""
    hadamard_type(ring)             # its refusals come before the order's
    if ring.n % 4:
        raise PreconditionError("order not divisible by 4")
    return normalize_hadamard(character_signs(ring)[1])


def reconstruct_mod3(N, k):
    """The splitting over GF(3), eigenvalues +-1 (valid when k = 1 mod 3);
    returns a +-1 sign matrix equal to the source matrix up to row
    permutation."""
    if len(N) % 4:
        raise PreconditionError("order not divisible by 4")
    if k % 3 != 1:
        raise PreconditionError("k must be 1 mod 3")
    return split_pm(N, 1, 3)


# ---------------------------------------------------------------------------
# the GF(2) algebra and the v-matrix

def f2_tensor(k):
    """4k-dimensional GF(2) tensor: N_ij^0 = N_0i^j = N_i0^j = delta_ij,
    N_ij^m = 1 for four distinct indices including 0, else 0."""
    if not 1 <= k <= 24:        # the check costs O(k^5): about 0.26 s at 24
        raise PreconditionError("k must be in 1..24")
    n = 4 * k
    i, j, m = np.ix_(*[np.arange(n)] * 3)
    N = ((i != 0) & (j != 0) & (m != 0) & (i != j) & (i != m)
         & (j != m)).astype(np.uint8)
    for t in range(n):
        N[t, t, 0] = 1
        N[0, t, t] = 1
        N[t, 0, t] = 1
    return N


def f2_algebra_check(k):
    """Commutativity and associativity of f2_tensor(k) over GF(2)."""
    N = f2_tensor(k)
    return _asymmetry(N, (1, 0, 2)) is None and assoc_witness(N, 2) is None


def v_rank(H):
    """Rank over GF(2) of v_ij = (1 - s_ij)/2 once the columns are scaled so
    that row 0 is all ones too; at most 4k-2."""
    a = H.array * H.array[0]
    r = len(rref_mod((1 - a) // 2, 2)[1])
    if r > H.n - 2:
        raise HadamardError("rank bound violated")
    return r


# ---------------------------------------------------------------------------
# equivalence screening

def _invariants(H):
    ring = ring_from_hadamard(H)
    prof = tuple(sorted(profile(H).counts.items()))
    census = tuple(sorted(multiset_census(ring)))
    rowsums = tuple(sorted(int(np.sum(np.abs(ring.N[i])))
                           for i in range(ring.n)))
    return prof, census, rowsums


def equiv_screen(H1, H2):
    """'inequivalent' when any canonical invariant, the order first, differs,
    else 'indistinguishable' (no completeness claim)."""
    if H1.n != H2.n or _invariants(H1) != _invariants(H2):
        return "inequivalent"
    return "indistinguishable"


# ---------------------------------------------------------------------------
# file format: '+'/'-' rows or whitespace-separated +-1 integers

def hadamard_from_text(text):
    """The +-1 matrix of a text of '+'/'-' rows, or of rows of +-1 integers
    separated by whitespace, as int64.  r rows of r signs, as
    hadamard_to_text writes them, are read as one byte array; any other text
    line by line (nonblank_lines), which gives every error its physical line
    number."""
    body = text[:-1] if text.endswith("\n") else text
    if body.isascii() and not body.encode("ascii").translate(None, b"+-\n"):
        # r rows of r signs: every (r + 1)-th character a newline
        r = body.count("\n") + 1
        a = np.frombuffer((body + "\n").encode("ascii"), dtype=np.uint8)
        if len(a) == r * (r + 1):
            a = a.reshape(r, r + 1)
            if np.all(a[:, r] == 10):
                return np.where(a[:, :r] == 43, 1, -1)
    rows = []
    for ln_no, s in nonblank_lines(text):
        if any(ch.isspace() for ch in s):
            try:
                row = [int(t) for t in s.split()]
            except ValueError as exc:
                raise FormatError("bad entry on line %d" % ln_no) from exc
            if any(x not in (1, -1) for x in row):
                raise FormatError("entries not +-1 on line %d" % ln_no)
        else:
            if any(ch not in "+-" for ch in s):
                raise FormatError("bad character on line %d" % ln_no)
            row = [1 if ch == "+" else -1 for ch in s]
        rows.append(row)
    if not rows:
        raise FormatError("empty matrix")
    if any(len(r) != len(rows) for r in rows):
        raise FormatError("matrix not square")
    return np.array(rows, dtype=np.int64)


def hadamard_to_text(H):
    """One '+'/'-' row per matrix row: '+' where the entry is 1, '-'
    elsewhere, built as one byte array."""
    a = H.array if isinstance(H, HadamardMatrix) else np.asarray(H)
    out = np.full((len(a), a.shape[1] + 1), ord("\n"), dtype=np.uint8)
    out[:, :-1] = np.where(a == 1, ord("+"), ord("-"))
    return out.tobytes().decode("ascii")
