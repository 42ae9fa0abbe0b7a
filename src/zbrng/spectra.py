"""s-matrix computations: Verlinde structure constants, orthogonality,
involution recovery, numeric diagonalization of a tensor, closed-subset
read-off and heuristic search, root-of-unity column classification.

Columns of an s-matrix are the basis images under the splitting isomorphism,
so the componentwise product of columns i and j decomposes over the columns
with coefficients N_ij^m.
"""

from functools import cached_property
from math import gcd, isqrt, lcm

import numpy as np

from .exact import (CycArray, ExactError, _fit, _maxabs, _slab, format_cyc,
                    int_dtype, lookup, parse_cyc, power_table, row_keys)
from .hadamard import PreconditionError, character_signs
from .rng_core import MAX_RING, FormatError, _widened, grid_text


class SpectraError(ValueError):
    pass


class SMatrix:
    """Square matrix held as `array`: a CycArray over Q(zeta_q) (exact; at
    q = 1 when every non-constant coefficient is zero) or a complex ndarray
    (numeric) of finite values.  Exact entries are interned: `ids[l, i]` is
    equal exactly when the entries are, and `conj_ids[ids[l, i]]` is the id
    of the conjugate entry; `rows` views them as CycNums, built once."""

    def __init__(self, array):
        if isinstance(array, CycArray):
            if not np.any(array.num[..., 1:]):
                array = CycArray(1, array.num[..., :1], array.den)
            self.mode = "exact"
            self.q = array.q
            self.n = array.num.shape[0]
            self.ids, self.conj_ids, self.zero_id = array.intern()
        else:
            if not np.all(np.isfinite(array)):
                raise SpectraError("non-finite entry")
            self.mode = "numeric"
            self.n = array.shape[0]
        self.array = array

    @classmethod
    def exact(cls, rows):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise SpectraError("s-matrix must be square")
        return cls(CycArray.from_rows(rows))

    @classmethod
    def numeric(cls, array):
        a = np.asarray(array, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise SpectraError("s-matrix must be square")
        return cls(a)

    def entry_ids(self, tol):
        """(ids, conj_ids, zero_id) as interned for an exact matrix: the one
        rule by which entries are equal.  Numeric entries, their conjugates
        and 0 are clustered: sorted by real part, split into bands where
        neighbours differ by more than tol * max(1, max|s|), and each band,
        sorted by imaginary part, split the same way.  Values within that
        distance share an id, and conjugation maps clusters onto clusters."""
        if self.mode == "exact":
            return self.ids, self.conj_ids, self.zero_id
        a = self.array
        eps = tol * max(1.0, float(np.max(np.abs(a))))
        v = np.concatenate([a.ravel(), a.conj().ravel(), [0]])
        band = np.empty(len(v), dtype=np.int64)
        order = np.argsort(v.real)
        x = v.real[order]
        band[order] = np.cumsum(np.diff(x, prepend=x[0]) > eps)
        order = np.lexsort((v.imag, band))
        b, x = band[order], v.imag[order]
        split = (np.diff(b, prepend=0) != 0) | (np.diff(x, prepend=x[0]) > eps)
        label = np.empty(len(v), dtype=np.int32)
        label[order] = np.cumsum(split)
        m = a.size
        conj_ids = np.empty(label[order[-1]] + 1, dtype=np.int32)
        conj_ids[label[:2 * m]] = np.roll(label[:2 * m], m)
        conj_ids[label[-1]] = label[-1]
        return label[:m].reshape(a.shape), conj_ids, int(label[-1])

    @cached_property
    def values(self):
        """One CycNum per interned id of an exact matrix, in id order."""
        first = np.unique(self.ids, return_index=True)[1]
        return [self.array.entry(*divmod(int(at), self.n)) for at in first]

    @cached_property
    def rows(self):
        values = self.values
        return [[values[k] for k in row] for row in self.ids.tolist()]

    def inverse(self, tol):
        """s^-1 in the type of `array`.  Numeric: np.linalg.inv after a
        singular-value guard scaled by tol.  Exact (tol unused): the Gram
        matrix G = s conj(s)^T is computed exactly first.  When it is
        diagonal with positive rational entries c_k (orthogonal rows, as
        for character tables and their exterior squares) the inverse is
        conj(s)^T diag(1/c_k), and G is its certificate; otherwise it is
        the certified modular inverse (CycArray.inverse)."""
        if self.mode == "numeric":
            sv = np.linalg.svd(self.array, compute_uv=False)
            if sv[-1] <= tol * max(1.0, sv[0]):
                raise SpectraError("singular matrix")
            return np.linalg.inv(self.array)
        inv = _orthogonal_inverse(self.array)
        if inv is not None:
            return inv
        try:
            return self.array.inverse()
        except ExactError as exc:
            raise SpectraError("singular matrix") from exc

    def to_numeric(self):
        if self.mode == "numeric":
            return self.array
        return self.array.embed()


def _orthogonal_inverse(a):
    """conj(a)^T diag(1/c_k) over its smallest common denominator when the
    exact Gram matrix a conj(a)^T is diag(c_k) with every c_k a positive
    rational, else None.  Then a times it is G diag(1/c_k) = I exactly,
    and a one-sided inverse of a square matrix is its inverse."""
    b = a.conj().T
    gram = (a @ b).num
    n = gram.shape[0]
    g = gram[..., 0].diagonal().tolist()
    # n nonzero entries, all on the diagonal and positive: G is diagonal
    if (np.any(gram[..., 1:] != 0) or np.count_nonzero(gram[..., 0]) != n
            or min(g) <= 0):
        return None
    # entry (l, k) is b[l, k] / c_k = b.num[l, k] * a.den / g_k, with
    # c_k = g_k / a.den^2; over L = lcm(g) column k is scaled by a.den L / g_k
    L = lcm(*g)
    scale = [a.den * L // c for c in g]
    dtype = int_dtype(_maxabs(b.num) * max(scale))
    num = b.num.astype(dtype) * np.array(scale, dtype=dtype)[:, None]
    h = gcd(L, int(np.gcd.reduce(num, axis=None)))
    return CycArray(a.q, _fit(num // h), L // h)


def unit_roots(q):
    """(Q, roots): the roots of unity of Q(zeta_q) are the powers of
    zeta_Q, Q = q for even q and 2q for odd q; row t of roots holds zeta_Q^t
    on the power basis."""
    if q % 2 == 0:
        return q, power_table(q)
    # q odd: zeta_2q^t = (-1)^t zeta_q^(t (q+1)/2)
    t = np.arange(2 * q)
    return 2 * q, (np.where(t % 2, -1, 1)[:, None]
                   * power_table(q)[t * (q + 1) // 2 % q])


def root_columns(s):
    """(T, M) for an exact s with every column of root-of-unity type:
    s[l, i] = M[l, i] * zeta_Q^T[l, i] (Q from unit_roots) with M a positive
    integer constant on each column.  The distinct entries v (one per
    interned id) are factored at once: mu^2 = v conj(v) must be the square
    of a positive integer, and v / mu a row of the table of unit_roots."""
    roots = unit_roots(s.q)[1]
    a = s.array
    phi = a.num.shape[-1]
    first = np.unique(s.ids, return_index=True)[1]
    v = CycArray(a.q, a.num.reshape(-1, phi)[first], a.den)
    sq, ok = (v * v.conj()).integers()
    sq = sq.tolist()
    mu = [isqrt(x) if x > 0 else 0 for x in sq]
    if not ok.all() or any(m == 0 or m * m != x for m, x in zip(mu, sq)):
        raise SpectraError("column not of root-of-unity type")
    scale = _fit(np.array([m * a.den for m in mu], dtype=object))[:, None]
    w = v.num // scale
    if np.any(v.num % scale) or _maxabs(w) > _maxabs(roots):
        raise SpectraError("column not of root-of-unity type")
    keys, idx = np.unique(row_keys(roots, np.int64), return_index=True)
    texp = lookup(keys, idx, row_keys(w, np.int64))
    if np.any(texp < 0):
        raise SpectraError("column not of root-of-unity type")
    mu_of = np.array(mu, dtype=object)
    T, M = texp[s.ids], mu_of[s.ids]
    if np.any(M != M[:1]):
        raise SpectraError("column not of root-of-unity type")
    return T, M


class VerlindeResult:
    """Integer tensor plus integrality/nonnegativity diagnostics."""

    def __init__(self, tensor, nonnegative, max_deviation, mode):
        self.tensor = tensor
        self.integral = True
        self.nonnegative = nonnegative
        self.max_deviation = max_deviation
        self.mode = mode


def _pair_products(inv, a, cols):
    """(I, J, inv @ (a[:, I] * a[:, J])) for the pairs I <= J of cols in C
    order, about n pairs (one n x n product) a slab: column k of the slab
    decomposes col_I[k] * col_J[k] on the rows of inv."""
    cols = np.asarray(cols, dtype=np.intp)
    r, c = np.triu_indices(len(cols))
    I, J = cols[r], cols[c]
    step = (a.num if isinstance(a, CycArray) else a).shape[0]
    for lo in range(0, len(I), step):
        i, j = I[lo:lo + step], J[lo:lo + step]
        yield i, j, inv @ (a[:, i] * a[:, j])


def verlinde_tensor(s, tol=1e-6):
    """N_ij^m = sum_l s_li s_lj s'_ml with s' = s^{-1}; errors at the first
    (i, j >= i, m) whose entry is not an integer (within tol in numeric
    mode); ValueError above order MAX_RING, before the n^3 tensor exists.
    N starts in int8 and is widened to the narrow_dtype of the first slab
    of constants that needs it (rng_core._widened), as the ring reader
    stores it."""
    n = s.n
    if n > MAX_RING:
        raise ValueError("ring order %d above %d" % (n, MAX_RING))
    N = np.zeros((n, n, n), dtype=np.int8)
    dev = 0.0
    for I, J, coeff in _pair_products(s.inverse(tol), s.array, range(n)):
        if isinstance(coeff, CycArray):
            vals, ok = coeff.integers()
        else:
            vals = np.round(coeff.real)
            if np.max(np.abs(vals)) >= 2.0 ** 63:
                raise OverflowError("structure constants exceed int64")
            off = np.abs(coeff - vals)
            ok = off <= tol
            dev = max(dev, float(np.max(off)))
        if not ok.all():
            k, m = np.argwhere(~ok.T)[0]
            raise SpectraError("non-integral structure constant at (%d,%d,%d)"
                               % (I[k], J[k], m))
        N = _widened(N, vals)
        N[I, J] = N[J, I] = vals.T
    return VerlindeResult(N, bool(np.all(N >= 0)), dev, s.mode)


def row_orthogonality_check(s, tilde, tol=1e-9):
    """sum_i s_li s_{m,~i} = 0 for l != m.  Returns (ok, max deviation)."""
    n = s.n
    tl = list(tilde)
    a = s.array
    g = a @ a[:, tl].T
    if s.mode == "exact":
        off = np.triu(g.is_nonzero(), 1)
        return (not off.any(),
                float(np.max(np.abs(g.embed()[off]), initial=0.0)))
    off = g - np.diag(np.diag(g))
    dev = float(np.max(np.abs(off))) if n > 1 else 0.0
    return dev <= tol, dev


def involution_from_smatrix(s, tol=1e-9):
    """The unique permutation with column ~i = conjugate of column i; the
    candidate must also give orthogonal rows, which rules out matrices that
    merely happen to be conjugation-stable (e.g. any real non-orthogonal
    matrix via the identity)."""
    n = s.n
    ids, conj_ids, _ = s.entry_ids(tol)
    keys, idx = np.unique(row_keys(ids.T, np.int32), return_index=True)
    if len(keys) != n:
        raise SpectraError("no conjugation permutation exists")
    perm = lookup(keys, idx, row_keys(conj_ids[ids].T, np.int32)).tolist()
    if sorted(perm) != list(range(n)):
        raise SpectraError("no conjugation permutation exists")
    if not row_orthogonality_check(s, perm, tol=tol)[0]:
        raise SpectraError("no conjugation permutation exists")
    return tuple(perm)


# ---------------------------------------------------------------------------
# s-matrix from a tensor

def smatrix_from_tensor(ring, tol=1e-8):
    """Characters of the ring as rows: the certified +-k path
    (hadamard.character_signs) for Hadamard-type tensors, else numeric.
    The eigenvectors of M_c = sum_j c_j N_j^T, c_j = e^(i(j+1)), are common
    eigenvectors of every N_j^T: the characters of an integer tensor are
    algebraic, so chi_r(c) != chi_s(c) for r != s (Lindemann-Weierstrass);
    eigenvalues within tol * max(1, max|lambda|) are refused.  Row r is read
    at the largest coordinate a of its eigenvector v, s_ri = sum_j N_ija v_j
    / v_a, and the rows are accepted once s_ri s_rj = sum_m N_ijm s_rm
    within 1e-6 max(1, max|s|^2).  N is read a slab of 2^18 entries at a
    time, never copied whole."""
    n, N = ring.n, ring.N
    try:
        k, signs = character_signs(ring)
    except PreconditionError:
        pass                                # not of Hadamard type: numeric
    else:
        return SMatrix(CycArray(1, (k * signs)[:, :, None], 1))

    step = _slab(n * n)
    c = np.exp(1j * np.arange(1, n + 1))
    mc = sum(c[lo:lo + step] @ N[lo:lo + step].reshape(-1, n * n)
             for lo in range(0, n, step))
    vals, V = np.linalg.eig(mc.reshape(n, n).T)
    gap = np.abs(vals[:, None] - vals)
    np.fill_diagonal(gap, np.inf)
    if gap.min() <= tol * max(1.0, float(np.max(np.abs(vals)))):
        raise SpectraError("splitting failed")
    a = np.abs(V).argmax(axis=0)
    V = V / V[a, np.arange(n)]
    rows = np.concatenate([np.einsum("ijr,jr->ri", N[lo:lo + step][:, :, a],
                                     V) for lo in range(0, n, step)], axis=1)

    # s_ri s_rj = sum_m N_ijm s_rm, the right side one real product of the
    # stacked real and imaginary parts of s with the slab of N
    cutoff = 1e-6 * max(1.0, float(np.max(np.abs(rows))) ** 2)
    parts = np.concatenate([rows.real, rows.imag])
    for lo in range(0, n, step):
        rhs = parts @ N[lo:lo + step].reshape(-1, n).T.astype(np.float64)
        lhs = (rows[:, lo:lo + step, None] * rows[:, None]).reshape(n, -1)
        if np.max(np.abs(lhs - rhs[:n] - 1j * rhs[n:])) > cutoff:
            raise SpectraError("splitting failed")
    return SMatrix.numeric(rows[_row_order(rows)])


def _row_order(rows):
    """Row indices of a complex matrix sorted by the rows' entries rounded
    to 6 decimals, real part then imaginary part, column by column; ties
    keep their order (a stable lexsort, whose last key sorts first)."""
    r = np.round(rows, 6)
    keys = np.stack([r.real, r.imag], axis=2).reshape(len(r), -1)
    return np.lexsort(keys.T[::-1]).tolist()


# ---------------------------------------------------------------------------
# closed subsets from the s-matrix

def _distinct_rows(ids, zero_id, cols):
    """Row indices, ascending, of the first occurrence of each distinct
    nonzero row of ids[:, cols]."""
    sub = ids[:, cols]
    nonzero = np.flatnonzero((sub != zero_id).any(axis=1))
    first = np.unique(row_keys(sub[nonzero], np.int32), return_index=True)[1]
    return nonzero[np.sort(first)]


class ClosedSubsetResult:
    def __init__(self, sets, flags):
        self.sets = sets
        self.flags = flags


def _closed(s, inv, S, tol):
    """Whether N_ij^m = 0 for i, j in S and m outside S: the rows of
    inv = s^-1 outside S applied to the products of S's columns, each
    coefficient nonzero exactly, or numerically above
    tol * max(1, max|s|^2)."""
    outside = np.ones(s.n, dtype=bool)
    outside[list(S)] = False
    if not outside.any():
        return True
    cutoff = None
    if s.mode == "numeric":
        cutoff = tol * max(1.0, float(np.max(np.abs(s.array))) ** 2)
    for _, _, coeff in _pair_products(inv[outside], s.array, S):
        if (coeff.is_nonzero() if cutoff is None
                else np.abs(coeff) > cutoff).any():
            return False
    return True


def closed_subset_heuristic(s, tol=1e-8):
    """Candidates are the distinct nonempty agreement sets of row pairs (the
    columns where the rows agree) as packed column masks, each tested once:
    accepted iff its submatrix has exactly |set| distinct nonzero rows.
    Rounds intersect the sets accepted in the previous round with every
    member, closing the family under pairwise intersection; a set is kept
    iff _closed: no product of its columns has a coefficient outside it."""
    n, width = s.n, (s.n + 7) // 8
    ids, _, zero_id = s.entry_ids(tol)
    tested = set()

    def accepted(masks):
        # return_index keeps np.unique on its sort path: the plain call
        # imports numpy.ma, about 0.8 MB of peak RSS
        keys = np.unique(row_keys(masks, np.uint8), return_index=True)[0]
        out = []
        for row in keys.view(np.uint8).reshape(-1, width):
            if row.any() and row.tobytes() not in tested:
                tested.add(row.tobytes())
                cols = np.unpackbits(row, count=n).astype(bool)
                if len(_distinct_rows(ids, zero_id, cols)) == cols.sum():
                    out.append(row)
        return np.array(out, dtype=np.uint8).reshape(-1, width)

    # a slab of rows l against the rows m >= its first: about 2^24 booleans
    step = max(1, 2 ** 24 // (n * n))
    frontier = family = np.concatenate([accepted(np.packbits(
        ids[l:l + step, None] == ids[None, l:], axis=-1).reshape(-1, width))
        for l in range(0, n, step)])
    while len(frontier):
        frontier = accepted(np.concatenate([family & f for f in frontier]))
        family = np.concatenate([family, frontier])

    inv = s.inverse(tol)
    sets = sorted((tuple(np.flatnonzero(np.unpackbits(row, count=n)).tolist())
                   for row in family), key=lambda t: (len(t), t))
    sets = [S for S in sets if _closed(s, inv, S, tol)]
    return ClosedSubsetResult(sets, [True] * len(sets))


def subring_smatrix(s, S, tol=1e-8):
    """Distinct nonzero rows of the column submatrix on a closed S."""
    S = sorted(set(S))
    if S and (S[0] < 0 or S[-1] >= s.n):
        raise SpectraError("index out of range")
    if not _closed(s, s.inverse(tol), S, tol):
        raise SpectraError("S not closed")
    ids, _, zero_id = s.entry_ids(tol)
    picked = _distinct_rows(ids, zero_id, S).tolist()
    if len(picked) != len(S):
        raise SpectraError("subring read-off failed: %d distinct nonzero rows,"
                           " expected %d" % (len(picked), len(S)))
    order = _row_order(s.to_numeric()[np.ix_(picked, S)])
    return SMatrix(s.array[np.ix_([picked[r] for r in order], S)])


# ---------------------------------------------------------------------------
# text format

def smatrix_to_text(s):
    """The text of s: each distinct entry formatted once (format_cyc, or
    repr of the complex, keyed on its bytes, so 0.0 and -0.0 stay apart),
    the rows one gather of those tokens (grid_text)."""
    if s.mode == "exact":
        head, cells, ids = "smatrix 1", map(format_cyc, s.values), s.ids
    else:
        a = np.ascontiguousarray(s.array, dtype=np.complex128)
        _, first, ids = np.unique(a.reshape(-1).view(np.dtype((np.void, 16))),
                                  return_index=True, return_inverse=True)
        head = "smatrix-numeric 1"
        cells = map(repr, a.reshape(-1)[first].tolist())
        ids = ids.reshape(a.shape)
    return "%s\nn %d %d\n%s" % (head, s.n, s.n, grid_text(list(cells), ids))


def smatrix_from_text(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] not in ("smatrix 1", "smatrix-numeric 1"):
        raise FormatError("missing 'smatrix 1' header")
    numeric = lines[0].startswith("smatrix-numeric")
    try:
        parts = lines[1].split()
        if parts[0] != "n":
            raise FormatError("missing size line")
        rows, cols = int(parts[1]), int(parts[2])
    except (IndexError, ValueError) as exc:
        raise FormatError("malformed size line") from exc
    if rows != cols:
        raise FormatError("s-matrix must be square")
    if len(lines) != 2 + rows:
        raise FormatError("expected %d data rows" % rows)
    if rows == 0:
        raise SpectraError("s-matrix must be square")
    # the tokens up to the first row of the wrong length, which is reported
    # after they are parsed, so the first error is the first in row order
    toks, bad = [], None
    for ln in lines[2:]:
        row = ln.split()
        if len(row) != cols:
            bad = len(row)
            break
        toks += row
    if numeric:
        values = list(map(complex, toks))
    else:
        # each distinct exact literal is parsed once, in the order of first
        # occurrence
        index = {}
        ids = [index.setdefault(t, len(index)) for t in toks]
        try:
            values = list(map(parse_cyc, index))
        except ExactError as exc:
            raise FormatError(str(exc)) from exc
    if bad is not None:
        raise FormatError("row has %d entries, expected %d" % (bad, cols))
    if numeric:
        return SMatrix.numeric(np.array(values).reshape(rows, cols))
    ids = np.array(ids, dtype=np.intp).reshape(rows, cols)
    distinct = CycArray.from_rows([values])
    return SMatrix(CycArray(distinct.q, distinct.num[0][ids], distinct.den))
