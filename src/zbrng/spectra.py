"""s-matrix computations: Verlinde structure constants, orthogonality,
Fourier normalization, involution recovery, numeric diagonalization of a
tensor, closed-subset read-off and heuristic search.

Columns of an s-matrix are the basis images under the splitting isomorphism,
so the componentwise product of columns i and j decomposes over the columns
with coefficients N_ij^m.
"""

from functools import cached_property

import numpy as np

from .exact import (CycArray, ExactError, format_cyc, lookup, parse_cyc,
                    power_table, row_keys)
from .hadamard import PreconditionError, character_signs
from .rng_core import FormatError


class SpectraError(ValueError):
    pass


class SMatrix:
    """Square matrix held as `array`: a CycArray over Q(zeta_q) (exact; at
    q = 1 when every non-constant coefficient is zero) or a complex ndarray
    (numeric) of finite values.  Exact entries are interned: `ids[l, i]` is
    equal exactly when the entries are, and `conj_ids[ids[l, i]]` is the id
    of the conjugate entry; `rows` and `column` view them as CycNums, built
    once."""

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

    def column(self, i):
        if self.mode == "exact":
            return [row[i] for row in self.rows]
        return self.array[:, i]

    def inverse(self, tol):
        """s^-1 in the type of `array`: the certified modular inverse
        (CycArray.inverse), or np.linalg.inv after a singular-value guard
        scaled by tol (unused when exact)."""
        if self.mode == "numeric":
            sv = np.linalg.svd(self.array, compute_uv=False)
            if sv[-1] <= tol * max(1.0, sv[0]):
                raise SpectraError("singular matrix")
            return np.linalg.inv(self.array)
        try:
            return self.array.inverse()
        except ExactError as exc:
            raise SpectraError("singular matrix") from exc

    def to_numeric(self):
        if self.mode == "numeric":
            return self.array
        return self.array.embed()

    def __repr__(self):
        return "SMatrix(%s, n=%d)" % (self.mode, self.n)


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
    integer constant on each column.  Each distinct entry (interned id) is
    factored once and its root looked up in the table of unit_roots."""
    roots = unit_roots(s.q)[1]
    exponent = {tuple(r): t for t, r in enumerate(roots.tolist())}
    factors = [e.root_of_unity_factor() for e in s.values]
    if None in factors:
        raise SpectraError("column not of root-of-unity type")
    mu_of = np.array([mu for mu, _ in factors], dtype=object)
    texp = np.array([exponent[tuple(w.coeffs.get(x, 0) for x in
                                    range(roots.shape[1]))]
                     for _, w in factors], dtype=np.int64)
    T, M = texp[s.ids], mu_of[s.ids]
    if np.any(M != M[:1]):
        raise SpectraError("column not of root-of-unity type")
    return T, M


def decompose(inv, W):
    """Coefficients over the s-matrix columns of each column of W, with
    inv = SMatrix.inverse and W of the same kind (CycArray or ndarray):
    column k of the result decomposes column k of W."""
    return inv @ W


class VerlindeResult:
    """Integer tensor plus integrality/nonnegativity diagnostics."""

    def __init__(self, tensor, nonnegative, max_deviation, mode):
        self.tensor = tensor
        self.integral = True
        self.nonnegative = nonnegative
        self.max_deviation = max_deviation
        self.mode = mode


def verlinde_tensor(s, tol=1e-6):
    """N_ij^m = sum_l s_li s_lj s'_ml with s' = s^{-1}; errors at the first
    (i, j >= i, m) whose entry is not an integer (within tol in numeric
    mode)."""
    n = s.n
    inv = s.inverse(tol)
    a = s.array
    N = np.zeros((n, n, n), dtype=np.int64)
    dev = 0.0
    for i in range(n):
        # column j - i holds the coefficients of col_i * col_j, j >= i
        coeff = decompose(inv, a[:, i:] * a[:, i:i + 1])
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
            j, m = np.argwhere(~ok.T)[0]
            raise SpectraError("non-integral structure constant at (%d,%d,%d)"
                               % (i, i + j, m))
        N[i, i:] = N[i:, i] = vals.T
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


def fourier_matrix(s, tol=1e-9):
    """Rows scaled to unit hermitian norm by positive square roots; refuses
    input whose rows are not mutually orthogonal."""
    a = s.to_numeric()
    g = a @ a.conj().T
    norms = np.abs(np.diag(g))
    if np.any(norms <= tol):
        raise SpectraError("zero row")
    scale = float(np.max(norms))
    off = g - np.diag(np.diag(g))
    if s.n > 1 and float(np.max(np.abs(off))) > tol * max(1.0, scale):
        raise SpectraError("rows not orthogonal")
    f = a / np.sqrt(norms)[:, None]
    if float(np.max(np.abs(f @ f.conj().T - np.eye(s.n)))) > 1e-9:
        raise SpectraError("normalization failed unitarity check")
    return f


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

def _orthonormal(cols):
    """Orthonormal basis (columns) of the span of the given columns."""
    q, r = np.linalg.qr(cols)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(r))))
    return q[:, keep]


def smatrix_from_tensor(ring, tol=1e-8):
    """Characters of the ring as rows, by iterative common-eigenspace
    splitting of the commuting regular-representation matrices; the
    certified +-k path (hadamard.character_signs) for Hadamard-type tensors,
    numeric otherwise."""
    n, N = ring.n, ring.N
    try:
        k, signs = character_signs(ring)
    except PreconditionError:
        pass                                # not of Hadamard type: numeric
    else:
        return SMatrix(CycArray(1, (k * signs)[:, :, None], 1))

    M = [N[i].T.astype(np.complex128) for i in range(n)]
    spaces = [np.eye(n, dtype=np.complex128)]
    for i in range(n):
        if all(sp.shape[1] == 1 for sp in spaces):
            break
        nxt = []
        for sp in spaces:
            d = sp.shape[1]
            if d == 1:
                nxt.append(sp)
                continue
            b = sp.conj().T @ (M[i] @ sp)
            vals, vecs = np.linalg.eig(b)
            order = np.lexsort((vals.imag.round(9), vals.real.round(9)))
            atol = tol * max(1.0, float(np.max(np.abs(vals))))
            clusters = []
            for idx in order:
                if clusters and abs(vals[idx] - vals[clusters[-1][-1]]) <= atol:
                    clusters[-1].append(idx)
                else:
                    clusters.append([idx])
            if len(clusters) == 1:
                nxt.append(sp)
                continue
            for cl in clusters:
                nxt.append(_orthonormal(sp @ vecs[:, cl]))
        spaces = nxt
    if any(sp.shape[1] != 1 for sp in spaces):
        raise SpectraError("splitting failed")

    rows = np.zeros((n, n), dtype=np.complex128)
    for r, sp in enumerate(spaces):
        v = sp[:, 0]
        nv = float(np.real(v.conj() @ v))
        for i in range(n):
            rows[r, i] = (v.conj() @ (M[i] @ v)) / nv

    # character property: s_ki s_kj = sum_m N_ijm s_km
    lhs = np.einsum("ki,kj->kij", rows, rows)
    rhs = np.einsum("ijm,km->kij", N.astype(np.complex128), rows)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    if float(np.max(np.abs(lhs - rhs))) > 1e-6 * scale:
        raise SpectraError("splitting failed")

    return SMatrix.numeric(rows[_row_order(rows)])


def _row_order(rows):
    """Row indices of a complex matrix sorted by the rows' entries rounded
    to 6 decimals, real part then imaginary part (builtin round on the
    numpy scalars, which fixes how ties order)."""
    return sorted(range(rows.shape[0]), key=lambda r: tuple(
        (round(rows[r, c].real, 6), round(rows[r, c].imag, 6))
        for c in range(rows.shape[1])))


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

    def __iter__(self):
        return iter(self.sets)


class _Decomposer:
    """Exact (or numeric) coefficients of col_i * col_j over the columns;
    supports the closedness check even when the integer Verlinde tensor
    does not exist (non-integral constants)."""

    def __init__(self, s, tol):
        self.n = s.n
        self.a = s.array
        self.inv = s.inverse(tol)
        self.slabs = {}
        self.cutoff = None
        if s.mode == "numeric":
            self.cutoff = tol * max(1.0, float(np.max(np.abs(s.array))) ** 2)

    def support(self, i, j):
        """Indices m with a nonzero coefficient in col_i * col_j."""
        if i > j:
            i, j = j, i
        if i not in self.slabs:
            # every product col_i * col_j with j >= i at once
            coeff = decompose(self.inv, self.a[:, i:] * self.a[:, i:i + 1])
            if self.cutoff is None:
                nonzero = coeff.is_nonzero()
            else:
                nonzero = np.abs(coeff) > self.cutoff
            self.slabs[i] = [frozenset(np.flatnonzero(col).tolist())
                             for col in nonzero.T]
        return self.slabs[i][j - i]

    def closed(self, S):
        sset = set(S)
        if len(sset) == self.n:
            return True
        return all(self.support(i, j) <= sset for i in S for j in S if i <= j)


def closed_subset_heuristic(s, tol=1e-8):
    """Per row pair, candidate = columns where the rows agree; accept iff the
    submatrix has exactly |candidate| distinct nonzero rows; close the
    accepted family under pairwise intersection; verify every set by exact
    decomposition of its column products."""
    n = s.n
    ids, _, zero_id = s.entry_ids(tol)

    def spans(cols):
        return len(_distinct_rows(ids, zero_id, list(cols))) == len(cols)

    family = set()
    for l in range(n):
        for m in range(l, n):
            cand = tuple(np.flatnonzero(ids[l] == ids[m]).tolist())
            if cand and spans(cand):
                family.add(cand)

    # close under pairwise intersection, re-testing each new set
    while True:
        new = set()
        members = sorted(family)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                inter = tuple(sorted(set(members[x]) & set(members[y])))
                if inter and inter not in family and inter not in new:
                    if spans(inter):
                        new.add(inter)
        if not new:
            break
        family |= new

    dec = _Decomposer(s, tol)
    sets, flags = [], []
    for cand in sorted(family, key=lambda t: (len(t), t)):
        if dec.closed(cand):
            sets.append(cand)
            flags.append(True)
    return ClosedSubsetResult(sets, flags)


def subring_smatrix(s, S, tol=1e-8):
    """Distinct nonzero rows of the column submatrix on a closed S."""
    S = sorted(set(S))
    if S and (S[0] < 0 or S[-1] >= s.n):
        raise SpectraError("index out of range")
    if not _Decomposer(s, tol).closed(S):
        raise SpectraError("S not closed")
    ids, _, zero_id = s.entry_ids(tol)
    picked = _distinct_rows(ids, zero_id, S).tolist()
    if len(picked) != len(S):
        raise SpectraError("subring read-off failed: %d distinct nonzero rows,"
                           " expected %d" % (len(picked), len(S)))
    order = _row_order(s.to_numeric()[np.ix_(picked, S)])
    return SMatrix(s.array[np.ix_([picked[r] for r in order], S)])


def mu_uniformity_check(s, tol=1e-8):
    """Common |mu| when every column is mu_i times a root-of-unity vector."""
    if s.mode == "exact":
        mus = root_columns(s)[1][0].tolist()
    else:
        mus = []
        a = np.abs(s.array)
        scale = max(1.0, float(np.max(a)))
        for i in range(s.n):
            col = a[:, i]
            mu = float(np.mean(col))
            if np.max(np.abs(col - mu)) > tol * scale or mu <= tol:
                raise SpectraError("column not of root-of-unity type")
            mu_int = int(round(mu))
            if abs(mu - mu_int) > tol * scale:
                raise SpectraError("column not of root-of-unity type")
            mus.append(mu_int)
    if len(set(mus)) != 1:
        raise SpectraError("moduli differ")
    return mus[0]


# ---------------------------------------------------------------------------
# text format

def smatrix_to_text(s):
    if s.mode == "exact":
        lines = ["smatrix 1", "n %d %d" % (s.n, s.n)]
        text = np.array([format_cyc(e) for e in s.values], dtype=object)
        lines += [" ".join(row) for row in text[s.ids].tolist()]
    else:
        lines = ["smatrix-numeric 1", "n %d %d" % (s.n, s.n)]
        for row in s.array:
            lines.append(" ".join(repr(complex(v)) for v in row))
    return "\n".join(lines) + "\n"


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
    # exact literals: each distinct token is parsed once, at its first
    # occurrence, so the first error reported is the first in row order
    index, values, data = {}, [], []
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != cols:
            raise FormatError("row has %d entries, expected %d"
                              % (len(toks), cols))
        if numeric:
            data.append([complex(t) for t in toks])
            continue
        for t in toks:
            if t not in index:
                try:
                    values.append(parse_cyc(t))
                except ExactError as exc:
                    raise FormatError(str(exc)) from exc
                index[t] = len(index)
        data.append([index[t] for t in toks])
    if numeric:
        return SMatrix.numeric(np.array(data))
    distinct = CycArray.from_rows([values])
    return SMatrix(CycArray(distinct.q, distinct.num[0][np.array(data)],
                            distinct.den))
