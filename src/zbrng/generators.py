"""Constructions used throughout: Sylvester and Paley type I Hadamard
matrices, Kronecker products, group-ring s-matrices, exterior squares,
level-k sl2 character matrices, and one fixed 6x6 matrix whose Verlinde
constants are nonnegative integers although its rows are not orthogonal.
"""

from math import lcm

import numpy as np

from .exact import CycNum
from .hadamard import HadamardMatrix, HadamardError, normalize_hadamard
from .spectra import SMatrix


def gen_sylvester(m):
    """Iterated Kronecker power of [[1,1],[1,-1]]; order 2^m, m >= 2."""
    if m < 2:
        raise HadamardError("m must be >= 2")
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    a = h2
    for _ in range(m - 1):
        a = np.kron(a, h2)
    return normalize_hadamard(a)


def _is_prime(q):
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def gen_paley(q):
    """Paley type I matrix of order q+1 for a prime q = 3 mod 4:
    H = I + C with C the bordered quadratic-residue circulant."""
    if not _is_prime(q) or q % 4 != 3:
        raise HadamardError("q must be a prime congruent to 3 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    chi = [0] + [1 if x in residues else -1 for x in range(1, q)]
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    for i in range(q):
        for j in range(q):
            c[1 + i, 1 + j] = chi[(j - i) % q]
    return normalize_hadamard(c + np.eye(n, dtype=np.int64))


def gen_kronecker(a, b):
    """Kronecker product of two +-1 matrices, renormalized."""
    aa = a.array if isinstance(a, HadamardMatrix) else np.asarray(a)
    bb = b.array if isinstance(b, HadamardMatrix) else np.asarray(b)
    return normalize_hadamard(np.kron(aa, bb))


def group_ring_smatrix(orders):
    """Exact character table of a product of cyclic groups, rows and
    columns indexed by mixed-radix tuples."""
    if not orders or any(d < 2 for d in orders):
        raise ValueError("orders must be >= 2")
    q = lcm(*orders)
    tables = []
    for d in orders:
        z = CycNum.zeta(d)
        tables.append([[z ** ((a * b) % d) for b in range(d)]
                       for a in range(d)])
    idx = [()]
    for d in orders:
        idx = [t + (r,) for t in idx for r in range(d)]
    rows = []
    for a in idx:
        row = []
        for b in idx:
            e = CycNum.from_rat(1)
            for t, d in enumerate(orders):
                e = e * tables[t][a[t]][b[t]]
            row.append(e.to_order(q))
        rows.append(row)
    return SMatrix.exact(rows)


def exterior_square(s):
    """2x2 minors indexed by row pairs x column pairs, both in
    lexicographic order; exact input stays exact."""
    if isinstance(s, SMatrix) and s.mode == "exact":
        n = s.n
        if n < 2:
            raise ValueError("matrix must be at least 2x2")
        rows = s.rows
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return SMatrix.exact(
            [[rows[i][l] * rows[j][m] - rows[i][m] * rows[j][l]
              for (l, m) in pairs] for (i, j) in pairs])
    if isinstance(s, SMatrix):
        a = s.array
    elif isinstance(s, HadamardMatrix):
        a = s.array
    else:
        a = np.asarray(s)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("non-square input")
    n = a.shape[0]
    if n < 2:
        raise ValueError("matrix must be at least 2x2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = np.zeros((len(pairs), len(pairs)), dtype=a.dtype)
    for r, (i, j) in enumerate(pairs):
        for c, (l, m) in enumerate(pairs):
            out[r, c] = a[i, l] * a[j, m] - a[i, m] * a[j, l]
    return SMatrix.numeric(out) if isinstance(s, SMatrix) else out


def kac_peterson_a1(level):
    """Level-k sl2 character matrix, rows scaled so the Verlinde constants
    are the fusion rules: s_ab = sin(pi(a+1)(b+1)/(k+2)) / sin(pi(a+1)/(k+2))."""
    if level < 1:
        raise ValueError("level must be >= 1")
    kappa = level + 2
    a = np.zeros((level + 1, level + 1), dtype=np.complex128)
    for r in range(level + 1):
        denom = np.sin(np.pi * (r + 1) / kappa)
        for c in range(level + 1):
            a[r, c] = np.sin(np.pi * (r + 1) * (c + 1) / kappa) / denom
    return SMatrix.numeric(a)


def fixture_ds3():
    """6x6 integer matrix whose Verlinde constants are integers with minimum
    0, while its rows are not orthogonal (row 0 . row 1 = 8): a pointed
    algebra with nonnegative constants, not the s-matrix of a based ring."""
    rows = [
        (1, 2, 3, 2, 2, 2),
        (1, 2, -3, 2, 2, 2),
        (1, 2, 0, -1, -1, -1),
        (1, -1, 0, -1, -1, 2),
        (1, -1, 0, -1, 2, -1),
        (1, -1, 0, 2, -1, -1),
    ]
    return SMatrix.exact([list(r) for r in rows])
