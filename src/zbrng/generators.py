"""Constructions used throughout: Sylvester and Paley type I Hadamard
matrices, Kronecker products, group-ring s-matrices, exterior squares,
level-k sl2 character matrices, and one fixed 6x6 matrix whose Verlinde
constants are nonnegative integers although its rows are not orthogonal.
"""

from math import lcm, prod

import numpy as np

from .exact import MAX_ORDER, CycArray, ExactError, is_prime, power_table
from .hadamard import HadamardMatrix, HadamardError, normalize_hadamard
from .spectra import SMatrix

# Every generator writes a matrix of order at most MAX_SIZE; an exact one
# holds at most MAX_COEFFS power-basis coefficients (n^2 phi(q), 128 MB).
MAX_SIZE = 1024
MAX_COEFFS = 2 ** 24


def _check_size(n, phi):
    """ValueError unless order n, phi coefficients per entry, is in bounds."""
    if n > MAX_SIZE:
        raise ValueError("order %d above %d" % (n, MAX_SIZE))
    if n * n * phi > MAX_COEFFS:
        raise ValueError("order %d with %d coefficients per entry above "
                         "2^24 coefficients" % (n, phi))


def gen_sylvester(m):
    """Iterated Kronecker power of [[1,1],[1,-1]]; order 2^m, m >= 2."""
    if m < 2:
        raise HadamardError("m must be >= 2")
    if m >= MAX_SIZE.bit_length():
        raise ValueError("order 2^%d above %d" % (m, MAX_SIZE))
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int64)
    a = h2
    for _ in range(m - 1):
        a = np.kron(a, h2)
    return normalize_hadamard(a)


def gen_paley(q):
    """Paley type I matrix of order q+1 for a prime q = 3 mod 4:
    H = I + C with C the bordered quadratic-residue circulant."""
    _check_size(q + 1, 1)                 # is_prime is exact below 3.2e9
    if not is_prime(q) or q % 4 != 3:
        raise HadamardError("q must be a prime congruent to 3 mod 4")
    residues = {(x * x) % q for x in range(1, q)}
    chi = np.array([0] + [1 if x in residues else -1 for x in range(1, q)])
    n = q + 1
    c = np.zeros((n, n), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    t = np.arange(q)
    c[1:, 1:] = chi[(t[None, :] - t[:, None]) % q]
    return normalize_hadamard(c + np.eye(n, dtype=np.int64))


def gen_kronecker(a, b):
    """Kronecker product of two +-1 matrices, renormalized."""
    aa = a.array if isinstance(a, HadamardMatrix) else np.asarray(a)
    bb = b.array if isinstance(b, HadamardMatrix) else np.asarray(b)
    _check_size(len(aa) * len(bb), 1)
    return normalize_hadamard(np.kron(aa, bb))


def group_ring_smatrix(orders):
    """Exact character table of a product of cyclic groups, rows and
    columns indexed by mixed-radix tuples: entry (a, b) is zeta_q^e with
    e = sum_t (a_t b_t mod d_t) q / d_t, q = lcm(d_t)."""
    if not orders or any(d < 2 for d in orders):
        raise ValueError("orders must be >= 2")
    q = lcm(*orders)
    if q > MAX_ORDER:
        raise ExactError("cyclotomic order %d outside 1..%d" % (q, MAX_ORDER))
    n = prod(orders)
    table = power_table(q)
    _check_size(n, table.shape[1])
    digits = np.indices(orders).reshape(len(orders), n)
    e = np.zeros((n, n), dtype=np.int64)
    for d, a in zip(orders, digits):
        e += np.outer(a, a) % d * (q // d)
    return SMatrix(CycArray(q, table[e % q], 1))


def exterior_square(s):
    """2x2 minors indexed by row pairs x column pairs, both in
    lexicographic order: an SMatrix (exact or numeric) gives an SMatrix of
    the same kind, a HadamardMatrix or an array gives an array."""
    if isinstance(s, SMatrix):
        a, n = s.array, s.n
    else:
        a = s.array if isinstance(s, HadamardMatrix) else np.asarray(s)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("non-square input")
        n = a.shape[0]
    if n < 2:
        raise ValueError("matrix must be at least 2x2")
    I, J = np.triu_indices(n, 1)
    _check_size(len(I), a.num.shape[-1] if isinstance(a, CycArray) else 1)
    # entry ((i, j), (l, m)) is a[i, l] a[j, m] - a[i, m] a[j, l]
    out = a[np.ix_(I, I)] * a[np.ix_(J, J)] - a[np.ix_(I, J)] * a[np.ix_(J, I)]
    return SMatrix(out) if isinstance(s, SMatrix) else out


def kac_peterson_a1(level):
    """Level-k sl2 character matrix, rows scaled so the Verlinde constants
    are the fusion rules: s_ab = sin(pi(a+1)(b+1)/(k+2)) / sin(pi(a+1)/(k+2))."""
    if level < 1:
        raise ValueError("level must be >= 1")
    _check_size(level + 1, 1)
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
    return SMatrix(CycArray(1, np.array(rows, dtype=np.int64)[:, :, None], 1))
