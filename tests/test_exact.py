import itertools
import random
from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zbrng.exact as exact
from zbrng.exact import (CycArray, CycNum, ExactError, cyclotomic_poly,
                         format_cyc, int_dtype, mat_inverse, matmul_mod,
                         parse_cyc, power_table, primes, rref_mod)
from zbrng.rng_core import FusionRing, _assoc_scan, identity_coefficients

import cyc_oracle
from cyc_oracle import equal, exact_int, zeta


@pytest.mark.parametrize("q,coeffs", [
    (1, (-1, 1)),
    (2, (1, 1)),
    (3, (1, 1, 1)),
    (4, (1, 0, 1)),
    (6, (1, -1, 1)),
    (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_poly(q, coeffs):
    assert tuple(cyclotomic_poly(q)) == coeffs


def test_zeta_relations():
    z3 = zeta(3)
    assert equal(z3 * z3 * z3, 1)
    assert equal(z3 + z3.conj(), -1)
    z8 = zeta(8)
    assert equal(zeta(8, 2) * zeta(8, 2), -1)
    assert equal(cyc_oracle.inv(z8), z8.conj())


def test_arith_random():
    rnd = random.Random(7)
    vals = [sum(zeta(12, k) * CycNum.from_rat(rnd.randint(-3, 3))
                for k in range(4)) for _ in range(8)]
    for a in vals:
        for b in vals:
            assert equal(cyc_oracle.sub(a + b, b), a)
            assert equal(a * b, b * a)
            if not b.is_zero():
                assert equal(cyc_oracle.div(a, b) * b, a)


def test_galois_fixes_rationals():
    a = CycNum.from_rat(Fraction(3, 7))
    assert equal(cyc_oracle.galois(a, 5), a)
    z5 = zeta(5)
    assert equal(cyc_oracle.galois(z5, 2), z5 * z5)


def test_is_integer_and_rational_value():
    a = CycNum.from_rat(Fraction(4, 2))
    assert exact_int(a) == 2 and a.rational_value() == 2
    assert exact_int(CycNum.from_rat(Fraction(1, 2))) is None
    assert exact_int(zeta(3)) is None
    with pytest.raises(ExactError):
        zeta(3).rational_value()


@pytest.mark.parametrize("a,mu,root_pow", [
    (CycNum.from_rat(3), 3, None),
    (CycNum.from_rat(-2), 2, None),
    (zeta(3) * CycNum.from_rat(5), 5, 1),
])
def test_root_of_unity_factor(a, mu, root_pow):
    got = cyc_oracle.root_of_unity_factor(a)
    assert got is not None
    m, w = got
    assert m == mu and equal(a, w * CycNum.from_rat(mu))


def test_root_of_unity_factor_rejects():
    assert cyc_oracle.root_of_unity_factor(CycNum.from_rat(0)) is None
    assert cyc_oracle.root_of_unity_factor(
        CycNum.from_rat(1) + zeta(3) + CycNum.from_rat(3)) is None


def test_parse_format_roundtrip():
    rnd = random.Random(3)
    for _ in range(20):
        q = rnd.choice([1, 2, 3, 4, 6, 8, 12])
        a = CycNum(q, {k: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                       for k in range(max(1, q // 2))})
        assert equal(parse_cyc(format_cyc(a)), a)


def test_parse_cyc_errors():
    for bad in ("", "1/", "z(", "z(3)^", "1 +"):
        with pytest.raises(ExactError):
            parse_cyc(bad)


def test_mat_inverse_fractions():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    Ainv = mat_inverse(A)
    ident = [[sum(A[i][k] * Ainv[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    assert ident == [[1, 0], [0, 1]]
    with pytest.raises(ExactError):
        mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_rat_kernel_rank():
    # the rational case over a large prime: the rank as over Q
    p = 2 ** 31 - 1
    M = [[1, 2, 3],
         [2, 4, 6]]
    assert len(rref_mod(M, p)[1]) == 1


def test_cyc_matrix_inverse():
    z = zeta(3)
    one = CycNum.from_rat(1)
    rows = [[one, one, one],
            [one, z, z * z],
            [one, z * z, z]]
    inv = cyc_oracle.mat_inverse(rows)
    for i in range(3):
        for j in range(3):
            acc = CycNum.from_rat(0)
            for k in range(3):
                acc = acc + rows[i][k] * inv[k][j]
            assert equal(acc, int(i == j))
    with pytest.raises(ExactError):
        cyc_oracle.mat_inverse([[one, one], [one, one]])


def test_gf_linear_algebra():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    assert len(rref_mod(rows, 5)[1]) == 2
    ech, pivots = rref_mod([[1, 1], [1, 0]], 2)
    assert pivots == [0, 1] and ech.tolist() == [[1, 0], [0, 1]]


# ---------------------------------------------------------------------------
# GF(p) elimination and the modular inverse against the full-update
# eliminations they replaced, kept here as oracles

def full_update_rref(A, p):
    """Reduced row echelon form mod p updating every row at each pivot."""
    R = np.array(A, dtype=np.int64) % p
    pivots = []
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        nz = np.flatnonzero(R[r:, c])
        if not nz.size:
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r] = R[r] * pow(int(R[r, c]), -1, p) % p
        f = R[:, c].copy()
        f[r] = 0
        R = (R - f[:, None] * R[r]) % p
        pivots.append(c)
    return R, pivots


def batched_gauss_jordan(A, p):
    """Inverses mod p of a stack (b, n, n) of residue matrices, or None if
    one is singular."""
    b, n, _ = A.shape
    M = np.concatenate(
        [A, np.broadcast_to(np.eye(n, dtype=np.int64), (b, n, n))], axis=2)
    stack = np.arange(b)
    for c in range(n):
        nz = M[:, c:, c] != 0
        if not nz.any(axis=1).all():
            return None
        r = c + nz.argmax(axis=1)
        top = M[stack, r]
        M[stack, r] = M[:, c]
        inv = np.array([pow(int(x), -1, p) for x in top[:, c]], dtype=np.int64)
        top = top * inv[:, None] % p
        M[:, c] = top
        f = M[:, :, c].copy()
        f[:, c] = 0
        M = (M - f[:, :, None] * top[:, None, :]) % p
    return M[:, :, n:]


def oracle_inverse_mod(num, q, p):
    """_inverse_mod with both root-of-unity transforms in Python ints and
    batched_gauss_jordan for the images."""
    V, Vi = (x.astype(np.int64).astype(object) for x in exact._nodes(q, p))
    images = np.tensordot(V, num.astype(object), axes=(1, 2)) % p
    images = batched_gauss_jordan(images.astype(np.int64), p)
    if images is None:
        return None
    coeffs = np.tensordot(Vi, images.astype(object), axes=(1, 0)) % p
    return np.moveaxis(coeffs, 0, -1).astype(np.int64)


@st.composite
def residue_matrices(draw):
    """(A, p): small integer matrices, some of low rank (a product through
    k < min(rows, cols) columns) and some with zero columns."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    p = draw(st.sampled_from([2, 3, 7, 2 ** 31 - 1]))
    ints = st.integers(-3, 3)
    k = draw(st.integers(1, max(rows, cols)))
    left = np.array(draw(st.lists(ints, min_size=rows * k,
                                  max_size=rows * k))).reshape(rows, k)
    right = np.array(draw(st.lists(ints, min_size=k * cols,
                                   max_size=k * cols))).reshape(k, cols)
    A = left @ right
    zero = draw(st.lists(st.integers(0, cols - 1), max_size=cols))
    A[:, zero] = 0
    return A, p


@settings(max_examples=200, deadline=None)
@given(residue_matrices())
def test_rref_mod_matches_full_update(case):
    A, p = case
    R, pivots = rref_mod(A, p)
    want_R, want_pivots = full_update_rref(A, p)
    assert pivots == want_pivots
    assert np.array_equal(R, want_R)


def test_rref_mod_zero_and_rank_deficient():
    assert rref_mod(np.zeros((3, 4), dtype=np.int64), 5)[1] == []
    A = np.array([[0, 2, 4, 0], [0, 1, 2, 0], [0, 3, 2, 0]])
    R, pivots = rref_mod(A, 5)
    assert pivots == [1, 2]
    assert R.tolist() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]


@pytest.mark.parametrize("q", [1, 3, 4, 8])
def test_inverse_mod_matches_batched_gauss_jordan(q):
    phi = len(cyclotomic_poly(q)) - 1
    p = next(primes(q, 1))
    rng = np.random.default_rng(q)
    for n in (1, 2, 5):
        num = rng.integers(-50, 51, size=(n, n, phi))
        got, singular = exact._inverse_mod(num, q, p)
        assert singular == 0
        assert np.array_equal(got, oracle_inverse_mod(num, q, p))
    # singular at every root: two equal rows
    num = rng.integers(-5, 6, size=(3, 3, phi))
    num[1] = num[0]
    assert exact._inverse_mod(num, q, p) == (None, phi)
    assert oracle_inverse_mod(num, q, p) is None


@pytest.mark.parametrize("q", [3, 4, 8])
def test_inverse_mod_singular_at_one_root(q):
    # diag(zeta - w_0, 1) with w_0 the first primitive root mod p: its image
    # vanishes at w_0 only, and one singular image makes the prime fail
    phi = len(cyclotomic_poly(q)) - 1
    p = next(primes(q, 1))
    w0 = int(exact._nodes(q, p)[0][0, 1])
    num = np.zeros((2, 2, phi), dtype=np.int64)
    num[0, 0, :2] = (-w0, 1)
    num[1, 1, 0] = 1
    assert exact._inverse_mod(num, q, p) == (None, 1)
    assert oracle_inverse_mod(num, q, p) is None
    num[0, 0, 0] += 1
    got, singular = exact._inverse_mod(num, q, p)
    assert singular == 0
    assert np.array_equal(got, oracle_inverse_mod(num, q, p))


def oracle_operands(x, y, terms):
    """The convolution products' operands and reduction matrix (2 phi - 1,
    phi) in Python ints, and the result's dtype: int64 when the reduced
    product provably fits.  An operand may not fit in int64 when the bound
    does, as when the other operand is zero."""
    phi = x.num.shape[-1]
    red = power_table(x.q)[np.arange(2 * phi - 1) % x.q]
    bound = (terms * phi * exact._maxabs(x.num) * exact._maxabs(y.num)
             * (2 * phi - 1) * exact._maxabs(red))
    return (x.num.astype(object), y.num.astype(object), red.astype(object),
            int_dtype(bound))


def oracle_mul(x, y):
    a, b, red, dtype = oracle_operands(x, y, 1)
    phi = a.shape[-1]
    raw = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                   + (2 * phi - 1,), dtype=object)
    for e in range(phi):
        raw[..., e:e + phi] += a[..., e:e + 1] * b
    return CycArray(x.q, (raw @ red).astype(dtype), x.den * y.den)


def oracle_matmul(x, y):
    a, b, red, dtype = oracle_operands(x, y, x.num.shape[1])
    k, m, phi = a.shape
    cols = b.shape[1]
    flat = b.reshape(m, cols * phi)
    raw = np.zeros((k, cols, 2 * phi - 1), dtype=object)
    for e in range(phi):
        raw[:, :, e:e + phi] += (a[:, :, e] @ flat).reshape(k, cols, phi)
    return CycArray(x.q, (raw @ red).astype(dtype), x.den * y.den)


def cyc_array(q, values, den=1):
    return CycArray(q, exact._fit(np.array(values, dtype=object)), den)


@st.composite
def product_cases(draw):
    """(op, a, b): n x k by n x 1 for "*", n x k by k x m for "@", with
    coefficients of up to 70 bits."""
    q = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 63]))
    phi = len(cyclotomic_poly(q)) - 1
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    op = draw(st.sampled_from("*@"))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    arrays = []
    for rows, cols in ((n, k), (n, 1) if op == "*" else (k, m)):
        bits = draw(st.integers(0, 70))
        values = [[[rng.randint(-2 ** bits, 2 ** bits) for _ in range(phi)]
                   for _ in range(cols)] for _ in range(rows)]
        arrays.append(cyc_array(q, values, draw(st.integers(1, 9))))
    return op, arrays[0], arrays[1]


# x times 1 with x = p - 1 for the largest prime p used at q = 1: x is the
# bound, so p alone exceeds it but not twice it, and x > p / 2
EDGE = next(primes(1, 1)) - 1


@settings(max_examples=300, deadline=None)
@given(product_cases())
@example(("*", cyc_array(1, [[[EDGE]]]), cyc_array(1, [[[1]]])))
@example(("@", cyc_array(1, [[[EDGE]]]), cyc_array(1, [[[1]]])))
# a zero operand: the product is int64 although the other one is not
@example(("*", cyc_array(3, [[[2 ** 70, 5]]]), cyc_array(3, [[[0, 0]]])))
@example(("@", cyc_array(3, [[[2 ** 70, 5]]]), cyc_array(3, [[[0, 0]]])))
def test_products_match_convolution(case):
    op, a, b = case
    got = a * b if op == "*" else a @ b
    want = oracle_mul(a, b) if op == "*" else oracle_matmul(a, b)
    assert got.num.dtype == want.num.dtype
    assert got.num.tolist() == want.num.tolist()
    assert (got.q, got.den) == (want.q, want.den)


def test_largest_order_product_and_inverse():
    # q = 1024 (phi = 512), the largest order a literal may have, where
    # the primes(1024, 512) hold about 2^11800 in all
    q, phi = 1024, 512
    rng = random.Random(q)
    a, b = (cyc_array(q, [[[rng.randint(-2 ** 300, 2 ** 300)
                            for _ in range(phi)] for _ in range(2)]
                          for _ in range(2)]) for _ in range(2))
    got = a @ b
    want = oracle_matmul(a, b)
    assert got.num.tolist() == want.num.tolist() and got.den == want.den
    assert (a * b).num.tolist() == oracle_mul(a, b).num.tolist()
    # [[1 + z, z], [0, 1]] has det 1 + z, of norm Phi_1024(-1) = 2; with
    # two equal rows all 512 images are singular at the first prime p, and
    # p^512 passes h2^(phi/2) = 25^256
    s = np.zeros((2, 2, phi), dtype=np.int64)
    s[0, 0, :2] = s[0, 1, 1] = s[1, 1, 0] = 1
    inv = CycArray(q, s, 1).inverse()
    assert exact.certify_inverse(CycArray(q, s, 1), inv) and inv.den == 2
    s[1] = s[0]
    with pytest.raises(ExactError, match="singular matrix"):
        CycArray(q, s, 1).inverse()


# q = 1019 (phi = 1018): the primes(1019, 1018), at which every transform at
# the roots of unity is one matmul_mod, hold less than 2^4100 in all; a
# product past that goes on at the larger primes(1019, terms), its
# transforms summed a slice at a time
BIG_Q = 1019


def big_q_array(entries):
    """A matrix at q = BIG_Q from {(row, col): {exponent: coefficient}}."""
    num = np.zeros((3, 3, BIG_Q - 1), dtype=object)
    for (i, j), coeffs in entries.items():
        for e, c in coeffs.items():
            num[i, j, e] = c
    return CycArray(BIG_Q, num, 1)


def test_square_past_transform_primes():
    assert prod(primes(BIG_Q, BIG_Q - 1)) < 2 ** 4100
    x = big_q_array({(0, 0): {0: 2 ** 2100}})[:1, :1]
    try:
        # the bound 1018 * 2037 * 2^4200 needs a modulus past 2^4222
        assert (x * x).num.tolist() == [[[2 ** 4200] + [0] * (BIG_Q - 2)]]
    finally:
        exact._nodes.cache_clear()


def test_certificate_past_transform_primes():
    # a = [[1, X, 0], [0, 1, X], [0, 0, 1]] with X = 2^1360 (2 + z) has the
    # inverse b = [[1, -X, X^2], [0, 1, -X], [0, 0, 1]], X^2 = 2^2720 (4 +
    # 4z + z^2): the bound of a @ b is 3 * 1018 * 2037 * 2^1361 * 2^2723
    one, X = {0: 1}, {0: 2 ** 1361, 1: 2 ** 1360}
    minus_X = {e: -c for e, c in X.items()}
    a = big_q_array({(0, 0): one, (1, 1): one, (2, 2): one,
                     (0, 1): X, (1, 2): X})
    b = big_q_array({(0, 0): one, (1, 1): one, (2, 2): one,
                     (0, 1): minus_X, (1, 2): minus_X,
                     (0, 2): {0: 2 ** 2722, 1: 2 ** 2722, 2: 2 ** 2720}})
    try:
        assert exact.certify_inverse(a, b)
    finally:
        exact._nodes.cache_clear()


def test_products_on_sliced_primes(monkeypatch):
    # with one prime at which nothing is sliced, the products go on at the
    # larger primes(8, 1): transforms and the matmul_mod sums of 5 terms in
    # slices (one product of residues per slice at the largest primes)
    real = exact.primes
    monkeypatch.setattr(exact, "primes", lambda q, terms: real(q, terms)
                        if terms == 1 else itertools.islice(real(q, terms), 1))
    rng = random.Random(8)
    a, b = (cyc_array(8, [[[rng.randint(-2 ** 200, 2 ** 200)
                            for _ in range(4)] for _ in range(5)]
                          for _ in range(5)]) for _ in range(2))
    assert (a @ b).num.tolist() == oracle_matmul(a, b).num.tolist()
    assert (a * b).num.tolist() == oracle_mul(a, b).num.tolist()


def test_product_out_of_primes(monkeypatch):
    # one prime below 2^27 cannot hold the coefficient 2^62 of 2^31 * 2^31
    real = exact.primes
    monkeypatch.setattr(exact, "primes",
                        lambda q, terms: itertools.islice(real(q, terms), 1))
    x = cyc_array(1, [[[2 ** 31]]])
    with pytest.raises(ExactError, match="coefficients too large"):
        x * x


@pytest.mark.parametrize("q,terms", [(1, 1), (8, 4), (63, 36), (1024, 1024)])
def test_matmul_mod_refuses_to_wrap(q, terms):
    # the largest prime for terms sums k - 1 >= terms products in one BLAS
    # product, (k - 1) (p - 1)^2 < 2^53; at k terms a float64 sum could
    # reach 2^53, so the inner axis is sliced: the residues p - 1, some of
    # them p - 2, give the Python-int product mod p on both sides
    p = next(primes(q, terms))
    k = -(-2 ** 53 // (p - 1) ** 2)
    assert k > terms and (k - 1) * (p - 1) ** 2 < 2 ** 53
    A = np.full((2, k), p - 1.0)
    A[1, ::3] = p - 2
    B = A[::-1].T.copy()
    a, b = (x.astype(np.int64).astype(object) for x in (A, B))
    for t in (k - 1, k):
        assert matmul_mod(A[:, :t], B[:t], p).tolist() == \
            (a[:, :t] @ b[:t] % p).tolist()


def python_matmul(a, b):
    """a @ b in Python ints on nested lists: a vector times a matrix, a
    matrix times a matrix, or a stack of those pair by pair."""
    if isinstance(a[0], list) and isinstance(a[0][0], list):
        return [python_matmul(x, y) for x, y in zip(a, b)]
    if isinstance(a[0], list):
        return [python_matmul(row, b) for row in a]
    return [sum(x * row[j] for x, row in zip(a, b)) for j in range(len(b[0]))]


@pytest.mark.parametrize("bits,side", [(53, -1), (53, 0), (63, -1), (63, 0)])
@pytest.mark.parametrize("shapes", [((3,), (3, 2)), ((2, 3), (3, 2)),
                                    ((2, 2, 3), (2, 3, 2))])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_int_matmul_bounds(bits, side, shapes, dtype):
    # inner dimension 3, max|A| = a and max|B| = b both odd: an all-a row
    # times an all-b column is the bound 3ab itself, odd, just below 2^bits
    # (side -1) or at or just past it (side 0); float64 would round it past
    # 2^53 and int64 would wrap it past 2^63
    a = isqrt(2 ** bits // 3) | 1
    b = (2 ** bits - 1) // (3 * a) if side < 0 else -(-2 ** bits // (3 * a))
    if b % 2 == 0:
        b += 1 if side == 0 else -1
    assert (3 * a * b < 2 ** bits) == (side < 0)
    assert 3 * a * b < 2 ** (bits + 1)
    rng = np.random.default_rng(bits + side)
    A = rng.integers(-a, a + 1, shapes[0])
    B = rng.integers(-b, b + 1, shapes[1])
    rows = A.reshape(-1, 3)             # a view: the first row all a, and
    rows[0] = a                         # the last, unless it is the first,
    rows[1:][-1:] = -a                  # all -a
    B[..., :, 0] = b
    A, B = A.astype(dtype), B.astype(dtype)
    got = exact.int_matmul(A, B)
    assert got.dtype == (np.int64 if 3 * a * b < 2 ** 63 else object)
    assert got.tolist() == python_matmul(A.tolist(), B.tolist())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([24, 53]), st.booleans(), st.integers(1, 5),
       st.integers(1, 2 ** 26),
       st.sampled_from([((), (2,)), ((5,), (2,)), ((2,), (7,)),
                        ((2, 2), (2, 2))]),
       st.sampled_from([np.int64, object]), st.integers(0, 2 ** 32 - 1))
def test_int_matmul_float_tiers(bits, above, k, a, shape, dtype, seed):
    # inner dimension k, max|A| = a and max|B| = b with the bound k a b
    # just below 2^bits or at or just past it, reached by an all-a row of A
    # times an all-b column of B: int_matmul takes the float_tier of the
    # bound (float32 below 2^24, float64 below 2^53, none above) and agrees
    # with Python ints
    a = min(a, (2 ** bits - 1) // k)
    b = ((2 ** bits - 1) // (k * a) if not above
         else -(-2 ** bits // (k * a)) + seed % 3)
    bound = k * a * b
    assert (bound < 2 ** bits) != above
    lead, tail = shape
    rng = np.random.default_rng(seed)
    A = rng.integers(-a, a + 1, lead + (k,))
    B = rng.integers(-b, b + 1, lead[:-1] + (k,) + tail[-1:])
    A.reshape(-1, k)[0] = a
    B[..., 0] = b
    real, tiers = exact.float_tier, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "float_tier",
                   lambda x: tiers.append(real(x)) or tiers[-1])
        got = exact.int_matmul(A.astype(dtype), B.astype(dtype))
    assert tiers == [np.float32 if bound < 2 ** 24 else
                     np.float64 if bound < 2 ** 53 else None]
    assert got.dtype == np.int64
    assert got.tolist() == python_matmul(A.tolist(), B.tolist())


def first_witness_mod(N, p):
    """The associativity witness of an int64 tensor modulo p by einsum:
    exact while n max|N|^2 < 2^63."""
    d = (np.einsum("ijm,mkl->ijkl", N, N)
         - np.einsum("jkm,iml->ijkl", N, N)) % p
    bad = np.argwhere(d)
    return tuple(int(x) for x in bad[0]) if len(bad) else None


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 8, 63]),
       st.integers(1, 24) | st.sampled_from([36, 512, 1024, 4096]),
       st.lists(st.tuples(*[st.integers(0, 23)] * 3), max_size=6))
def test_prime_rule_boundary(q, terms, low):
    # the largest prime the rule yields for terms, at the largest residues
    # p - 1, with some p - 2 so that sums of terms products can be odd: a
    # float64 sum at or past 2^53 (one bit more than the rule allows) could
    # not hold them all
    p = next(primes(q, terms))
    assert (p - 1) % q == 0 and terms * (p - 1) ** 2 < 2 ** 53
    A = np.full((3, terms), p - 1.0)
    B = np.full((terms, 3), p - 1.0)
    A[1, 0] = A[2, :] = B[0, 1] = B[:, 2] = p - 2
    a, b = (x.astype(np.int64).astype(object) for x in (A, B))
    assert matmul_mod(A, B, p).tolist() == (a @ b % p).tolist()
    assert exact.floor_mod(A * A, p).tolist() == (a * a % p).tolist()
    # matmul_mod at the largest prime of all, primes(q, 1), where a sum of
    # terms products is sliced, on a stack of these residues and of random
    # ones whose products are large mod p1
    p1 = next(primes(q, 1))
    rng = np.random.default_rng(terms)
    A1, B1 = (np.stack([x + p1 - p, rng.integers(0, p1, x.shape)])
              for x in (A, B))
    a1, b1 = (x.astype(np.int64).astype(object) for x in (A1, B1))
    assert matmul_mod(A1, B1, p1).tolist() == (a1 @ b1 % p1).tolist()
    # the residue tier of the associativity scan at n = terms
    if terms <= 24:
        N = np.full((terms,) * 3, p - 1, dtype=np.int64)
        for i, j, m in low:
            if max(i, j, m) < terms:
                N[i, j, m] = N[j, i, m] = p - 2
        assert _assoc_scan(N.astype(np.float64), p, terms) == \
            first_witness_mod(N, p)


@pytest.mark.parametrize("extra", [0, 1])
def test_inverse_singular_budget(monkeypatch, extra):
    # [[1, z], [z, -1]] at q = 63 has det -1 - z^2 != 0 and h2 = 2 * 2, so
    # |N(det)| <= h2^(phi/2) = 2^36: primes with one singular image each
    # are retried while their product stays within 2^36 (one of 27 bits)
    z = zeta(63)
    s = CycArray.from_rows([[1, z], [z, -1]])
    budget, product = 0, 1
    for p in primes(63, 1):
        product *= p
        if product > 2 ** 36:
            break
        budget += 1
    assert budget == 1
    calls = []
    real = exact._inverse_mod

    def singular_first(*args):
        calls.append(args[2])
        return (None, 1) if len(calls) <= budget + extra else real(*args)
    monkeypatch.setattr(exact, "_inverse_mod", singular_first)
    if extra:
        with pytest.raises(ExactError, match="singular matrix"):
            s.inverse()
        assert len(calls) == budget + 1
    else:
        assert exact.certify_inverse(s, s.inverse())


def test_identity_needs_several_primes(monkeypatch):
    # e = 1 / N_000 reconstructs only past 2 N_000^2 > 2^81: the product of
    # at least four primes(1, 1), each below 2^27
    calls = []
    real = exact._inverse_mod

    def counting(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(exact, "_inverse_mod", counting)
    big = 2 ** 40 + 15
    ring = FusionRing(1, np.array([[[big]]], dtype=np.int64), (0,))
    e = identity_coefficients(ring)
    assert [c.rational_value() for c in e] == [Fraction(1, big)]
    assert len(calls) >= 4 and len(set(calls)) == len(calls)
