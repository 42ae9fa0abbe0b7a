import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import zbrng.exact as exact
from zbrng.exact import (CycArray, CycNum, ExactError, cyclotomic_poly,
                         format_cyc, int_dtype, kernel_mod, mat_inverse,
                         parse_cyc, power_table, primes, rref_mod)
from zbrng.rng_core import FusionRing, identity_coefficients


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
    z3 = CycNum.zeta(3)
    assert z3 * z3 * z3 == CycNum.from_rat(1)
    assert z3 + z3.conj() == CycNum.from_rat(-1)
    z8 = CycNum.zeta(8)
    assert (z8 ** 2) * (z8 ** 2) == CycNum.from_rat(-1)
    assert z8 ** -1 == z8.conj()


def test_arith_random():
    rnd = random.Random(7)
    z = CycNum.zeta(12)
    vals = [sum((z ** k) * CycNum.from_rat(rnd.randint(-3, 3))
                for k in range(4)) for _ in range(8)]
    for a in vals:
        for b in vals:
            assert (a + b) - b == a
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a


def test_galois_fixes_rationals():
    a = CycNum.from_rat(Fraction(3, 7))
    assert a.galois(5) == a
    z5 = CycNum.zeta(5)
    assert z5.galois(2) == z5 * z5


def test_key_canonical_across_orders():
    z3 = CycNum.zeta(3)
    same = z3.to_order(12)
    assert z3.key() == same.key() and hash(z3) == hash(same)
    # zeta_6 = 1 + zeta_3
    z6 = CycNum.zeta(6)
    assert z6.key() == (CycNum.from_rat(1) + z3).key()
    one = CycNum.zeta(5) / CycNum.zeta(5)
    assert one.key() == CycNum.from_rat(1).key()


def test_is_integer_and_rational_value():
    a = CycNum.from_rat(Fraction(4, 2))
    assert a.is_integer() and a.rational_value() == 2
    assert not CycNum.from_rat(Fraction(1, 2)).is_integer()
    with pytest.raises(ExactError):
        CycNum.zeta(3).rational_value()


@pytest.mark.parametrize("a,mu,root_pow", [
    (CycNum.from_rat(3), 3, None),
    (CycNum.from_rat(-2), 2, None),
    (CycNum.zeta(3) * CycNum.from_rat(5), 5, 1),
])
def test_root_of_unity_factor(a, mu, root_pow):
    got = a.root_of_unity_factor()
    assert got is not None
    m, w = got
    assert m == mu and a == w * CycNum.from_rat(mu)


def test_root_of_unity_factor_rejects():
    assert CycNum.from_rat(0).root_of_unity_factor() is None
    assert (CycNum.from_rat(1) + CycNum.zeta(3)
            + CycNum.from_rat(3)).root_of_unity_factor() is None


def test_parse_format_roundtrip():
    rnd = random.Random(3)
    for _ in range(20):
        q = rnd.choice([1, 2, 3, 4, 6, 8, 12])
        a = CycNum(q, {k: Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
                       for k in range(max(1, q // 2))})
        assert parse_cyc(format_cyc(a)) == a


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
    # the rational case over a large prime: rank and kernel as over Q
    p = 2 ** 31 - 1
    M = [[1, 2, 3],
         [2, 4, 6]]
    assert len(rref_mod(M, p)[1]) == 1
    ker = kernel_mod(M, p)
    assert len(ker) == 2
    for v in ker.tolist():
        for row in M:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


def test_cyc_matrix_inverse():
    z = CycNum.zeta(3)
    one = CycNum.from_rat(1)
    rows = [[one, one, one],
            [one, z, z * z],
            [one, z * z, z]]
    inv = mat_inverse(rows)
    for i in range(3):
        for j in range(3):
            acc = CycNum.from_rat(0)
            for k in range(3):
                acc = acc + rows[i][k] * inv[k][j]
            assert acc == CycNum.from_rat(int(i == j))
    with pytest.raises(ExactError):
        mat_inverse([[one, one], [one, one]])


def test_gf_linear_algebra():
    rows = [[1, 2, 0], [2, 4, 0], [0, 0, 1]]
    assert len(rref_mod(rows, 5)[1]) == 2
    ker = kernel_mod(rows, 5)
    assert len(ker) == 1
    v = ker[0].tolist()
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) % 5 == 0
    ech, pivots = rref_mod([[1, 1], [1, 0]], 2)
    assert pivots == [0, 1] and ech.tolist() == [[1, 0], [0, 1]]


def test_gf_kernel_full_rank_empty():
    assert kernel_mod([[1, 0], [0, 1]], 3).tolist() == []


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
    V, Vi = exact._nodes(q, p)
    images = batched_gauss_jordan(
        exact._apply_mod(V, (num % p).astype(np.int64), p), p)
    if images is None:
        return None
    return np.moveaxis(exact._apply_mod(Vi, np.moveaxis(images, 0, -1), p),
                       0, -1)


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
    p = next(primes(q, (63 - phi.bit_length()) // 2))
    rng = np.random.default_rng(q)
    for n in (1, 2, 5):
        num = rng.integers(-50, 51, size=(n, n, phi))
        got = exact._inverse_mod(num, q, p)
        assert got is not None
        assert np.array_equal(got, oracle_inverse_mod(num, q, p))
    # singular at every root: two equal rows
    num = rng.integers(-5, 6, size=(3, 3, phi))
    num[1] = num[0]
    assert exact._inverse_mod(num, q, p) is None
    assert oracle_inverse_mod(num, q, p) is None


@pytest.mark.parametrize("q", [3, 4, 8])
def test_inverse_mod_singular_at_one_root(q):
    # diag(zeta - w_0, 1) with w_0 the first primitive root mod p: its image
    # vanishes at w_0 only, and one singular image makes the prime fail
    phi = len(cyclotomic_poly(q)) - 1
    p = next(primes(q, (63 - phi.bit_length()) // 2))
    w0 = int(exact._nodes(q, p)[0][0, 1])
    num = np.zeros((2, 2, phi), dtype=np.int64)
    num[0, 0, :2] = (-w0, 1)
    num[1, 1, 0] = 1
    assert exact._inverse_mod(num, q, p) is None
    assert oracle_inverse_mod(num, q, p) is None
    num[0, 0, 0] += 1
    assert np.array_equal(exact._inverse_mod(num, q, p),
                          oracle_inverse_mod(num, q, p))


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
EDGE = next(primes(1, 31)) - 1


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


def test_product_out_of_primes(monkeypatch):
    # one prime below 2^31 cannot hold the coefficient 2^62 of 2^31 * 2^31
    real = exact.primes
    monkeypatch.setattr(exact, "primes",
                        lambda q, bits: itertools.islice(real(q, bits), 1))
    x = cyc_array(1, [[[2 ** 31]]])
    with pytest.raises(ExactError, match="coefficients too large"):
        x * x


def test_apply_mod_refuses_to_wrap():
    q, p = 8, next(primes(8, 31))
    V = exact._nodes(q, p)[0]
    with pytest.raises(ValueError, match="modulus too large"):
        exact._apply_mod(V, np.zeros((1, 4), dtype=np.int64), p)


@pytest.mark.parametrize("extra", [0, 1])
def test_inverse_singular_budget(monkeypatch, extra):
    # [[1, z], [z, -1]] at q = 63 has det -1 - z^2 != 0 and h2 = 2 * 2: the
    # budget is phi * 3 // (2 * 28 - 2) = 2 primes of 28 bits (1 at // 60)
    z = CycNum.zeta(63)
    s = CycArray.from_rows([[1, z], [z, -1]])
    calls = []
    real = exact._inverse_mod

    def singular_first(*args):
        calls.append(args[2])
        return None if len(calls) <= 2 + extra else real(*args)
    monkeypatch.setattr(exact, "_inverse_mod", singular_first)
    if extra:
        with pytest.raises(ExactError, match="singular matrix"):
            s.inverse()
        assert len(calls) == 3
    else:
        assert exact.certify_inverse(s, s.inverse())


def test_identity_needs_several_primes(monkeypatch):
    # e = 1 / N_000 reconstructs only past 2 N_000^2 > 2^81: the product of
    # at least three primes below 2^31
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
    assert len(calls) >= 3 and len(set(calls)) == len(calls)
