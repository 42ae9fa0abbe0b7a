import random
from fractions import Fraction

import pytest

from zbrng.exact import (CycNum, ExactError, cyclotomic_poly, format_cyc,
                         kernel_mod, mat_inverse, parse_cyc, rat_solve,
                         rref_mod)


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


def test_rat_solve_and_inverse():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
    x = rat_solve(A, [Fraction(5), Fraction(10)])
    assert x == [Fraction(1), Fraction(3)]
    Ainv = mat_inverse(A)
    ident = [[sum(A[i][k] * Ainv[k][j] for k in range(2)) for j in range(2)]
             for i in range(2)]
    assert ident == [[1, 0], [0, 1]]
    with pytest.raises(ExactError):
        mat_inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ExactError):
        rat_solve([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
                  [Fraction(0), Fraction(1)])


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
