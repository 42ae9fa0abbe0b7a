"""CycNum arithmetic that only the tests use, as an oracle for the
coefficient-array kernels: roots of unity, equality, integer values, the
Galois action, inverse, quotient and difference of cyclotomic numbers, a
Gauss-Jordan inverse over CycNums or Fractions, entry keys, complex values
and the root-of-unity factor.  zbrng computes over Q(zeta_q) with CycArray
and keeps CycNum for parsing, formatting and the acceptance gate's rational
reads."""

from fractions import Fraction
from math import cos, gcd, isqrt, pi, sin

from zbrng.exact import CycNum, ExactError


def zeta(q, e=1):
    """zeta_q^e."""
    return CycNum(q, {e: Fraction(1)})


def equal(a, b):
    """a = b for CycNums or rationals, or entry by entry for nested lists
    of them: their difference is zero."""
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list)
                and len(a) == len(b) and all(map(equal, a, b)))
    return (CycNum.from_rat(0) + a + -b).is_zero()


def exact_int(c):
    """The integer value of an int, Fraction or CycNum, or None if it is not
    an integer."""
    if isinstance(c, CycNum):
        if not c.is_rational():
            return None
        c = c.rational_value()
    return c.numerator if c.denominator == 1 else None


def galois(x, t):
    """x with zeta -> zeta^t; t must be coprime to the order of x."""
    if gcd(t, x.q) != 1:
        raise ExactError("galois exponent not coprime to order")
    return CycNum(x.q, {(t * e) % x.q: c for e, c in x.coeffs.items()})


def inv(x):
    """1 / x: the product of the nontrivial Galois conjugates of x over the
    field norm, x times that product, a nonzero rational."""
    if x.is_zero():
        raise ZeroDivisionError("cyclotomic division by zero")
    conj = CycNum.from_rat(1)
    for t in range(2, x.q):
        if gcd(t, x.q) == 1:
            conj = conj * galois(x, t)
    return conj * (1 / (x * conj).rational_value())


def div(a, b):
    """a / b for CycNums, Fractions or ints."""
    return a * inv(b) if isinstance(b, CycNum) else a / Fraction(b)


def sub(a, b):
    return a + (-b)


def mat_inverse(rows):
    """Exact inverse of a square matrix of CycNums or Fractions
    (Gauss-Jordan); raises ExactError("singular matrix")."""
    n = len(rows)
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise ExactError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        piv_inv = div(1, aug[c][c])
        aug[c] = [x * piv_inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [sub(x, f * y) for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def key(x):
    """The power-basis coefficients of x at its stored order: equal exactly
    when the values are, for entries of one order (as all entries of one
    SMatrix.rows are)."""
    return tuple(sorted(x.coeffs.items()))


def embed(x):
    """The complex value of x in double precision, zeta_q =
    exp(2 pi i / q)."""
    re = im = 0.0
    for e, c in x.coeffs.items():
        t = 2.0 * pi * e / x.q
        re += c * cos(t)
        im += c * sin(t)
    return complex(re, im)


def root_of_unity_factor(x):
    """(mu, w) with x = mu * w, mu a positive integer and w a root of unity,
    or None: mu^2 = x conj(x) and w one of the +-zeta_q^e."""
    if x.is_zero():
        return None
    n2 = x * x.conj()
    if not n2.is_rational():
        return None
    n2 = n2.rational_value()
    if n2.denominator != 1:
        return None
    mu = isqrt(n2.numerator)
    if mu * mu != n2.numerator:
        return None
    w = x * Fraction(1, mu)
    for e in range(w.q):
        z = zeta(w.q, e)
        if equal(w, z) or equal(w, -z):
            return mu, w
    return None
