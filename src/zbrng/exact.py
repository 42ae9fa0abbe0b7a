"""Exact arithmetic: rationals, cyclotomic numbers, exact linear algebra.

Scalars live in Q(zeta_q).  A CycArray holds a whole array on the power
basis zeta_q^0 .. zeta_q^{phi(q)-1} as integer coefficients over one
denominator; its products and certified inverse are computed modulo primes.
A CycNum is one scalar on that basis with rational coefficients, reduced
modulo the q-th cyclotomic polynomial, so equality of values is equality of
coefficient dicts (at a common order): the view in which entries are parsed
and formatted and ring elements are held.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, takewhile
from math import gcd, lcm, isqrt, prod

import numpy as np

# Largest cyclotomic order a scalar may have.  Phi_q costs O(q^2) to build
# and a coefficient array holds phi(q) integers per entry.
MAX_ORDER = 1024


class ExactError(ValueError):
    pass


# ---------------------------------------------------------------------------
# cyclotomic polynomials

@lru_cache(maxsize=None)
def cyclotomic_poly(q):
    """Integer coefficient list of Phi_q, lowest degree first."""
    if q == 1:
        return (-1, 1)
    # Phi_q = (x^q - 1) / prod_{d|q, d<q} Phi_d, exact polynomial division
    num = [0] * (q + 1)
    num[0], num[q] = -1, 1
    for d in range(1, q):
        if q % d:
            continue
        den = cyclotomic_poly(d)
        quot = [0] * (len(num) - len(den) + 1)
        rem = list(num)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(den) - 1]
            quot[i] = c
            if c:
                for j, dj in enumerate(den):
                    rem[i + j] -= c * dj
        assert not any(rem), "inexact cyclotomic division"
        num = quot
    return tuple(num)


def _euler_phi(q):
    return len(cyclotomic_poly(q)) - 1


def _prime_factors(q):
    out = set()
    d = 2
    while d * d <= q:
        while q % d == 0:
            out.add(d)
            q //= d
        d += 1
    if q > 1:
        out.add(q)
    return out


def _reduce(q, coeffs):
    """Canonicalize {exponent: Fraction} at order q: exponents mod q, then
    remainder mod Phi_q.  Returns dict on exponents < phi(q), no zeros."""
    dense = [Fraction(0)] * q
    for e, c in coeffs.items():
        dense[e % q] += c
    phi = cyclotomic_poly(q)
    deg = len(phi) - 1
    for i in range(q - 1, deg - 1, -1):
        c = dense[i]
        if c:
            dense[i] = Fraction(0)
            for j in range(deg):
                dense[i - deg + j] -= c * phi[j]
    return {e: c for e, c in enumerate(dense[:deg]) if c}


class CycNum:
    """Exact element of Q(zeta_q), canonical at its stored order."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q, coeffs, reduce=True):
        if not 1 <= q <= MAX_ORDER:
            raise ExactError("cyclotomic order %d outside 1..%d"
                             % (q, MAX_ORDER))
        self.q = q
        self.coeffs = _reduce(q, coeffs) if reduce else coeffs

    # -- constructors

    @classmethod
    def from_rat(cls, value):
        c = Fraction(value)
        return cls(1, {0: c} if c else {}, reduce=False)

    # -- predicates / views

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_rational(self):
        return all(e == 0 for e in self.coeffs)

    def rational_value(self):
        if not self.is_rational():
            raise ExactError("not a rational value")
        return self.coeffs.get(0, Fraction(0))

    def to_order(self, q2):
        """Embed into Q(zeta_q2); q must divide q2."""
        if q2 == self.q:
            return self
        if q2 % self.q:
            raise ExactError("order mismatch")
        step = q2 // self.q
        return CycNum(q2, {e * step: c for e, c in self.coeffs.items()})

    # -- arithmetic

    def _common(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.from_rat(other)
        q = lcm(self.q, other.q)
        return self.to_order(q), other.to_order(q)

    def __add__(self, other):
        a, b = self._common(other)
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycNum(a.q, {e: c for e, c in out.items() if c}, reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.q, {e: -c for e, c in self.coeffs.items()}, reduce=False)

    def __mul__(self, other):
        a, b = self._common(other)
        out = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CycNum(a.q, out)

    __rmul__ = __mul__

    def conj(self):
        return CycNum(self.q, {(-e) % self.q: c for e, c in self.coeffs.items()})

    def __repr__(self):
        return "CycNum(%s)" % format_cyc(self)


# ---------------------------------------------------------------------------
# literal grammar: entry := term (('+'|'-') term)*
#                  term  := coeff | coeff '*' root | root
#                  coeff := int | int '/' posint
#                  root  := 'z' posint ['^' int]

def parse_cyc(text):
    s = text.strip()
    if not s:
        raise ExactError("syntax error at position 0: empty literal")
    pos = 0
    total = CycNum.from_rat(0)

    def fail(msg):
        raise ExactError("syntax error at position %d: %s" % (pos, msg))

    def read_int(signed=True):
        nonlocal pos
        start = pos
        if signed and pos < len(s) and s[pos] in "+-":
            pos += 1
        if pos >= len(s) or not s[pos].isdigit():
            fail("expected integer")
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    first = True
    while pos < len(s):
        sign = 1
        if not first:
            if s[pos] == "+":
                pos += 1
            elif s[pos] == "-":
                sign = -1
                pos += 1
            else:
                fail("expected '+' or '-'")
        elif s[pos] == "-":
            sign = -1
            pos += 1
        first = False
        if pos >= len(s):
            fail("dangling sign")
        coeff = Fraction(1)
        have_coeff = False
        if s[pos].isdigit():
            num = read_int(signed=False)
            den = 1
            if pos < len(s) and s[pos] == "/":
                pos += 1
                den = read_int(signed=False)
                if den == 0:
                    fail("zero denominator")
            coeff = Fraction(num, den)
            have_coeff = True
            if pos < len(s) and s[pos] == "*":
                pos += 1
                if pos >= len(s) or s[pos] != "z":
                    fail("expected root after '*'")
        if pos < len(s) and s[pos] == "z":
            pos += 1
            q = read_int(signed=False)
            if not 1 <= q <= MAX_ORDER:
                fail("order out of range 1..%d" % MAX_ORDER)
            e = 1
            if pos < len(s) and s[pos] == "^":
                pos += 1
                e = read_int(signed=True)
            term = CycNum(q, {e % q: coeff})
        elif have_coeff:
            term = CycNum.from_rat(coeff)
        else:
            fail("expected term")
        total = total + (term if sign > 0 else -term)
    return total


def format_cyc(a):
    """Canonical text form; format_cyc(parse_cyc(t)) parses back equal."""
    if a.is_zero():
        return "0"
    parts = []
    for e in sorted(a.coeffs):
        c = a.coeffs[e]
        mag = -c if c < 0 else c
        body = str(mag) if e == 0 else (
            "z%d^%d" % (a.q, e) if mag == 1 else "%s*z%d^%d" % (mag, a.q, e))
        parts.append(("-" if c < 0 else "+") + body)
    out = "".join(parts)
    return out[1:] if out[0] == "+" else out


# ---------------------------------------------------------------------------
# exact linear algebra over Q

def mat_inverse(rows):
    """Exact inverse of a square matrix of Fractions (Gauss-Jordan); raises
    ExactError("singular matrix")."""
    n = len(rows)
    aug = [list(rows[i]) + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise ExactError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        piv_inv = 1 / aug[c][c]
        aug[c] = [x * piv_inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# linear algebra over GF(p), p prime

def rref_mod(A, p):
    """(R, pivots): the reduced row echelon form mod p of an integer matrix
    (int64 entries) and its pivot columns; the rank is len(pivots).  At each
    pivot only the rows with a nonzero entry in its column are updated, and
    only from that column on (the pivot row is zero before it).  Entries
    stay residues below p and each update subtracts one product below p^2,
    so int64 is exact for every p that primes() yields.  R is the one int64
    copy of A, reduced in place."""
    R = np.array(A, dtype=np.int64)
    R %= p
    pivots = []
    for c in range(R.shape[1]):
        r = len(pivots)
        if r == R.shape[0]:
            break
        nz = np.flatnonzero(R[r:, c])
        if not nz.size:
            continue
        R[[r, r + nz[0]]] = R[[r + nz[0], r]]
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        rows = np.flatnonzero(R[:, c])
        rows = rows[rows != r]
        R[rows, c:] = (R[rows, c:] - R[rows, c, None] * R[r, c:]) % p
        pivots.append(c)
    return R, pivots


# ---------------------------------------------------------------------------
# arrays over Q(zeta_q): integer coefficient arrays over one denominator

def _maxabs(a):
    """max |a| as a Python int (exact for int64 -2^63 too), 0 when empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


# The exactness rule of every float product of integers: a float32 or float64
# sum of integers is exact while its partial sums stay below its limit here.
EXACT = {np.float32: 2 ** 24, np.float64: 2 ** 53}


def float_tier(bound):
    """The narrowest float dtype in which a sum whose partial sums are all
    integers below bound in size is exact, or None from 2^53 on."""
    return next((d for d, top in EXACT.items() if bound < top), None)


def int_dtype(bound):
    """int64 when every value is provably below bound, Python ints (object
    dtype) otherwise."""
    return np.int64 if bound < 2 ** 63 else object


def narrow_dtype(big):
    """The smallest signed integer dtype holding -big .. big: the storage
    of a ring tensor with max|N| = big (int64 from 2^31 on)."""
    return next((d for d in (np.int8, np.int16, np.int32)
                 if big <= np.iinfo(d).max), np.int64)


def int_mod(a, p):
    """a mod p for an integer array and a positive modulus, in a's dtype
    when it holds p, else in the narrowest signed dtype holding both: a
    narrow array takes no Python int past its range (NEP 50 raises
    OverflowError on int8 % 94906249)."""
    dtype = (a.dtype if p <= np.iinfo(a.dtype).max
             else np.promote_types(a.dtype, narrow_dtype(p)))
    return np.remainder(a, p, dtype=dtype)


def _fit(a):
    """An integer array in int64 when every entry fits, else in Python ints
    (object dtype)."""
    if a.dtype == object and _maxabs(a) < 2 ** 63:
        return a.astype(np.int64)
    return a


def row_keys(rows, dtype):
    """One exact key per row of a 2-d integer array held as `dtype`: a void
    view of the row's bytes, so keys are equal exactly when the rows are
    (and, for a big-endian unsigned dtype, sort as the rows do)."""
    rows = np.ascontiguousarray(rows, dtype=dtype)
    width = rows.itemsize * rows.shape[1]
    return rows.view(np.dtype((np.void, width))).ravel()


def lookup(keys, idx, want):
    """idx of each key of `want` in the sorted nonempty `keys`, -1 where
    absent."""
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    return np.where(keys[pos] == want, idx[pos], -1)


@lru_cache(maxsize=None)
def power_table(q):
    """(q, phi(q)) integer array: row k holds zeta_q^k on the power basis."""
    phi = cyclotomic_poly(q)
    deg = len(phi) - 1
    cur = [1] + [0] * (deg - 1)
    rows = []
    for _ in range(q):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c - top * f for c, f in zip(cur, phi)]
    out = _fit(np.array(rows, dtype=object))
    out.flags.writeable = False
    return out


class CycArray:
    """Array over Q(zeta_q): num holds integer coefficients on the power
    basis zeta^0 .. zeta^(phi-1) (last axis, reduced mod Phi_q, so equal
    values have equal coefficients), over one positive denominator den.
    num is int64 when a bound proves every value fits, Python ints (object
    dtype) otherwise."""

    __slots__ = ("q", "num", "den")

    def __init__(self, q, num, den):
        self.q = q
        self.num = num
        self.den = den

    @classmethod
    def from_rows(cls, rows):
        """Matrix of CycNums (or rationals) at the order of the field they
        share: the lcm of their orders, or 1 when every entry is rational."""
        flat = [e if isinstance(e, CycNum) else CycNum.from_rat(e)
                for row in rows for e in row]
        q = (1 if all(e.is_rational() for e in flat)
             else lcm(*(e.q for e in flat)))
        # a rational entry has exponent 0 only, whatever its order
        flat = [e if e.q == q else
                CycNum(q, {k * q // e.q: c for k, c in e.coeffs.items()})
                for e in flat]
        den = lcm(*(c.denominator for e in flat for c in e.coeffs.values()))
        num = np.zeros((len(flat), _euler_phi(q)), dtype=object)
        for x, e in enumerate(flat):
            for k, c in e.coeffs.items():
                num[x, k] = int(c * den)
        return cls(q, _fit(num.reshape(len(rows), len(rows[0]), -1)), den)

    def __getitem__(self, idx):
        """Indexing on the leading (entry) axes."""
        return CycArray(self.q, self.num[idx], self.den)

    @property
    def T(self):
        return CycArray(self.q, self.num.swapaxes(0, 1), self.den)

    def entry(self, l, i):
        """Entry (l, i) of a matrix as a CycNum at order q."""
        return CycNum(self.q, {k: Fraction(c, self.den) for k, c in
                               enumerate(self.num[l, i].tolist()) if c},
                      reduce=False)

    def _product(self, other, op, terms):
        """op(a, b, p) (matmul_mod summing terms products, or one product)
        root by root on the images mod _transform_primes(q, terms), until
        the modulus passes twice the coefficient bound; it sets the dtype."""
        if other.q != self.q:
            raise ExactError("order mismatch")
        phi = self.num.shape[-1]
        bound = (terms * phi * _maxabs(self.num) * _maxabs(other.num)
                 * (2 * phi - 1) * _maxabs(power_table(self.q)[:2 * phi - 1]))
        residues, modulus = None, 1
        for p in _transform_primes(self.q, terms):
            V, Vi = _nodes(self.q, p)
            y = op(*(_images(V, x.num, p) for x in (self, other)), p)
            y = matmul_mod(Vi, y.reshape(phi, -1), p).reshape(y.shape)
            residues, modulus = _crt(residues, modulus, y.astype(np.int64), p)
            if modulus > 2 * bound:
                break
        else:
            raise ExactError("coefficients too large")
        residues[residues > modulus // 2] -= modulus  # |coeff| < modulus / 2
        return CycArray(self.q, np.moveaxis(residues, 0, -1).astype(
            int_dtype(bound), copy=False), self.den * other.den)

    def __mul__(self, other):
        """Entrywise product, broadcasting leading axes of equal count."""
        return self._product(other, lambda a, b, p: floor_mod(a * b, p), 1)

    def __sub__(self, other):
        """Entrywise difference of two arrays over one order and one
        denominator, in Python ints when int64 cannot hold it."""
        if (other.q, other.den) != (self.q, self.den):
            raise ExactError("order or denominator mismatch")
        dtype = int_dtype(_maxabs(self.num) + _maxabs(other.num))
        return CycArray(self.q, self.num.astype(dtype, copy=False)
                        - other.num.astype(dtype, copy=False), self.den)

    def __matmul__(self, other):
        """Matrix product of two 2-d arrays."""
        return self._product(other, matmul_mod, self.num.shape[1])

    def is_nonzero(self):
        return np.any(self.num != 0, axis=-1)

    def integers(self):
        """(values, ok): ok marks the entries that are rational integers,
        values holds those integers (other positions are meaningless)."""
        num = self.num
        ok = (~np.any(num[..., 1:] != 0, axis=-1)
              & (num[..., 0] % self.den == 0))
        return num[..., 0] // self.den, ok

    def conj(self):
        table = power_table(self.q)
        flip = table[-np.arange(table.shape[1]) % self.q]
        return CycArray(self.q, int_matmul(self.num, flip), self.den)

    def embed(self):
        """Complex values, zeta_q = exp(2 pi i / q)."""
        phi = self.num.shape[-1]
        z = np.exp(2j * np.pi * np.arange(phi) / self.q)
        return self.num.astype(np.float64) @ z / self.den

    def intern(self):
        """(ids, conj, zero): an int32 id per entry, equal exactly when the
        values are equal; conj[k] is the id of the conjugate of value k
        (values absent from the array get new ids); zero is the id of 0."""
        phi = self.num.shape[-1]
        table = {}
        flat = self.num.reshape(-1, phi)
        ids = np.array([table.setdefault(t, len(table))
                        for t in map(tuple, flat.tolist())], dtype=np.int32)
        distinct = np.array(list(table), dtype=flat.dtype).reshape(-1, phi)
        conj = CycArray(self.q, distinct, 1).conj().num
        conj_ids = np.array([table.setdefault(t, len(table))
                             for t in map(tuple, conj.tolist())],
                            dtype=np.int32)
        zero = table.setdefault((0,) * phi, len(table))
        return ids.reshape(self.num.shape[:-1]), conj_ids, zero

    def inverse(self):
        """Exact inverse of a square matrix by modular images (Dixon, Numer.
        Math. 1982): at the _transform_primes(q, 1), the images at the
        phi(q) primitive q-th roots of unity of GF(p) are inverted,
        interpolated back, combined by CRT and reconstructed, and returned
        once certify_inverse holds.  Each of k images singular mod p is a
        prime ideal of norm p dividing det, so p^k divides N(det), nonzero
        and at most h2^(phi/2) (Hadamard) if det != 0: ExactError("singular
        matrix") once the product of those p^k passes that."""
        num = self.num
        phi = num.shape[-1]
        h2 = prod(sum(x * x for x in row) for row in
                  np.abs(num.astype(object)).sum(axis=-1).tolist())
        failed, used, residues, modulus = 1, 0, None, 1
        for p in _transform_primes(self.q, 1):
            y, singular = _inverse_mod(num, self.q, p)
            if singular:
                failed *= p ** singular
                if failed ** 2 > h2 ** phi:
                    raise ExactError("singular matrix")
                continue
            residues, modulus = _crt(residues, modulus, y, p)
            used += 1
            # reconstruct after 1, 2, 4, ... primes: linear total cost
            if used & (used - 1):
                continue
            found = _reconstruct(residues.astype(object), modulus)
            if found is not None:
                inv = CycArray(self.q, _fit(found[0] * self.den), found[1])
                if certify_inverse(self, inv):
                    return inv
        raise ExactError("coefficients too large")


def certify_inverse(a, b):
    """True iff a @ b is exactly the identity matrix."""
    vals, ok = (a @ b).integers()
    return bool(ok.all() and (vals == np.eye(len(vals), dtype=int)).all())


def is_prime(m):
    """Deterministic Miller-Rabin for m < 3,215,031,751."""
    bases = (2, 3, 5, 7)
    if m < 2 or any(m % b == 0 for b in bases):
        return m in bases
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def primes(q, terms):
    """Primes p = 1 (mod q) with terms * (p - 1)^2 < 2^53, largest first,
    the prime-size rule of every modular kernel: a float64 sum of terms
    products of residues below p is then exact (EXACT, matmul_mod)."""
    step = lcm(q, 2)
    p = isqrt((EXACT[np.float64] - 1) // terms) // step * step + 1
    for top in range(p, 2, -64 * step):
        yield from _primes_among(top, step)


def _transform_primes(q, terms):
    """primes(q, 1), first those at which each phi(q)-term transform at the
    roots of unity and each terms-term sum is one BLAS product (the primes(q,
    max(phi, terms))), then the larger ones, where matmul_mod slices them."""
    fast = primes(q, max(_euler_phi(q), terms))
    top = next(fast)
    return chain([top], fast, takewhile(lambda p: p > top, primes(q, 1)))


@lru_cache(maxsize=4096)
def _primes_among(top, step):
    """The primes among 64 candidates top, top - step, ... above 2."""
    return tuple(filter(is_prime, range(top, max(top - 64 * step, 2), -step)))


def floor_mod(d, p):
    """d mod p in place, as d - p floor(d / p), for float32 or float64
    integers below EXACT of their dtype in size: d / p is then an integer or
    at least 1/p, over half an ulp, from one, so every step is exact."""
    q = d / p
    d -= np.multiply(np.floor(q, out=q), p, out=q)
    return d


def matmul_mod(A, B, p):
    """A @ B mod p for arrays of residues below p, one of them float64, at
    any p that primes() yields: one BLAS product reduced by floor_mod while
    A.shape[-1] (p - 1)^2 < 2^53 (EXACT); past that, B a matrix or a stack
    of them, one per slice of (2^53 - 1) // (p - 1)^2 terms of the inner
    axis, the slices summed."""
    if A.shape[-1] * (p - 1) ** 2 < EXACT[np.float64]:
        return floor_mod(A @ B, p)
    k = (EXACT[np.float64] - 1) // (p - 1) ** 2
    out = floor_mod(A[..., :k] @ B[..., :k, :], p)
    for e in range(k, A.shape[-1], k):
        out += floor_mod(A[..., e:e + k] @ B[..., e:e + k, :], p)
    return floor_mod(out, p)


def int_matmul(A, B):
    """A @ B exactly, for integer arrays of any signed dtype or Python ints
    (object dtype), shaped as np.matmul takes them.  Every partial sum is
    at most A.shape[-1] max|A| max|B|: below 2^53 the BLAS products run in
    the float_tier of that bound and the result is int64, below 2^63 the
    products run in int64, and above that in Python ints.  The larger
    operand is promoted a slab of 2^18 entries at a time (B's columns when
    B is a matrix, else A's leading axis when B has at most two), so a
    product with a ring tensor copies no more of it than a slab."""
    bound = A.shape[-1] * _maxabs(A) * _maxabs(B)
    dtype = int_dtype(bound)
    work = float_tier(bound) or dtype
    if B.ndim == 2 and B.size > A.size:
        step = _slab(B.shape[0])
        out = np.empty(A.shape[:-1] + B.shape[1:], dtype=dtype)
        a = A.astype(work, copy=False)
        for lo in range(0, B.shape[1], step):
            out[..., lo:lo + step] = a @ B[:, lo:lo + step].astype(work)
        return out
    if A.ndim >= 2 and B.ndim <= 2 and A.size > B.size:
        step = _slab(A[0].size)
        out = np.empty(A.shape[:-1] + B.shape[1:], dtype=dtype)
        b = B.astype(work, copy=False)
        for lo in range(0, len(A), step):
            out[lo:lo + step] = A[lo:lo + step].astype(work) @ b
        return out
    return (A.astype(work, copy=False) @ B.astype(work, copy=False)).astype(
        dtype, copy=False)


def _slab(width):
    """How many rows of width entries make a slab of 2^18 entries (at
    least one)."""
    return max(1, 2 ** 18 // max(1, width))


@lru_cache(maxsize=16)
def _nodes(q, p):
    """Evaluation matrix V (V[t, e] = w_t^e for the primitive q-th roots
    w_t of unity in GF(p), in order of exponent) and its inverse mod p,
    whose column t is the Lagrange polynomial Phi_q(x) / ((x - w_t)
    Phi_q'(w_t)); both float64, for matmul_mod."""
    poly = cyclotomic_poly(q)
    phi = len(poly) - 1
    w = next(w for w in (pow(a, (p - 1) // q, p) for a in range(2, p))
             if all(pow(w, q // r, p) != 1 for r in _prime_factors(q)))
    powers = np.array([pow(w, j, p) for j in range(q)], dtype=np.int64)
    units = np.array([t for t in range(q) if gcd(t, q) == 1])
    V = powers[np.outer(units, np.arange(phi)) % q]
    # synthetic division of Phi_q by every x - w_t (row k: the coefficients
    # of x^k); Phi_q'(w_t) sums phi < 2^10 products below 2^53 in int64
    quot = np.zeros((phi, phi), dtype=np.int64)
    quot[phi - 1] = 1
    for k in range(phi - 1, 0, -1):
        quot[k - 1] = (poly[k] + powers[units] * quot[k]) % p
    scale = [pow(int(x), -1, p) for x in (quot * V.T).sum(axis=0) % p]
    V, Vi = V.astype(np.float64), (quot * scale % p).astype(np.float64)
    V.flags.writeable = Vi.flags.writeable = False
    return V, Vi


def _images(V, num, p):
    """The images mod p of an integer coefficient array num (..., phi) at
    the roots of V, root axis first: out[t] = sum_e V[t, e] num[..., e]."""
    flat = (num % p).astype(np.float64).reshape(-1, num.shape[-1]).T
    return matmul_mod(V, flat, p).reshape((-1,) + num.shape[:-1])


def _crt(x, modulus, y, p):
    """(z, modulus * p): 0 <= z < modulus * p with z = x (mod modulus, x is
    None at 1) and y (mod p); z is x updated, in Python ints past 2^63."""
    if x is None:
        return y, p
    x = x.astype(int_dtype(modulus * p), copy=False)
    t = x % p
    np.subtract(y, t, out=t)
    t *= pow(modulus, -1, p)
    t %= p
    t *= modulus
    x += t
    return x, modulus * p


def _inverse_mod(num, q, p):
    """(y, k): the coefficients y mod p of the inverse of the integer
    coefficient matrix num (n, n, phi(q)), or y = None when k > 0 of its
    images at the roots of unity are singular mod p: rref_mod of [A_t | I]
    for each image A_t, singular exactly when the pivots are not 0..n-1."""
    V, Vi = _nodes(q, p)
    n = num.shape[0]
    eye = np.eye(n, dtype=np.int64)
    images = [rref_mod(np.hstack([A, eye]), p)
              for A in _images(V, num, p).astype(np.int64)]
    singular = sum(pivots != list(range(n)) for _, pivots in images)
    if singular:
        return None, singular
    y = _images(Vi, np.stack([R[:, n:] for R, _ in images], axis=-1), p)
    return np.moveaxis(y, 0, -1).astype(np.int64), 0


def _reconstruct(x, modulus):
    """Rational reconstruction over one common denominator: (Y, e) with
    Y = e * x (mod modulus) and every |Y| and e at most sqrt(modulus / 2),
    or None when no such pair is found."""
    bound = isqrt(modulus // 2)
    flat = x.ravel()
    den = 1
    while True:
        v = flat * den % modulus
        v = np.where(v > modulus // 2, v - modulus, v)
        big = np.flatnonzero(np.abs(v) > bound)
        if not big.size:
            return v.reshape(x.shape), den
        # half-extended Euclid on one residue that den does not clear yet
        r0, r1, t0, t1 = modulus, int(v[big[0]]) % modulus, 0, 1
        while r1 > bound:
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        if t1 == 0 or den * abs(t1) > bound:
            return None
        den *= abs(t1)
