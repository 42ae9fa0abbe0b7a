"""Exact arithmetic: rationals, cyclotomic numbers, exact linear algebra.

Scalars live in Q(zeta_q).  A CycNum stores rational coefficients on the
power basis zeta_q^0 .. zeta_q^{phi(q)-1}; reduction modulo the q-th
cyclotomic polynomial makes the representation canonical, so equality of
values is equality of coefficient dicts (at a common order).  A CycArray
holds a whole array on the same basis as integer coefficients over one
denominator; its inverse is computed modulo primes and certified exactly.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, cos, sin, pi, isqrt

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

    @classmethod
    def zeta(cls, q, e=1):
        return cls(q, {e: Fraction(1)})

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

    def is_integer(self):
        return self.is_rational() and self.rational_value().denominator == 1

    def to_order(self, q2):
        """Embed into Q(zeta_q2); q must divide q2."""
        if q2 == self.q:
            return self
        if q2 % self.q:
            raise ExactError("order mismatch")
        step = q2 // self.q
        return CycNum(q2, {e * step: c for e, c in self.coeffs.items()})

    def key(self):
        """Hashable canonical key, independent of the storage order."""
        if self.is_rational():
            v = self.rational_value()
            return (1, ((0, v),) if v else ())
        x = self._minimal_order()
        return (x.q, tuple(sorted(x.coeffs.items())))

    def _minimal_order(self):
        """Re-express in the smallest cyclotomic field Q(zeta_d), d | q."""
        x = self
        changed = True
        while changed:
            changed = False
            q = x.q
            for p in sorted(_prime_factors(q)):
                d = q // p
                if d < 2:
                    continue
                fixed = all(x.galois(t) == x for t in range(1, q)
                            if gcd(t, q) == 1 and t % d == 1)
                if fixed:
                    x = x._descend(d)
                    changed = True
                    break
        return x

    def _descend(self, d):
        """Rewrite in the power basis of Q(zeta_d); assumes membership.  The
        embedding A of that basis has full column rank, so the coordinates
        solve the normal equations (A^T A) x = A^T b."""
        phi_q, phi_d = _euler_phi(self.q), _euler_phi(d)
        A = [[Fraction(0)] * phi_d for _ in range(phi_q)]
        for f in range(phi_d):
            emb = CycNum(d, {f: Fraction(1)}).to_order(self.q)
            for e, c in emb.coeffs.items():
                A[e][f] = c
        b = [self.coeffs.get(e, Fraction(0)) for e in range(phi_q)]
        cols = list(zip(*A))
        gram = [[sum(x * y for x, y in zip(u, v)) for v in cols] for u in cols]
        rhs = [sum(x * y for x, y in zip(u, b)) for u in cols]
        sol = [sum(x * y for x, y in zip(row, rhs))
               for row in mat_inverse(gram)]
        return CycNum(d, {f: sol[f] for f in range(phi_d) if sol[f]},
                      reduce=False)

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

    def __sub__(self, other):
        a, b = self._common(other)
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._common(other)
        out = {}
        for e1, c1 in a.coeffs.items():
            for e2, c2 in b.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CycNum(a.q, out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        out = CycNum.from_rat(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def conj(self):
        return CycNum(self.q, {(-e) % self.q: c for e, c in self.coeffs.items()})

    def galois(self, t):
        """Apply zeta -> zeta^t; t must be coprime to q."""
        if gcd(t, self.q) != 1:
            raise ExactError("galois exponent not coprime to order")
        return CycNum(self.q, {(t * e) % self.q: c for e, c in self.coeffs.items()})

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.is_rational():
            return CycNum.from_rat(1 / self.rational_value())
        # multiply by all nontrivial Galois conjugates; the product with self
        # is the field norm, a nonzero rational
        prod = CycNum.from_rat(1)
        for t in range(2, self.q):
            if gcd(t, self.q) == 1:
                prod = prod * self.galois(t)
        norm = (self * prod).rational_value()
        return prod * CycNum.from_rat(Fraction(1) / norm)

    def __truediv__(self, other):
        if not isinstance(other, CycNum):
            other = CycNum.from_rat(other)
        return self * other.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycNum.from_rat(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash(self.key())

    def embed(self):
        """Double-precision complex value, zeta_q = exp(2*pi*i/q)."""
        re = im = 0.0
        for e, c in self.coeffs.items():
            t = 2.0 * pi * e / self.q
            re += c * cos(t)
            im += c * sin(t)
        return complex(re, im)

    def root_of_unity_factor(self):
        """If self = mu * w with mu a positive integer and w a root of unity,
        return (mu, w); otherwise None."""
        if self.is_zero():
            return None
        n2 = (self * self.conj())
        if not n2.is_rational():
            return None
        n2 = n2.rational_value()
        if n2.denominator != 1:
            return None
        mu = isqrt(n2.numerator)
        if mu * mu != n2.numerator:
            return None
        w = self * Fraction(1, mu)
        # roots of unity in Q(zeta_q) are +-zeta_q^e
        for e in range(w.q):
            z = CycNum.zeta(w.q, e)
            if w == z or w == -z:
                return mu, w
        return None

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
# exact linear algebra: one inverse over Fractions or CycNums

def exact_int(c):
    """The integer value of an int, Fraction or CycNum, or None if it is not
    an integer."""
    if isinstance(c, CycNum):
        if not c.is_rational():
            return None
        c = c.rational_value()
    return c.numerator if c.denominator == 1 else None


def mat_inverse(rows):
    """Exact inverse of a square matrix of Fractions or of CycNums
    (Gauss-Jordan); raises ExactError("singular matrix")."""
    n = len(rows)
    unit = CycNum.from_rat if isinstance(rows[0][0], CycNum) else Fraction
    zero, one = unit(0), unit(1)
    aug = [list(rows[i]) + [one if i == j else zero for j in range(n)]
           for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if aug[i][c]), None)
        if p is None:
            raise ExactError("singular matrix")
        aug[c], aug[p] = aug[p], aug[c]
        piv_inv = one / aug[c][c]
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
    so int64 is exact for p < 2^31."""
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
        R[r, c:] = R[r, c:] * pow(int(R[r, c]), -1, p) % p
        rows = np.flatnonzero(R[:, c])
        rows = rows[rows != r]
        R[rows, c:] = (R[rows, c:] - R[rows, c, None] * R[r, c:]) % p
        pivots.append(c)
    return R, pivots


def kernel_mod(A, p):
    """Basis of the right kernel of A mod p, one residue vector per row: the
    vector of free column c has 1 at c and minus column c of R at the
    pivots."""
    R, pivots = rref_mod(A, p)
    free = np.setdiff1d(np.arange(R.shape[1]), pivots)
    K = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = -R[:len(pivots), free].T % p
    return K


# ---------------------------------------------------------------------------
# arrays over Q(zeta_q): integer coefficient arrays over one denominator

def _maxabs(a):
    """max |a| as a Python int (exact for int64 -2^63 too), 0 when empty."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_dtype(bound):
    """int64 when every value is provably below bound, Python ints (object
    dtype) otherwise."""
    return np.int64 if bound < 2 ** 63 else object


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


@lru_cache(maxsize=None)
def _reduction(q):
    """(2 phi - 1, phi) matrix taking a product of two power-basis
    coefficient vectors (a convolution) back to the power basis."""
    out = power_table(q)[np.arange(2 * _euler_phi(q) - 1) % q]
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

    def _operands(self, other, terms):
        """Both coefficient arrays in one dtype: int64 when the reduced
        product, whose raw coefficients each sum terms * phi products,
        provably fits, Python ints otherwise."""
        if other.q != self.q:
            raise ExactError("order mismatch")
        phi = self.num.shape[-1]
        bound = (terms * phi * _maxabs(self.num) * _maxabs(other.num)
                 * (2 * phi - 1) * _maxabs(_reduction(self.q)))
        dtype = int_dtype(bound)
        return (self.num.astype(dtype, copy=False),
                other.num.astype(dtype, copy=False))

    def _reduced(self, raw, other):
        red = _reduction(self.q).astype(raw.dtype, copy=False)
        return CycArray(self.q, raw @ red, self.den * other.den)

    def __mul__(self, other):
        """Entrywise product, broadcasting the leading axes."""
        a, b = self._operands(other, 1)
        phi = a.shape[-1]
        raw = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
                       + (2 * phi - 1,), dtype=a.dtype)
        for e in range(phi):
            raw[..., e:e + phi] += a[..., e:e + 1] * b
        return self._reduced(raw, other)

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
        a, b = self._operands(other, self.num.shape[1])
        k, m, phi = a.shape
        cols = b.shape[1]
        flat = b.reshape(m, cols * phi)
        raw = np.zeros((k, cols, 2 * phi - 1), dtype=a.dtype)
        for e in range(phi):
            raw[:, :, e:e + phi] += (a[:, :, e] @ flat).reshape(k, cols, phi)
        return self._reduced(raw, other)

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
        phi = table.shape[1]
        flip = table[-np.arange(phi) % self.q]
        dtype = int_dtype(phi * _maxabs(self.num) * _maxabs(flip))
        return CycArray(self.q, self.num.astype(dtype) @ flip.astype(dtype),
                        self.den)

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
        Math. 1982): for primes p = 1 (mod q) below 2^31, the images at the
        phi(q) primitive q-th roots of unity of GF(p) are inverted and
        interpolated back; the primes are combined by CRT, the rationals
        recovered by reconstruction, and the result is returned only once
        certify_inverse holds.  Raises ExactError("singular matrix") once
        more primes were singular than can divide the norm of det, a nonzero
        integer bounded by Hadamard's inequality."""
        num = self.num
        phi = num.shape[-1]
        # |N(det)|^2 <= h2^phi, and each prime used exceeds 2^30
        h2 = 1
        for row in np.abs(num.astype(object)).sum(axis=-1).tolist():
            h2 *= sum(x * x for x in row)
        max_singular = phi * h2.bit_length() // 60
        singular = used = 0
        residues, modulus = None, 1
        for p in primes(self.q, 31):
            y = _inverse_mod(num, self.q, p)
            if y is None:
                singular += 1
                if singular > max_singular:
                    raise ExactError("singular matrix")
                continue
            if residues is None:
                residues = y.astype(object)
            else:
                t = (y - residues % p) * pow(modulus, -1, p) % p
                residues = residues + modulus * t
            modulus *= p
            used += 1
            # reconstruct after 1, 2, 4, ... primes: linear total cost
            if used & (used - 1):
                continue
            found = _reconstruct(residues, modulus)
            if found is not None:
                inv = CycArray(self.q, _fit(found[0] * self.den), found[1])
                if certify_inverse(self, inv):
                    return inv


def certify_inverse(a, b):
    """True iff a @ b is exactly the identity matrix."""
    prod = a @ b
    num = prod.num
    eye = np.eye(num.shape[0], dtype=bool)
    return (not np.any(num[..., 1:] != 0)
            and bool(np.all(num[..., 0][eye] == prod.den))
            and not np.any(num[..., 0][~eye] != 0))


def is_prime(m):
    """Deterministic Miller-Rabin for m < 3,215,031,751."""
    bases = (2, 3, 5, 7)
    if m < 2:
        return False
    for b in bases:
        if m % b == 0:
            return m == b
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
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


def primes(q, bits):
    """Primes p = 1 (mod q) between 2^(bits-1) and 2^bits, largest first;
    bits <= 31 keeps them within the range is_prime decides."""
    step = lcm(q, 2)
    p = (2 ** bits - 2) // step * step + 1
    while p > 2 ** (bits - 1):
        if is_prime(p):
            yield p
        p -= step


@lru_cache(maxsize=16)
def _nodes(q, p):
    """Evaluation matrix V (V[t, e] = w_t^e for the primitive q-th roots
    w_t of unity in GF(p), in order of exponent) and its inverse mod p,
    whose column t is the Lagrange polynomial Phi_q(x) / ((x - w_t)
    Phi_q'(w_t))."""
    poly = cyclotomic_poly(q)
    phi = len(poly) - 1
    exps = (p - 1) // q
    for a in range(2, p):
        w = pow(a, exps, p)
        if all(pow(w, q // r, p) != 1 for r in _prime_factors(q)):
            break
    roots = np.array([pow(w, t, p) for t in range(q) if gcd(t, q) == 1],
                     dtype=np.int64)
    V = np.ones((phi, phi), dtype=np.int64)
    for e in range(1, phi):
        V[:, e] = V[:, e - 1] * roots % p
    # synthetic division of Phi_q by x - w_t for every t at once
    quot = np.zeros((phi, phi), dtype=np.int64)
    quot[:, phi - 1] = 1
    for k in range(phi - 1, 0, -1):
        quot[:, k - 1] = (poly[k] + roots * quot[:, k]) % p
    deriv = np.zeros(phi, dtype=np.int64)
    for k in range(phi):
        deriv = (deriv + quot[:, k] * V[:, k]) % p
    scale = np.array([pow(int(x), -1, p) for x in deriv], dtype=np.int64)
    Vi = np.ascontiguousarray((quot * scale[:, None] % p).T)
    V.flags.writeable = Vi.flags.writeable = False
    return V, Vi


def _apply_mod(V, A, p):
    """out[t] = sum_e V[t, e] A[..., e] mod p, for residues below p."""
    out = np.zeros((V.shape[0],) + A.shape[:-1], dtype=np.int64)
    lead = (-1,) + (1,) * (A.ndim - 1)
    for e in range(A.shape[-1]):
        out = (out + V[:, e].reshape(lead) * A[..., e]) % p
    return out


def _inverse_mod(num, q, p):
    """Coefficients mod p of the inverse of the integer coefficient matrix
    num (n, n, phi(q)), or None when an image at a root of unity is
    singular mod p: rref_mod of [A_t | I] for each image A_t, which is
    singular exactly when the pivots are not the columns 0 .. n-1."""
    V, Vi = _nodes(q, p)
    n = num.shape[0]
    images = []
    for A in _apply_mod(V, (num % p).astype(np.int64), p):
        R, pivots = rref_mod(np.hstack([A, np.eye(n, dtype=np.int64)]), p)
        if pivots != list(range(n)):
            return None
        images.append(R[:, n:])
    return np.moveaxis(_apply_mod(Vi, np.stack(images, axis=-1), p), 0, -1)


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
