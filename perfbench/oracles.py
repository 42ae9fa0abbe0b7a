"""Independent reference computations for checking the program's outputs.

Nothing here imports zbrng: every construction is re-derived from its
mathematical definition, so an output that agrees with these oracles agrees
with the mathematics, not with a stored copy of an earlier output.  The text
parsers read the program's file formats (ring, s-matrix, +- matrix, lift).
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import numpy as np


class CheckError(Exception):
    """An output that violates a property the method must have."""


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# Hadamard matrices

def _is_prime(q):
    return q >= 2 and all(q % d for d in range(2, int(q ** 0.5) + 1))


def paley(q):
    """Paley type I matrix of order q+1 (q prime, q = 3 mod 4): I + C, C the
    skew quadratic-residue core bordered by +1 on the top row and -1 on the
    left column; rows then scaled so that column 0 is all ones."""
    if not _is_prime(q) or q % 4 != 3:
        raise ValueError("q must be a prime congruent to 3 mod 4")
    squares = {x * x % q for x in range(1, q)}

    def chi(x):
        x %= q
        return 0 if x == 0 else (1 if x in squares else -1)

    n = q + 1
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            if r == 0 and c == 0:
                v = 0
            elif r == 0:
                v = 1
            elif c == 0:
                v = -1
            else:
                v = chi((c - 1) - (r - 1))
            row.append(v + (1 if r == c else 0))
        rows.append(row)
    return normalize(rows)


def sylvester(m):
    """H_{2^m} by doubling: H -> [[H, H], [H, -H]]."""
    h = [[1]]
    for _ in range(m):
        h = [r + r for r in h] + [r + [-x for x in r] for r in h]
    return h


def normalize(rows):
    """Scale every row by its first entry (column 0 becomes all ones)."""
    return [[x * r[0] for x in r] for r in rows]


def normalize_full(rows):
    """Normalized form: column 0 and row 0 all ones.  The semigroup of the
    lift of k*H has 2^(n-2) elements for a normalized Paley matrix, and can
    have twice that once columns change sign."""
    a = normalize(rows)
    return [[x * a[0][c] for c, x in enumerate(r)] for r in a]


def is_hadamard(rows):
    a = np.array(rows, dtype=np.int64)
    n = a.shape[0]
    return (a.shape == (n, n) and bool(np.all(np.abs(a) == 1))
            and np.array_equal(a @ a.T, n * np.eye(n, dtype=np.int64)))


def scramble(rows, rng):
    """An equivalent matrix: seeded row and column permutations and sign
    changes of rows and columns."""
    n = len(rows)
    rp = list(range(n))
    cp = list(range(n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    rs = [rng.choice((1, -1)) for _ in range(n)]
    cs = [rng.choice((1, -1)) for _ in range(n)]
    return [[rs[r] * cs[c] * rows[rp[r]][cp[c]] for c in range(n)]
            for r in range(n)]


def pm_text(rows):
    return "".join("".join("+" if x == 1 else "-" for x in r) + "\n"
                   for r in rows)


def ring_tensor(rows):
    """N_ij^m = (1/4) sum_l a_li a_lj a_lm, built one basis matrix at a time
    from a matrix product."""
    a = np.array(rows, dtype=np.int64)
    n = a.shape[0]
    N = np.empty((n, n, n), dtype=np.int64)
    for i in range(n):
        raw = (a * a[:, i:i + 1]).T @ a
        if np.any(raw % 4):
            raise ValueError("not a Hadamard matrix")
        N[i] = raw // 4
    return N


def gf2_rank(rows):
    """Rank over GF(2) of a 0/1 matrix, rows packed into integers."""
    pivots = {}
    rank = 0
    for r in rows:
        v = int("".join(str(int(x)) for x in r), 2) if r else 0
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                rank += 1
                break
            v ^= pivots[top]
    return rank


def profile_counts(rows):
    """Counts of |sum_q a_qi a_qj a_ql a_qm| over 4-subsets i<j<l<m,
    enumerated by the leading pair (i, j)."""
    a = np.array(rows, dtype=np.int64)
    n = a.shape[0]
    counts = {}
    for i, j in combinations(range(n), 2):
        rest = a[:, j + 1:]
        if rest.shape[1] < 2:
            continue
        u = a[:, i] * a[:, j]
        g = np.abs((rest * u[:, None]).T @ rest)
        vals, cnt = np.unique(g[np.triu_indices(rest.shape[1], 1)],
                              return_counts=True)
        for v, c in zip(vals.tolist(), cnt.tolist()):
            counts[v] = counts.get(v, 0) + c
    require(sum(counts.values()) == comb(n, 4), "profile total wrong")
    return counts


def census(N):
    """Distinct multisets {|N_ij^m| : m not in {0,i,j}} over distinct
    nonzero i < j, each as a descending tuple."""
    n = N.shape[0]
    out = set()
    for i in range(1, n):
        for j in range(i + 1, n):
            vals = [abs(int(N[i, j, m])) for m in range(n)
                    if m not in (0, i, j)]
            out.add(tuple(sorted(vals, reverse=True)))
    return out


def triangular_partitions(k):
    """Partitions of the ((k-3)/2)-th triangular number into nonzero
    triangular numbers, by recursion on the largest part."""
    j = (k - 3) // 2
    target = j * (j + 1) // 2
    parts = []
    t = 1
    while t * (t + 1) // 2 <= max(target, 1):
        parts.append(t * (t + 1) // 2)
        t += 1
    memo = {}

    def ways(rest, top):
        if rest == 0:
            return 1
        key = (rest, top)
        if key not in memo:
            memo[key] = sum(ways(rest - p, idx)
                            for idx, p in enumerate(parts[:top + 1])
                            if p <= rest)
        return memo[key]

    return ways(target, len(parts) - 1)


def is_closed(N, S):
    """No product of two members of S has support outside S."""
    S = sorted(set(S))
    comp = [m for m in range(N.shape[0]) if m not in set(S)]
    return not comp or not np.any(N[np.ix_(S, S, comp)])


# ---------------------------------------------------------------------------
# finite abelian groups and their character tables

def group_elements(orders):
    """Elements of Z/d1 x ... x Z/dr in mixed-radix (lexicographic) order."""
    elems = [()]
    for d in orders:
        elems = [e + (x,) for e in elems for x in range(d)]
    return elems


def group_add(orders, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, orders))


def group_neg(orders, a):
    return tuple((-x) % d for x, d in zip(a, orders))


def lcm_all(orders):
    q = 1
    for d in orders:
        q = q * d // gcd(q, d)
    return q


def character_exponent(orders, a, b):
    """e with chi_a(b) = zeta_q^e, q = lcm of the orders."""
    q = lcm_all(orders)
    return sum(x * y * (q // d) for x, y, d in zip(a, b, orders)) % q


def group_table_text(orders, rows, cols, literal_order=None):
    """s-matrix file of the character table: row r is the character of
    rows[r], column c the element cols[c].  Entries are written as
    z<q>^<e>; literal_order forces that order even for rational entries."""
    q = lcm_all(orders)
    lines = ["smatrix 1", "n %d %d" % (len(rows), len(cols))]
    for a in rows:
        ents = []
        for b in cols:
            e = character_exponent(orders, a, b)
            if literal_order:
                ents.append("z%d^%d" % (literal_order,
                                        e * literal_order // q))
            else:
                ents.append("1" if e == 0 else "z%d^%d" % (q, e))
        lines.append(" ".join(ents))
    return "\n".join(lines) + "\n"


def group_law_tensor(orders, elems):
    """N_ij^m = 1 iff elems[i] + elems[j] = elems[m]."""
    n = len(elems)
    pos = {e: t for t, e in enumerate(elems)}
    N = np.zeros((n, n, n), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            N[i, j, pos[group_add(orders, a, b)]] = 1
    return N


def negation(orders, elems):
    pos = {e: t for t, e in enumerate(elems)}
    return [pos[group_neg(orders, e)] for e in elems]


def is_subgroup(orders, elems, S):
    sub = {elems[i] for i in S}
    return bool(sub) and all(group_add(orders, a, b) in sub
                             for a in sub for b in sub)


def is_character_table(table, orders, col_elems, tol=1e-6):
    """Rows are pairwise distinct homomorphisms col_elems -> C^*, as many
    as there are columns (so all of them, for a group)."""
    t = np.asarray(table, dtype=np.complex128)
    pos = {e: c for c, e in enumerate(col_elems)}
    n = len(col_elems)
    if t.shape != (n, n) or np.max(np.abs(np.abs(t) - 1)) > tol:
        return False
    for a in col_elems:
        for b in col_elems:
            ab = pos.get(group_add(orders, a, b))
            if ab is None:
                return False
            if np.max(np.abs(t[:, pos[a]] * t[:, pos[b]] - t[:, ab])) > tol:
                return False
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            if np.max(np.abs(t[r1] - t[r2])) <= tol:
                return False
    return True


# ---------------------------------------------------------------------------
# level-k A1 (affine sl2) fusion

def a1_fusion(k):
    """N_ab^c = 1 iff |a-b| <= c <= min(a+b, 2k-a-b) and a+b+c is even."""
    n = k + 1
    N = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(abs(a - b), min(a + b, 2 * k - a - b) + 1, 2):
                N[a, b, c] = 1
    return N


def a1_smatrix(k):
    """s_ab = sin(pi(a+1)(b+1)/(k+2)) / sin(pi(a+1)/(k+2))."""
    kap = k + 2
    return np.array([[math.sin(math.pi * (a + 1) * (b + 1) / kap)
                      / math.sin(math.pi * (a + 1) / kap)
                      for b in range(k + 1)] for a in range(k + 1)])


# ---------------------------------------------------------------------------
# exact rational decomposition of column products

def rat_inverse(A):
    """Inverse of a square rational matrix by Gauss-Jordan on Fractions."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
         for r, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            raise CheckError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def rational_supports(A):
    """support(i, j) = {m : coefficient of column m in col_i * col_j != 0},
    exact over Q."""
    n = len(A)
    Ainv = rat_inverse(A)
    cols = [[Fraction(A[l][i]) for l in range(n)] for i in range(n)]

    def support(i, j):
        w = [x * y for x, y in zip(cols[i], cols[j])]
        return {m for m in range(n)
                if sum(Ainv[m][l] * w[l] for l in range(n) if w[l])}
    return support


# ---------------------------------------------------------------------------
# the semigroup lift

def check_lift(lift, N, rng, samples):
    """Properties of a lift presentation against the target ring N:
    nonnegative constants, |H| <= 2^(n-2), distinguished elements map to the
    target basis, and E(x_v) E(x_w) = mu(v,w) E(x_vw) on every pair of
    distinguished elements and on `samples` seeded random pairs."""
    n = N.shape[0]
    m = lift["m"]
    require(m <= 2 ** (n - 2), "|H| = %d exceeds 2^(n-2)" % m)
    dist = lift["distinguished"]
    require(len(dist) == n and len(set(dist)) == n
            and all(0 <= w < m for w in dist), "bad distinguished set")
    require(len(lift["ideal"]) == m - n, "ideal rows missing")
    E = np.zeros((m, n), dtype=object)
    for i, w in enumerate(dist):
        E[w, i] = 1
    dset = set(dist)
    rest = [w for w in range(m) if w not in dset]
    for w, row in zip(rest, lift["ideal"]):
        require(len(row) == n, "ideal row length")
        E[w] = row
    if lift["kind"] == "dense":
        T = lift["tensor"]
        require(bool(np.all(T >= 0)), "negative lifted constant")

        def product(v, w):
            return {t: int(T[v, w, t]) for t in np.nonzero(T[v, w])[0]}
    else:
        prod, mu = lift["prod"], lift["mu"]
        require(bool(np.all(mu >= 0)), "negative lifted constant")
        require(np.array_equal(prod, prod.T) and np.array_equal(mu, mu.T),
                "lift not commutative")

        def product(v, w):
            return {int(prod[v, w]): int(mu[v, w])}
    Nobj = N.astype(object)
    pairs = [(a, b) for a in dist for b in dist]
    pairs += [(rng.randrange(m), rng.randrange(m)) for _ in range(samples)]
    for v, w in pairs:
        lhs = np.einsum("i,j,ijm->m", E[v], E[w], Nobj)
        rhs = np.zeros(n, dtype=object)
        for t, c in product(v, w).items():
            rhs = rhs + c * E[t]
        require(all(int(x) == int(y) for x, y in zip(lhs, rhs)),
                "product law fails at (%d, %d)" % (v, w))


# ---------------------------------------------------------------------------
# parsers for the program's text formats

def _data_lines(text):
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def parse_pm(text):
    rows = [[1 if ch == "+" else -1 for ch in ln] for ln in _data_lines(text)]
    require(rows and all(len(r) == len(rows[0]) for r in rows)
            and all(set(ln) <= set("+-") for ln in _data_lines(text)),
            "malformed +- matrix")
    return rows


def parse_ring(text):
    """(tensor, involution, trailing lines) of a 'zbrng 1' file."""
    lines = _data_lines(text)
    require(lines[0] == "zbrng 1" and lines[1].startswith("n "),
            "bad ring header")
    n = int(lines[1].split()[1])
    at = 2
    tilde = None
    if lines[2].startswith("involution"):
        tilde = [int(t) for t in lines[2].split()[1:]]
        at = 3
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        require(lines[at] == "N %d" % i, "expected block N %d" % i)
        for j in range(n):
            N[i, j] = [int(v) for v in lines[at + 1 + j].split()]
        at += n + 1
    return N, tilde, lines[at:]


def cyc_value(lit):
    """Complex value of a cyclotomic literal such as '-1/2*z15^3+z15^7'."""
    total = 0j
    for term in lit.replace("-", "+-").split("+"):
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        term = term.lstrip("-")
        coeff, _, root = term.partition("*") if "*" in term else (
            ("1", "", term) if term.startswith("z") else (term, "", ""))
        val = sign * Fraction(coeff)
        if root:
            q, _, e = root[1:].partition("^")
            total += float(val) * cmath.exp(2j * cmath.pi * int(e or 1)
                                            / int(q))
        else:
            total += float(val)
    return total


def parse_smatrix(text):
    """('exact', rows of literal strings) or ('numeric', complex array)."""
    lines = _data_lines(text)
    require(lines[0] in ("smatrix 1", "smatrix-numeric 1"), "bad header")
    rows = [ln.split() for ln in lines[2:]]
    if lines[0] == "smatrix 1":
        return "exact", rows
    return "numeric", np.array([[complex(t) for t in r] for r in rows])


def parse_lift(text):
    lines = _data_lines(text)
    m = int(lines[1].split()[1])
    out = {"m": m}
    if lines[0] == "zbrng 1":
        N, tilde, rest = parse_ring(text)
        require(tilde is None, "lift carries no involution")
        out.update(kind="dense", tensor=N)
    else:
        require(lines[0] == "zbrng-monomial 1", "bad lift header")
        prod = np.zeros((m, m), dtype=np.int64)
        mu = np.zeros((m, m), dtype=np.int64)
        for i in range(m):
            pairs = [p.split(":") for p in lines[2 + i].split()]
            prod[i] = [int(a) for a, _ in pairs]
            mu[i] = [int(b) for _, b in pairs]
        out.update(kind="monomial", prod=prod, mu=mu)
        rest = lines[2 + m:]
    require(rest[0].startswith("distinguished "), "missing distinguished")
    out["distinguished"] = [int(t) for t in rest[0].split()[1:]]
    out["ideal"] = [[int(t) for t in ln.split(":", 1)[1].split()]
                    for ln in rest[1:]]
    return out
