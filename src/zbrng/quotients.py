"""Factor-ring machinery: pointed algebras (no involution or trace), the
order-2 quotient by an ideal <1 - b_d>, and the nonnegative semigroup lift
realizing a ring with possibly negative constants as a factor ring of a
pointed algebra with nonnegative constants.

The lifted algebra is monomial (x_v x_w = mu * x_{vw}), so it is stored as an
index table plus a scalar table instead of a dense m^3 tensor.
"""

from collections import deque
from math import gcd

import numpy as np

from .exact import CycArray, CycNum, exact_int, power_table
from .rng_core import (RingError, assoc_witness, identity_coefficients,
                       ring_blocks)
from .spectra import decompose


class QuotientError(ValueError):
    pass


class PointedAlgebra:
    """Commutative associative algebra with a distinguished basis; either a
    dense integer tensor or a monomial product table (prod index + scalar)."""

    def __init__(self, labels, tensor=None, prod=None, mu=None):
        self.labels = list(labels)
        self.m = len(self.labels)
        self.tensor = tensor
        self.prod = prod
        self.mu = mu

    @property
    def monomial(self):
        return self.tensor is None

    def constant(self, i, j, t):
        if self.tensor is not None:
            return int(self.tensor[i, j, t])
        return int(self.mu[i, j]) if int(self.prod[i, j]) == t else 0

    def dense_tensor(self, limit=128):
        if self.tensor is not None:
            return self.tensor
        if self.m > limit:
            raise QuotientError("dense tensor too large (m=%d)" % self.m)
        N = np.zeros((self.m, self.m, self.m), dtype=np.int64)
        for i in range(self.m):
            for j in range(self.m):
                N[i, j, self.prod[i, j]] = self.mu[i, j]
        return N

    def __repr__(self):
        kind = "monomial" if self.monomial else "dense"
        return "PointedAlgebra(m=%d, %s)" % (self.m, kind)


def verify_pointed(alg, samples=512, seed=0):
    """Commutativity and associativity; exhaustive for dense tensors,
    exhaustive pairs + sampled triples for monomial algebras."""
    if not alg.monomial:
        N = alg.tensor
        if not np.array_equal(N, N.transpose(1, 0, 2)):
            return False
        return assoc_witness(N, None) is None
    prod, mu = alg.prod, alg.mu
    if not (np.array_equal(prod, prod.T) and np.array_equal(mu, mu.T)):
        return False
    rng = np.random.default_rng(seed)
    m = alg.m
    tri = rng.integers(0, m, size=(samples, 3))
    for i, j, k in tri:
        ij = prod[i, j]
        jk = prod[j, k]
        if prod[ij, k] != prod[i, jk]:
            return False
        if mu[i, j] * mu[ij, k] != mu[j, k] * mu[i, jk]:
            return False
    return True


# ---------------------------------------------------------------------------
# order-2 quotient

def order2_quotient(R, d):
    """Quotient of R by <1 - b_d> where b_d^2 = 1 and b_d permutes the basis
    up to sign; basis = smallest-index class representatives; returns the
    pointed algebra and the class map i -> (representative position, sign)."""
    n, N = R.n, R.N
    if not 0 <= d < n:
        raise QuotientError("d out of range")
    try:
        e = identity_coefficients(R)
    except RingError as exc:
        raise QuotientError("d not of order 2") from exc
    if any(exact_int(e[m]) != N[d, d, m] for m in range(n)):
        raise QuotientError("d not of order 2")

    perm, sign = [0] * n, [0] * n
    for i in range(n):
        nz = np.nonzero(N[d, i])[0]
        if len(nz) != 1 or abs(N[d, i, nz[0]]) != 1:
            raise QuotientError("d does not permute the basis")
        perm[i] = int(nz[0])
        sign[i] = int(N[d, i, nz[0]])
    if any(perm[perm[i]] != i for i in range(n)):
        raise QuotientError("d does not permute the basis")
    for i in range(n):
        if perm[i] == i and sign[i] == -1:
            raise QuotientError("quotient has 2-torsion at basis %d" % i)

    reps = [i for i in range(n) if i <= perm[i]]
    pos = {r: t for t, r in enumerate(reps)}
    # fold non-representatives onto representatives with their sign
    fold_to = [0] * n
    fold_sign = [0] * n
    for m in range(n):
        r = min(m, perm[m])
        fold_to[m] = pos[r]
        fold_sign[m] = 1 if m == r else sign[r]

    t = len(reps)
    Nq = np.zeros((t, t, t), dtype=np.int64)
    for a, i in enumerate(reps):
        for b, j in enumerate(reps):
            for m in range(n):
                if N[i, j, m]:
                    Nq[a, b, fold_to[m]] += fold_sign[m] * N[i, j, m]
    labels = [tuple(sorted({r, perm[r]})) for r in reps]
    classmap = [(fold_to[i], fold_sign[i]) for i in range(n)]
    return PointedAlgebra(labels, tensor=Nq), classmap


# ---------------------------------------------------------------------------
# the nonnegative semigroup lift

def _root_exponent(w, Q):
    """t with w = zeta_Q^t, by scanning; None if w is not such a root."""
    z = CycNum.zeta(Q) if Q > 1 else CycNum.from_rat(1)
    cur = CycNum.from_rat(1)
    for t in range(Q):
        if w == cur:
            return t
        cur = cur * z
    return None


class LiftPresentation:
    """Monomial lifted algebra, the exact integral decompositions of its
    basis over the target basis, and the distinguished preimages."""

    def __init__(self, lifted, embedding, distinguished, scalars, distances,
                 group_order):
        self.lifted = lifted
        self.embedding = embedding
        self.distinguished = distinguished
        self.scalars = scalars
        self.distances = distances
        self.group_order = group_order

    def ideal_rows(self):
        """(label, decomposition) for lifted basis elements outside the
        distinguished set: the kernel generators w - sum mu_wi b_i."""
        dset = set(self.distinguished)
        return [(self.lifted.labels[w], self.embedding[w])
                for w in range(self.lifted.m) if w not in dset]

    def label_str(self, w):
        exps = self.lifted.labels[w]
        if self.group_order == 2:
            return "".join("+-"[t] for t in exps)
        return ".".join(str(t) for t in exps)


def fannsc_lift(s, cap=4096):
    """Lift of a ring given by an exact s-matrix with columns mu_i * v_i
    (v_i entries roots of unity): basis {g(h) h : h in H} where H is the
    semigroup generated by the v_i and g(h) = gcd of all word scalars; the
    products x_v x_w = (g(v)g(w)/g(vw)) x_{vw} have nonnegative constants
    and the target ring is the factor by the ideal of decompositions."""
    if s.mode != "exact":
        raise QuotientError("exact s-matrix required")
    n = s.n
    Q = s.q if s.q % 2 == 0 else 2 * s.q

    mus = []
    gens = []
    for i in range(n):
        col = s.column(i)
        mu_i = None
        exps = []
        for e in col:
            f = e.root_of_unity_factor()
            if f is None:
                raise QuotientError("column not of root-of-unity type")
            mu, w = f
            if mu_i is None:
                mu_i = mu
            elif mu_i != mu:
                raise QuotientError("column not of root-of-unity type")
            t = _root_exponent(w.to_order(Q) if Q % w.q == 0 else w, Q)
            if t is None:
                raise QuotientError("column not of root-of-unity type")
            exps.append(t)
        mus.append(int(mu_i))
        gens.append(tuple(exps))

    def mult(a, b):
        return tuple((x + y) % Q for x, y in zip(a, b))

    # breadth-first enumeration of H with word-length distances
    dist = {}
    frontier = []
    for v in gens:
        if v not in dist:
            if len(dist) >= cap:
                raise QuotientError("|H| exceeds cap (%d)" % cap)
            dist[v] = 1
            frontier.append(v)
    while frontier:
        nxt = []
        for h in frontier:
            for v in gens:
                hv = mult(h, v)
                if hv not in dist:
                    if len(dist) >= cap:
                        raise QuotientError("|H| exceeds cap (%d)" % cap)
                    dist[hv] = dist[h] + 1
                    nxt.append(hv)
        frontier = nxt

    # g(h) = gcd of word scalars, by relaxation to the fixpoint
    g = {h: 0 for h in dist}
    for v, mu in zip(gens, mus):
        g[v] = gcd(g[v], mu)
    work = deque(set(gens))
    while work:
        h = work.popleft()
        for v, mu in zip(gens, mus):
            hv = mult(h, v)
            nd = gcd(g[hv], g[h] * mu)
            if nd != g[hv]:
                g[hv] = nd
                work.append(hv)

    elems = sorted(dist, key=lambda h: (dist[h], h))
    index = {h: w for w, h in enumerate(elems)}
    m = len(elems)
    garr = np.array([g[h] for h in elems], dtype=np.int64)

    if Q == 2 and n <= 20:
        codes = np.array([sum(b << t for t, b in enumerate(h))
                          for h in elems], dtype=np.int64)
        lut = np.full(1 << n, -1, dtype=np.int64)
        lut[codes] = np.arange(m)
        prod = lut[np.bitwise_xor.outer(codes, codes)]
    else:
        prod = np.zeros((m, m), dtype=np.int64)
        for a in range(m):
            for b in range(a, m):
                prod[a, b] = prod[b, a] = index[mult(elems[a], elems[b])]
    num = garr[:, None] * garr[None, :]
    den = garr[prod]
    if np.any(num % den):
        raise QuotientError("scalar table not integral")
    mu_table = num // den

    lifted = PointedAlgebra(elems, prod=prod, mu=mu_table)

    # exact integral decomposition of every g(h) h over the columns; column
    # w of W is g(h_w) zeta_Q^h_w on the power basis of Q(zeta_q)
    inv = s.inverse(tol=None)
    t = np.arange(Q)
    table = power_table(s.q)
    if Q == s.q:
        roots = table[t]
    else:  # q odd: zeta_2q = -zeta_q^((q+1)/2)
        roots = (np.where(t % 2, -1, 1)[:, None]
                 * table[t * (s.q + 1) // 2 % s.q])
    W = garr[None, :, None] * roots[np.array(elems).T]
    vals, ok = decompose(inv, CycArray(s.q, W, 1)).integers()
    if not ok.all():
        raise QuotientError("non-integral decomposition")
    E = vals.T.astype(np.int64)

    distinguished = [-1] * n
    for i in range(n):
        w = index[gens[i]]
        if g[gens[i]] == mus[i]:
            row = E[w]
            if row[i] == 1 and np.count_nonzero(row) == 1:
                distinguished[i] = w
    if any(w < 0 for w in distinguished) or len(set(distinguished)) != n:
        raise QuotientError("distinguished set incomplete")

    dists = np.array([dist[h] for h in elems], dtype=np.int64)
    return LiftPresentation(lifted, E, tuple(distinguished), garr, dists, Q)


def quotient_verify(L, R, chunk=64):
    """True iff the distinguished rows are exactly the basis of R and the
    embedding is multiplicative on every pair of lifted basis elements."""
    E = L.embedding
    m, n = E.shape
    if n != R.n:
        return False
    if not np.array_equal(E[list(L.distinguished)], np.eye(n, dtype=np.int64)):
        return False
    N = R.N
    prod, mu = L.lifted.prod, L.lifted.mu
    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        T = np.einsum("xi,ijt->xjt", E[lo:hi], N)
        P = np.einsum("xjt,yj->xyt", T, E)
        want = mu[lo:hi, :, None] * E[prod[lo:hi]]
        if not np.array_equal(P, want):
            return False
    return True


def lift_to_text(L, dense_limit=128):
    """Lifted tensor in block format (no involution line, the lift carries
    none), then one ideal line per non-distinguished basis element giving its
    decomposition over the target basis.  Lifts too large for dense text get
    the monomial product table (index:scalar pairs) instead."""
    alg = L.lifted
    if alg.m <= dense_limit:
        lines = ["zbrng 1", "n %d" % alg.m]
        lines += ring_blocks(alg.dense_tensor(limit=dense_limit))
    else:
        lines = ["zbrng-monomial 1", "n %d" % alg.m]
        for i in range(alg.m):
            lines.append(" ".join("%d:%d" % (alg.prod[i, j], alg.mu[i, j])
                                  for j in range(alg.m)))
    lines.append("distinguished " + " ".join(str(w) for w in L.distinguished))
    dset = set(L.distinguished)
    for w in range(alg.m):
        if w not in dset:
            lines.append("w%s : %s" % (
                L.label_str(w),
                " ".join(str(int(x)) for x in L.embedding[w])))
    return "\n".join(lines) + "\n"
