"""Factor-ring machinery: pointed algebras (no involution or trace), the
order-2 quotient by an ideal <1 - b_d>, and the nonnegative semigroup lift
realizing a ring with possibly negative constants as a factor ring of a
pointed algebra with nonnegative constants.

The lifted algebra is monomial (x_v x_w = mu * x_{vw}), so it is stored as an
index table plus a scalar table instead of a dense m^3 tensor.
"""

from math import gcd

import numpy as np

from .exact import (CycArray, _maxabs, exact_int, int_dtype, lookup,
                    row_keys)
from .rng_core import (RingError, assoc_witness, identity_coefficients,
                       ring_blocks)
from .spectra import SpectraError, decompose, root_columns, unit_roots


class QuotientError(ValueError):
    pass


# Largest monomial algebra expanded to a dense m^3 tensor (and written as
# ring blocks); triples sampled by verify_pointed on a monomial algebra.
_DENSE_LIMIT = 128
_SAMPLES = 512


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

    def dense_tensor(self):
        if self.tensor is not None:
            return self.tensor
        if self.m > _DENSE_LIMIT:
            raise QuotientError("dense tensor too large (m=%d)" % self.m)
        N = np.zeros((self.m, self.m, self.m), dtype=np.int64)
        i, j = np.indices((self.m, self.m))
        N[i, j, self.prod] = self.mu
        return N

    def __repr__(self):
        kind = "monomial" if self.monomial else "dense"
        return "PointedAlgebra(m=%d, %s)" % (self.m, kind)


def verify_pointed(alg):
    """Commutativity and associativity; exhaustive for dense tensors,
    exhaustive pairs + _SAMPLES sampled triples for monomial algebras."""
    if not alg.monomial:
        N = alg.tensor
        if not np.array_equal(N, N.transpose(1, 0, 2)):
            return False
        return assoc_witness(N, None) is None
    prod, mu = alg.prod, alg.mu
    if not (np.array_equal(prod, prod.T) and np.array_equal(mu, mu.T)):
        return False
    rng = np.random.default_rng(0)
    m = alg.m
    tri = rng.integers(0, m, size=(_SAMPLES, 3))
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

# Every table of the lift is built a slab of rows at a time.
_SLAB = 64


def _held(a, what):
    """a as int64; OverflowError when some entry does not fit."""
    if a.dtype == object and _maxabs(a) >= 2 ** 63:
        raise OverflowError("%s exceed int64" % what)
    return a.astype(np.int64, copy=False)


# Exponent rows are keyed (exact.row_keys) as big-endian uint16: exponents
# are below Q <= 2 * MAX_ORDER = 2048, and keys sort as the exponent tuples.
_EXPONENT = ">u2"


def _key_rows(keys, n):
    """The exponent rows (int64, width n) of keys made by row_keys."""
    return np.frombuffer(keys.tobytes(), dtype=_EXPONENT).reshape(
        -1, n).astype(np.int64)


def _cayley(gens, Q, cap):
    """H = <rows of gens> in (Z/Q)^n, breadth first, with its neighbour
    table.  Returns (elems, sizes, parent, via, gen_index, nbr): the m x n
    exponent rows in the order (word length, exponent tuple); the size of
    each word-length level; for each element a of length >= 2 a parent and
    a generator with a = parent + gens[via] (at length 1, parent -1 and
    a = gens[via]); the index of each generator; nbr[a, i] = index(a +
    gens[i]).  Raises once |H| > cap.  Candidates are made a slab of
    generators or elements at a time, at most about cap rows at once."""
    n = gens.shape[1]
    keys, via, gen_index = np.unique(row_keys(gens, _EXPONENT),
                                     return_index=True, return_inverse=True)
    if len(keys) > cap:
        raise QuotientError("|H| exceeds cap (%d)" % cap)
    levels, parents, vias = [keys], [np.full(len(keys), -1)], [via]
    known, known_idx = keys, np.arange(len(keys))
    start, m = 0, len(keys)
    while True:
        frontier = _key_rows(levels[-1], n)
        f = len(frontier)
        step = max(1, cap // f)
        new = keys[:0]
        par = gen = np.zeros(0, dtype=np.int64)
        for lo in range(0, len(gens), step):
            cand = (frontier[None] + gens[lo:lo + step, None]) % Q
            ck = row_keys(cand.reshape(-1, n), _EXPONENT)
            miss = np.flatnonzero(lookup(known, known_idx, ck) < 0)
            new, keep = np.unique(np.concatenate([new, ck[miss]]),
                                  return_index=True)
            par = np.concatenate([par, start + miss % f])[keep]
            gen = np.concatenate([gen, lo + miss // f])[keep]
            if m + len(new) > cap:
                raise QuotientError("|H| exceeds cap (%d)" % cap)
        if not len(new):
            break
        levels.append(new)
        parents.append(par)
        vias.append(gen)
        pos = np.searchsorted(known, new)
        known = np.insert(known, pos, new)
        known_idx = np.insert(known_idx, pos, np.arange(m, m + len(new)))
        start, m = m, m + len(new)

    elems = _key_rows(np.concatenate(levels), n)
    nbr = np.empty((m, len(gens)), dtype=np.int64)
    rows = max(1, cap // len(gens))
    for lo in range(0, m, rows):
        cand = (elems[lo:lo + rows, None] + gens[None]) % Q
        nbr[lo:lo + rows] = lookup(known, known_idx, row_keys(
            cand.reshape(-1, n), _EXPONENT)).reshape(-1, len(gens))
    return (elems, [len(k) for k in levels], np.concatenate(parents),
            np.concatenate(vias), gen_index, nbr)


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
    Q, roots = unit_roots(s.q)
    try:
        T, M = root_columns(s)
    except SpectraError as exc:
        raise QuotientError(str(exc)) from exc
    gens, mus = T.T, M[0].tolist()

    elems, sizes, parent, via, gen_index, nbr = _cayley(gens, Q, cap)
    m = len(elems)
    bounds = np.cumsum([0] + sizes)
    dists = np.repeat(np.arange(1, len(sizes) + 1), sizes)

    # product table along the breadth-first parents: a = parent + v_via
    prod = np.empty((m, m), dtype=np.int64)
    prod[:sizes[0]] = nbr[:, via[:sizes[0]]].T
    for a0, a1 in zip(bounds[1:-1], bounds[2:]):
        for lo in range(a0, a1, _SLAB):
            sl = slice(lo, min(lo + _SLAB, a1))
            prod[sl] = nbr[prod[parent[sl]], via[sl, None]]

    # g(h) = gcd of word scalars: start from the breadth-first word and relax
    # to the fixpoint; every value stays below max(mu)^(depth + 1)
    mu_arr = np.array(mus, dtype=int_dtype(max(mus) ** (len(sizes) + 1)))
    g = np.zeros(m, dtype=mu_arr.dtype)
    for i, w in enumerate(gen_index.tolist()):
        g[w] = gcd(g[w], mus[i])
    for a0, a1 in zip(bounds[1:-1], bounds[2:]):
        g[a0:a1] = g[parent[a0:a1]] * mu_arr[via[a0:a1]]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            t = nbr[:, i]
            relaxed = np.gcd(g[t], g * mu_arr[i])
            if np.any(relaxed != g[t]):
                g[t] = relaxed
                changed = True
    garr = _held(g, "lift scalars")

    # mu[a, b] = g(a) g(b) / g(ab)
    gmax = int(garr.max())
    gd = garr.astype(int_dtype(gmax * gmax))
    mu_table = np.empty((m, m), dtype=np.int64)
    for lo in range(0, m, _SLAB):
        num = gd[lo:lo + _SLAB, None] * gd[None, :]
        den = gd[prod[lo:lo + _SLAB]]
        if np.any(num % den):
            raise QuotientError("scalar table not integral")
        mu_table[lo:lo + _SLAB] = _held(num // den, "lift constants")

    labels = [tuple(h) for h in elems.tolist()]
    lifted = PointedAlgebra(labels, prod=prod, mu=mu_table)

    # exact integral decomposition of every g(h) h over the columns; column
    # w of W is g(h_w) zeta_Q^h_w on the power basis of Q(zeta_q)
    inv = s.inverse(tol=None)
    dt = int_dtype(gmax * int(np.max(np.abs(roots))))
    W = garr.astype(dt)[None, :, None] * roots.astype(dt)[elems.T]
    vals, ok = decompose(inv, CycArray(s.q, W, 1)).integers()
    if not ok.all():
        raise QuotientError("non-integral decomposition")
    E = _held(vals.T, "decomposition coefficients")

    distinguished = [-1] * n
    for i in range(n):
        w = int(gen_index[i])
        if garr[w] == mus[i]:
            row = E[w]
            if row[i] == 1 and np.count_nonzero(row) == 1:
                distinguished[i] = w
    if any(w < 0 for w in distinguished) or len(set(distinguished)) != n:
        raise QuotientError("distinguished set incomplete")

    return LiftPresentation(lifted, E, tuple(distinguished), garr, dists, Q)


def quotient_verify(L, R):
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
    for lo in range(0, m, _SLAB):
        hi = min(lo + _SLAB, m)
        T = np.einsum("xi,ijt->xjt", E[lo:hi], N)
        P = np.einsum("xjt,yj->xyt", T, E)
        want = mu[lo:hi, :, None] * E[prod[lo:hi]]
        if not np.array_equal(P, want):
            return False
    return True


def _monomial_rows(prod, mu):
    """The rows "p:mu p:mu ..." of a monomial product table, a slab of rows
    at a time; each distinct (p, mu) cell of a slab is formatted once."""
    m = prod.shape[1]
    heads = np.array(["%d:" % p for p in range(m)], dtype=object)
    for lo in range(0, len(prod), _SLAB):
        block = prod[lo:lo + _SLAB]
        values, rank = np.unique(mu[lo:lo + _SLAB], return_inverse=True)
        # one key per (p, mu) cell, below _SLAB * m^2
        cells, at = np.unique(rank.reshape(block.shape) * m + block,
                              return_inverse=True)
        tails = np.array([str(v) for v in values.tolist()], dtype=object)
        text = heads[cells % m] + tails[cells // m]
        yield from (" ".join(row) for row in text[at.reshape(-1, m)].tolist())


def lift_lines(L):
    """The lines of lift_to_text, each ending in a newline, produced as they
    are formatted so that a writer never holds the whole text."""
    alg = L.lifted
    if alg.m <= _DENSE_LIMIT:
        yield "zbrng 1\n"
        body = ring_blocks(alg.dense_tensor())
    else:
        yield "zbrng-monomial 1\n"
        body = _monomial_rows(alg.prod, alg.mu)
    yield "n %d\n" % alg.m
    yield from (ln + "\n" for ln in body)
    yield "distinguished " + " ".join(str(w) for w in L.distinguished) + "\n"
    dset = set(L.distinguished)
    for w in range(alg.m):
        if w not in dset:
            yield "w%s : %s\n" % (
                L.label_str(w),
                " ".join(str(int(x)) for x in L.embedding[w]))


def lift_to_text(L):
    """Lifted tensor in block format (no involution line, the lift carries
    none), then one ideal line per non-distinguished basis element giving its
    decomposition over the target basis.  Lifts too large for dense text get
    the monomial product table (index:scalar pairs) instead."""
    return "".join(lift_lines(L))
