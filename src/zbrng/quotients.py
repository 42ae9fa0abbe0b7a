"""Factor-ring machinery: pointed algebras (no involution or trace), the
order-2 quotient by an ideal <1 - b_d>, and the nonnegative semigroup lift
realizing a ring with possibly negative constants as a factor ring of a
pointed algebra with nonnegative constants.

The lifted algebra is monomial (x_v x_w = mu * x_{vw}), so it is stored as an
index table plus the scalars g(h) instead of a dense m^3 tensor; the
constants mu = g(v) g(w) / g(vw) are computed from them when asked for.
"""

from math import gcd

import numpy as np

from .exact import (CycArray, _maxabs, int_dtype, int_matmul, lookup,
                    narrow_dtype, row_keys)
from .rng_core import (_TEXT_SLAB, _ascii, _joined, _slab_bytes, _terminated,
                       ring_lines)
from .spectra import SpectraError, root_columns, unit_roots


class QuotientError(ValueError):
    pass


# Largest monomial algebra expanded to a dense m^3 tensor (and written as
# ring blocks).
_DENSE_LIMIT = 128


class PointedAlgebra:
    """Commutative associative algebra with a distinguished basis; either a
    dense integer tensor or a monomial product table: the index prod[a, b]
    and either the constants mu or the scalars g of a lift, with mu[a, b] =
    g(a) g(b) / g(prod[a, b])."""

    def __init__(self, labels, tensor=None, prod=None, mu=None, scalars=None):
        self.labels = list(labels)
        self.m = len(self.labels)
        self.tensor = tensor
        self.prod = prod
        self.scalars = scalars
        self._mu = mu

    @property
    def mu(self):
        """The constants as one int64 m x m table, computed from prod and
        the scalars on first access and kept."""
        if self._mu is None and self.scalars is not None:
            self._mu = np.empty(self.prod.shape, dtype=np.int64)
            for lo, mu in _constant_slabs(self.prod, self.scalars):
                self._mu[lo:lo + len(mu)] = mu
        return self._mu

    def dense_tensor(self):
        if self.m > _DENSE_LIMIT:
            raise QuotientError("dense tensor too large (m=%d)" % self.m)
        N = np.zeros((self.m, self.m, self.m), dtype=np.int64)
        i, j = np.indices((self.m, self.m))
        N[i, j, self.prod] = self.mu
        return N


# ---------------------------------------------------------------------------
# order-2 quotient

def order2_quotient(R, d):
    """Quotient of R by <1 - b_d> where b_d^2 = 1 and b_d permutes the basis
    up to sign; basis = smallest-index class representatives; returns the
    pointed algebra and the class map i -> (representative position, sign).
    b_d^2 = N[d, d] is 1 exactly when it acts as 1 on every b_j (the ring is
    commutative, so an identity is unique): one product.  OverflowError
    when a folded constant passes int64."""
    n, N = R.n, R.N
    if not 0 <= d < n:
        raise QuotientError("d out of range")
    if not np.array_equal(int_matmul(N[d, d], N.reshape(n, n * n)),
                          np.eye(n, dtype=np.int64).ravel()):
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

    F = np.zeros((n, len(reps)), dtype=np.int64)
    F[np.arange(n), fold_to] = fold_sign
    Nq = _held(int_matmul(N[np.ix_(reps, reps)], F), "quotient constants")
    labels = [tuple(sorted({r, perm[r]})) for r in reps]
    classmap = [(fold_to[i], fold_sign[i]) for i in range(n)]
    return PointedAlgebra(labels, tensor=Nq), classmap


# ---------------------------------------------------------------------------
# the nonnegative semigroup lift

# quotient_verify checks a slab of _SLAB columns at a time, and the class
# tokens serve at most _SLAB pairs of scalar classes
_SLAB = 64


def _rows(width):
    """Rows of width cells in one slab of the lift's tables and text: about
    _TEXT_SLAB cells, the rule of rng_core.ring_blocks, and at least one
    row."""
    return max(1, _TEXT_SLAB // width)


def _held(a, what):
    """a as int64; OverflowError when some entry does not fit."""
    if a.dtype == object and _maxabs(a) >= 2 ** 63:
        raise OverflowError("%s exceed int64" % what)
    return a.astype(np.int64, copy=False)


def _constant_slabs(prod, g):
    """(lo, mu[lo:lo + k]) for every slab of k = _rows(m) rows of the
    constants mu[a, b] = g(a) g(b) / g(prod[a, b]) in int64; OverflowError
    at the first slab where one passes int64.  Every quotient is exact for
    the scalars of a lift (fannsc_lift)."""
    gmax = int(g.max())
    gd = g.astype(int_dtype(gmax * gmax))
    k = _rows(prod.shape[1])
    for lo in range(0, len(prod), k):
        mu = gd[lo:lo + k, None] * gd[None, :] // gd[prod[lo:lo + k]]
        yield lo, _held(mu, "lift constants")


def _class_tokens(g):
    """The tokens of every cell of a lift with scalars g, by the classes of
    the distinct scalars, or None when g has more than 8 distinct values.
    Returns (row, col, tok): the cell (a, b) with product ab = p and constant
    mu = g(a) g(b) / g(p) reads tok[row[a] + col[b] + p], which is "p:mu "
    or, in the last column, "p:mu\n".  The quotients of the nG distinct
    scalars are formatted once from Python ints, and tok holds 2 nG^2 m <= 2
    _SLAB m tokens; row and col are in the narrow_dtype of len(tok), which
    holds every offset and so every sum with a product index."""
    G, cls = np.unique(g, return_inverse=True)
    nG, m = len(G), len(g)
    if nG * nG > _SLAB:
        return None
    G = G.tolist()
    # a triple of classes that no cell has may floor; it is never read
    tails = _ascii(str(x * y // z) for x in G for y in G for z in G)
    heads = _ascii("%d:" % p for p in range(m))
    cells = _joined(np.tile(heads, nG * nG),
                    tails.reshape(nG * nG, nG)[:, cls].ravel())
    col = cls * m
    col[-1] += len(cells)
    dt = narrow_dtype(2 * len(cells))
    return (cls * (nG * m)).astype(dt), col.astype(dt), _terminated(cells)


def _exponent_keys(Q, n):
    """(key, rows): one exact key per row of exponents in (Z/Q)^n, sorting
    as the rows do, and the rows back from keys, in the narrow_dtype of 2Q,
    which holds the sum of two exponents.  A key is one int64 in radix Q,
    the first coordinate most significant, when Q^n < 2^63; for wider rows
    it is exact.row_keys' void view of the row as big-endian uint16
    (exponents are below Q <= 2 * MAX_ORDER = 2048)."""
    dt = narrow_dtype(2 * Q)
    if int(Q) ** n < 2 ** 63:
        radix = int(Q) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        return (lambda rows: rows @ radix,
                lambda keys: (keys[:, None] // radix % Q).astype(dt))
    return (lambda rows: row_keys(rows, ">u2"),
            lambda keys: np.frombuffer(keys.tobytes(), dtype=">u2").reshape(
                -1, n).astype(dt))


def _cayley(gens, Q, cap):
    """H = <rows of gens> in (Z/Q)^n, breadth first, with its neighbour
    table.  Returns (elems, sizes, parent, via, gen_index, nbr): the m x n
    exponent rows in the order (word length, exponent tuple); the size of
    each word-length level; for each element a of length >= 2 a parent and
    a generator with a = parent + gens[via] (at length 1, parent -1 and
    a = gens[via]); the index of each generator; nbr[i, a] = index(a +
    gens[i]), each sum looked up once (one not yet known is m plus its place
    in the next level).  Rows are keyed by _exponent_keys.  Raises once |H|
    > cap.  Candidates are made a slab of generators at a time, at most
    about cap rows at once."""
    # exponents and their sums (below 2Q) in a narrow dtype, in C order so
    # that each slab of candidates reshapes without a copy
    gens = np.ascontiguousarray(gens, dtype=narrow_dtype(2 * Q))
    n = gens.shape[1]
    key, rows = _exponent_keys(Q, n)
    keys, via, gen_index = np.unique(key(gens), return_index=True,
                                     return_inverse=True)
    if len(keys) > cap:
        raise QuotientError("|H| exceeds cap (%d)" % cap)
    levels, parents, vias, nbrs = [keys], [np.full(len(keys), -1)], [via], []
    known, known_idx = keys, np.arange(len(keys))
    start, m = 0, len(keys)
    while True:
        frontier = rows(levels[-1])
        f = len(frontier)
        step = max(1, cap // f)
        new = keys[:0]
        par = gen = np.zeros(0, dtype=np.int64)
        # got[i, a - start] = index(a + gens[i]), or -1 while not yet known
        got = np.empty((len(gens), f), dtype=np.int64)
        missed = []
        for lo in range(0, len(gens), step):
            cand = (frontier[None] + gens[lo:lo + step, None]) % Q
            ck = key(cand.reshape(-1, n))
            hit = lookup(known, known_idx, ck)
            got[lo:lo + step] = hit.reshape(-1, f)
            miss = np.flatnonzero(hit < 0)
            missed.append(ck[miss])
            new, keep = np.unique(np.concatenate([new, ck[miss]]),
                                  return_index=True)
            par = np.concatenate([par, start + miss % f])[keep]
            gen = np.concatenate([gen, lo + miss // f])[keep]
            if m + len(new) > cap:
                raise QuotientError("|H| exceeds cap (%d)" % cap)
        got[got < 0] = m + np.searchsorted(new, np.concatenate(missed))
        nbrs.append(got)
        if not len(new):
            break
        levels.append(new)
        parents.append(par)
        vias.append(gen)
        pos = np.searchsorted(known, new)
        known = np.insert(known, pos, new)
        known_idx = np.insert(known_idx, pos, np.arange(m, m + len(new)))
        start, m = m, m + len(new)
    return (rows(np.concatenate(levels)), [len(k) for k in levels],
            np.concatenate(parents), np.concatenate(vias), gen_index,
            np.concatenate(nbrs, axis=1))


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


def _semigroup(gens, mus, Q, cap):
    """The semigroup H generated by the rows of gens in (Z/Q)^n, with word
    scalars mus: (elems, sizes, gen_index, prod, g), the first three as
    _cayley returns them, the product table prod[a, b] = index(a + b) and
    the scalars g at the gcd fixpoint (int64 or object; see fannsc_lift)."""
    elems, sizes, parent, via, gen_index, nbr = _cayley(gens, Q, cap)
    m = len(elems)
    bounds = np.cumsum([0] + sizes)

    # product table along the breadth-first parents: a = parent + v_via, so
    # prod[a, b] = nbr[via[a], prod[parent[a], b]], a slab of rows one take
    # from the flat neighbour table; every consumer promotes its entries to
    # int64 before arithmetic
    prod = np.empty((m, m), dtype=narrow_dtype(m - 1))
    nbr = nbr.astype(prod.dtype)
    flat = nbr.ravel()
    prod[:sizes[0]] = nbr[via[:sizes[0]]]
    k = _rows(m)
    idx = np.empty((k, m), dtype=np.intp)
    for a0, a1 in zip(bounds[1:-1], bounds[2:]):
        for lo in range(a0, a1, k):
            hi = min(lo + k, a1)
            at = idx[:hi - lo]
            np.add(prod[parent[lo:hi]], (via[lo:hi] * m)[:, None], out=at)
            flat.take(at, out=prod[lo:hi], mode="clip")

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
        for i in range(len(mus)):
            t = nbr[i]
            relaxed = np.gcd(g[t], g * mu_arr[i])
            if np.any(relaxed != g[t]):
                g[t] = relaxed
                changed = True
    return elems, sizes, gen_index, prod, g


def fannsc_lift(s, cap=4096):
    """Lift of a ring given by an exact s-matrix with columns mu_i * v_i
    (v_i entries roots of unity): basis {g(h) h : h in H} where H is the
    semigroup generated by the v_i and g(h) = gcd of all word scalars; the
    products x_v x_w = (g(v)g(w)/g(vw)) x_{vw} have nonnegative constants
    and the target ring is the factor by the ideal of decompositions.

    The gcd fixpoint certifies that every constant is a positive integer.
    When the relaxation stops, g(a + v_i) divides g(a) mu_i for every a and
    i.  Along a word v_i1 + ... + v_ik of b this gives g(ab) | g(a) mu_i1
    ... mu_ik, so g(ab) divides g(a) D(b), D(b) the gcd of the scalars of
    all words of b.  Every g(b) is itself a gcd of scalars of words of b
    (each step takes the gcd with one more), so D(b) | g(b) and g(ab) | g(a)
    g(b).  The constants are thus never checked, and are at most gmax^2;
    only when gmax^2 >= 2^63 are they computed here, to raise OverflowError
    where one passes int64."""
    if s.mode != "exact":
        raise QuotientError("exact s-matrix required")
    n = s.n
    Q, roots = unit_roots(s.q)
    try:
        T, M = root_columns(s)
    except SpectraError as exc:
        raise QuotientError(str(exc)) from exc
    gens, mus = T.T, M[0].tolist()

    elems, sizes, gen_index, prod, g = _semigroup(gens, mus, Q, cap)
    dists = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    garr = _held(g, "lift scalars")
    # every constant is at most gmax^2: below 2^63 none can pass int64
    if int(garr.max()) ** 2 >= 2 ** 63:
        for _ in _constant_slabs(prod, garr):
            pass

    labels = [tuple(h) for h in elems.tolist()]
    lifted = PointedAlgebra(labels, prod=prod, scalars=garr)

    # exact integral decomposition of every g(h) h over the columns; column
    # w of W is g(h_w) zeta_Q^h_w on the power basis of Q(zeta_q)
    inv = s.inverse(tol=None)
    dt = int_dtype(int(garr.max()) * int(np.max(np.abs(roots))))
    W = garr.astype(dt)[None, :, None] * roots.astype(dt)[elems.T]
    vals, ok = (inv @ CycArray(s.q, W, 1)).integers()
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
    embedding is multiplicative on every pair of lifted basis elements:
    E[x] E[y] = mu[x, y] E[xy] in R.  A slab of columns y is one product
    E @ A[:, slab], with A[i, (y, t)] = sum_j E[y, j] N[i, j, t] formed
    once, each an exact int_matmul."""
    E = L.embedding
    m, n = E.shape
    if n != R.n:
        return False
    if not np.array_equal(E[list(L.distinguished)], np.eye(n, dtype=np.int64)):
        return False
    prod, mu = L.lifted.prod, L.lifted.mu
    A = int_matmul(E, R.N.transpose(1, 0, 2).reshape(n, n * n))
    A = A.reshape(m, n, n).transpose(1, 0, 2).reshape(n, m * n)
    for lo in range(0, m, _SLAB):
        hi = min(lo + _SLAB, m)
        P = int_matmul(E, A[:, lo * n:hi * n]).reshape(m, hi - lo, n)
        want = mu[:, lo:hi, None] * E[prod[:, lo:hi]]
        if not np.array_equal(P, want):
            return False
    return True


def _monomial_rows(prod, g):
    """The rows "p:mu p:mu ...\n" of a monomial product table with constants
    mu = g(a) g(b) / g(ab), as bytes, one piece per slab of _rows(m) rows,
    each one gather of fixed-width tokens.  With class tokens mu is never
    formed; without, mu is computed a slab at a time and each distinct (p,
    mu) cell of a slab is formatted once."""
    classes = _class_tokens(g)
    if classes is not None:
        row, col, tok = classes
        k = _rows(prod.shape[1])
        for lo in range(0, len(prod), k):
            block = prod[lo:lo + k]
            yield _slab_bytes(tok, row[lo:lo + len(block), None] + col + block)
        return
    m = prod.shape[1]
    heads = _ascii("%d:" % p for p in range(m))
    for lo, mu in _constant_slabs(prod, g):
        block = prod[lo:lo + len(mu)]
        values, rank = np.unique(mu, return_inverse=True)
        # one key per (p, mu) cell, below _rows(m) * m^2
        cells, at = np.unique(rank.reshape(block.shape) * m + block,
                              return_inverse=True)
        tails = _ascii(str(v) for v in values.tolist())
        at = at.reshape(block.shape)
        at[:, -1] += len(cells)
        yield _slab_bytes(_terminated(_joined(heads[cells % m],
                                              tails[cells // m])), at)


def _ideal_lines(L):
    """The lines "w<label> : e_1 ... e_n" of the basis elements outside the
    distinguished set, as bytes a slab of about _TEXT_SLAB tokens at a time,
    each one gather of fixed-width tokens: "w", the label's exponents ("+"
    and "-" for Q = 2, else "t." with the last as "t : ") and the
    coefficients of the decomposition, each distinct one formatted once."""
    alg, E, Q = L.lifted, L.embedding, L.group_order
    rest = np.ones(alg.m, dtype=bool)
    rest[list(L.distinguished)] = False
    rest = np.flatnonzero(rest)
    if not len(rest):
        return
    n = E.shape[1]
    if Q == 2:
        digits, sep = ["+", "-"], ""
    else:
        digits, sep = [str(t) for t in range(Q)], "."
    values, coef = np.unique(E[rest], return_inverse=True)
    heads = ["w"] + [t + sep for t in digits] + [t + " : " for t in digits]
    tok = np.concatenate([_ascii(heads),
                          _terminated(_ascii(map(str, values.tolist())))])
    # token columns: "w", n exponents, n coefficients; the last exponent and
    # the last coefficient of a line read the second half of their tokens
    labels = np.array(alg.labels, dtype=np.intp)
    idx = np.empty((len(rest), 1 + 2 * n), dtype=np.intp)
    idx[:, 0] = 0
    idx[:, 1:n + 1] = 1 + labels[rest]
    idx[:, n] += Q
    idx[:, n + 1:] = 1 + 2 * Q + coef.reshape(len(rest), n)
    idx[:, -1] += len(values)
    k = _rows(1 + 2 * n)
    for lo in range(0, len(rest), k):
        yield _slab_bytes(tok, idx[lo:lo + k])


def lift_lines(L):
    """The text of a lift as bytes, in pieces each ending in a newline,
    produced as they are formatted so that a writer never holds the whole
    text: the lifted tensor in block format (no involution line, the lift
    carries none), or, for lifts too large for dense text, the monomial
    product table (index:scalar pairs, one slab of rows a piece); then the
    distinguished preimages, and one ideal line per non-distinguished basis
    element giving its decomposition over the target basis."""
    alg = L.lifted
    if alg.m <= _DENSE_LIMIT:
        yield from (t.encode() for t in ring_lines(alg.dense_tensor()))
    else:
        yield b"zbrng-monomial 1\nn %d\n" % alg.m
        yield from _monomial_rows(alg.prod, L.scalars)
    yield ("distinguished %s\n" % " ".join(map(str, L.distinguished))).encode()
    yield from _ideal_lines(L)
