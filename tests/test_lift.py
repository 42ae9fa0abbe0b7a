"""The array semigroup lift (breadth-first enumeration on exponent rows, the
neighbour-table product, per-id column classification, the slab writer)
against the tuple-based lift and writer it replaced; exact scalars past
int64; an exhaustive structural check of the product table; runtime bounds."""

import time
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from zbrng.cli import main
from zbrng.exact import CycArray, CycNum, narrow_dtype, power_table
from zbrng.generators import gen_paley, group_ring_smatrix
from zbrng.hadamard import ring_from_hadamard
from zbrng.quotients import (LiftPresentation, PointedAlgebra, QuotientError,
                             _cayley, _class_tokens, _exponent_keys, _rows,
                             _semigroup, fannsc_lift, lift_lines,
                             quotient_verify)
from zbrng.rng_core import ring_from_tensor
from zbrng.spectra import (SMatrix, root_columns, smatrix_from_tensor,
                           smatrix_to_text, unit_roots, verlinde_tensor)

from cyc_oracle import equal, root_of_unity_factor, zeta
from text_oracle import oracle_ring_blocks


# ---------------------------------------------------------------------------
# oracle: the tuple-based lift and the cell-by-cell writer, as they were

def _root_exponent(w, Q):
    z = zeta(Q) if Q > 1 else CycNum.from_rat(1)
    cur = CycNum.from_rat(1)
    for t in range(Q):
        if equal(w, cur):
            return t
        cur = cur * z
    return None


def oracle_lift(s, cap=4096):
    if s.mode != "exact":
        raise QuotientError("exact s-matrix required")
    n = s.n
    Q = s.q if s.q % 2 == 0 else 2 * s.q

    mus = []
    gens = []
    for i in range(n):
        col = [row[i] for row in s.rows]
        mu_i = None
        exps = []
        for e in col:
            f = root_of_unity_factor(e)
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

    inv = s.inverse(tol=None)
    t = np.arange(Q)
    table = power_table(s.q)
    if Q == s.q:
        roots = table[t]
    else:
        roots = (np.where(t % 2, -1, 1)[:, None]
                 * table[t * (s.q + 1) // 2 % s.q])
    W = garr[None, :, None] * roots[np.array(elems).T]
    vals, ok = (inv @ CycArray(s.q, W, 1)).integers()
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


def oracle_dense(alg):
    N = np.zeros((alg.m, alg.m, alg.m), dtype=np.int64)
    for i in range(alg.m):
        for j in range(alg.m):
            N[i, j, alg.prod[i, j]] = alg.mu[i, j]
    return N


def oracle_label(L, w):
    exps = L.lifted.labels[w]
    if L.group_order == 2:
        return "".join("+-"[t] for t in exps)
    return ".".join(str(t) for t in exps)


def oracle_text(L, dense_limit=128):
    alg = L.lifted
    if alg.m <= dense_limit:
        lines = ["zbrng 1", "n %d" % alg.m]
        lines += oracle_ring_blocks(oracle_dense(alg))
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
                oracle_label(L, w),
                " ".join(str(int(x)) for x in L.embedding[w])))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# differential tests

def outcome(fn, s, cap=4096):
    try:
        return fn(s, cap=cap)
    except QuotientError as exc:
        return str(exc)


def first_difference(a, b):
    """(line, a's line, b's line) at the first differing line, or None; a
    short report where a plain == would make pytest diff megabytes."""
    for k, (x, y) in enumerate(zip_longest(a.splitlines(), b.splitlines())):
        if x != y:
            return k, (x or "")[:60], (y or "")[:60]
    return None


def assert_same_lift(s):
    want = outcome(oracle_lift, s)
    got = outcome(fannsc_lift, s)
    if isinstance(want, str):
        assert got == want
        return
    assert got.lifted.labels == want.lifted.labels
    assert all(type(x) is int for h in got.lifted.labels for x in h)
    for name in ("scalars", "distances", "embedding"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), name
    assert np.array_equal(got.lifted.prod, want.lifted.prod)
    assert np.array_equal(got.lifted.mu, want.lifted.mu)
    assert got.lifted.mu.dtype == np.int64
    assert got.distinguished == want.distinguished
    assert got.group_order == want.group_order
    text = b"".join(lift_lines(got)).decode()
    assert first_difference(text, oracle_text(want)) is None
    if got.lifted.m <= 128:
        assert np.array_equal(got.lifted.dense_tensor(),
                              oracle_dense(want.lifted))
    m = got.lifted.m
    with pytest.raises(QuotientError, match=r"exceeds cap \(%d\)" % (m - 1)):
        fannsc_lift(s, cap=m - 1)
    assert outcome(oracle_lift, s, cap=m - 1) == "|H| exceeds cap (%d)" % (
        m - 1)
    assert fannsc_lift(s, cap=m).lifted.m == m


def assert_lift_verifies(s):
    """The lift of s, where there is one, is a lift of the ring of s:
    quotient_verify against its Verlinde tensor."""
    try:
        L = fannsc_lift(s)
    except QuotientError:
        return
    R = ring_from_tensor(s.n, verlinde_tensor(s).tensor, range(s.n))
    assert quotient_verify(L, R)


def transformed(s, rows, cols, scales):
    """s with rows and columns permuted and column i multiplied by
    scales[i] (an integer, possibly negative)."""
    return SMatrix.exact([[s.rows[r][c] * scales[c] for c in cols]
                          for r in rows])


@st.composite
def group_tables(draw):
    orders = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)
                  .filter(lambda o: int(np.prod(o)) <= 16))
    s = group_ring_smatrix(orders)
    n = s.n
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.sampled_from([1, 1, 1, -1, 2, -3]),
                           min_size=n, max_size=n))
    return transformed(s, rows, cols, scales)


@settings(max_examples=20, deadline=None)
@given(group_tables())
def test_lift_matches_oracle_on_group_tables(s):
    assert_same_lift(s)
    assert_lift_verifies(s)


@pytest.mark.parametrize("orders", [[3], [5], [9], [2, 3], [3, 3], [4, 2],
                                    [7], [6], [8], [2, 2, 2], [3, 5]])
def test_lift_matches_oracle_on_fixed_group_tables(orders):
    assert_same_lift(group_ring_smatrix(orders))


@pytest.mark.parametrize("base", [2, 3])
def test_lift_matches_oracle_with_16_scalars(base):
    # Z/16 with column i scaled by base^i: 16 distinct scalars
    s = transformed(group_ring_smatrix([16]), range(16), range(16),
                    [base ** i for i in range(16)])
    assert len(set(fannsc_lift(s).scalars.tolist())) == 16
    assert_same_lift(s)
    assert_lift_verifies(s)


@pytest.fixture(scope="module")
def paley12_smatrix():
    return smatrix_from_tensor(ring_from_hadamard(gen_paley(11)))


# each example costs about a second, so a failure is reported unshrunk
@settings(max_examples=3, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_lift_matches_oracle_on_scrambled_paley12(paley12_smatrix, data):
    rows = data.draw(st.permutations(range(12)))
    cols = data.draw(st.permutations(range(12)))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=12,
                               max_size=12))
    s = transformed(paley12_smatrix, rows, cols, signs)
    assert_same_lift(s)
    assert_lift_verifies(s)


def test_lift_column_classification_errors():
    z = zeta(3)
    one = CycNum.from_rat(1)
    bad = [
        [[one, one], [one, z + one]],           # 1 + zeta_3 is a root, -z^2
        [[one, CycNum.from_rat(2)], [one, one]],   # two moduli in a column
        [[one, CycNum.from_rat(0)], [one, one]],   # a zero entry
        [[one, one + Fraction(1, 2)], [one, one]],  # not an integer modulus
    ]
    for rows in bad:
        s = SMatrix.exact(rows)
        assert outcome(fannsc_lift, s) == outcome(oracle_lift, s)
    s = SMatrix.numeric(np.eye(2))
    with pytest.raises(QuotientError, match="exact s-matrix required"):
        fannsc_lift(s)


# ---------------------------------------------------------------------------
# exact scalars

def scaled_z2(c):
    return SMatrix.exact([[c, c], [c, -c]])


@pytest.mark.parametrize("c", [3, 2 ** 32, 2 ** 40, 2 ** 62])
def test_lift_scalars_past_int64(c):
    # g = (c, c); mu = c * c / c = c, whose numerator c^2 wraps in int64
    L = fannsc_lift(scaled_z2(c))
    assert L.scalars.tolist() == [c, c]
    assert L.lifted.mu.tolist() == [[c, c], [c, c]]
    assert L.lifted.prod.tolist() == [[0, 1], [1, 0]]
    text = b"".join(lift_lines(L)).decode()
    assert text == ("zbrng 1\nn 2\nN 0\n%d 0\n0 %d\nN 1\n0 %d\n%d 0\n"
                    "distinguished 0 1\n" % (c, c, c, c))


@pytest.mark.parametrize("c", [3, 2 ** 51 - 1, 2 ** 51, 2 ** 60, 2 ** 62])
def test_quotient_verify_on_each_side_of_its_bounds(c):
    # n^2 max|E|^2 max|N| = 4c: float64 below 2^53, then int64, then
    # Python ints from 2^63; a constant off by one is seen in each
    s = scaled_z2(c)
    assert_lift_verifies(s)
    L = fannsc_lift(s)
    R = ring_from_tensor(2, verlinde_tensor(s).tensor, range(2))
    L.lifted.mu[1, 1] += 1
    assert not quotient_verify(L, R)


def test_lift_cli_scalars_past_int64(tmp_path, capsys):
    f = tmp_path / "c.smat"
    for c in (2 ** 32, 2 ** 40):
        f.write_text("smatrix 1\nn 2 2\n%d %d\n%d -%d\n" % (c, c, c, c))
        assert main(["lift", str(f)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2:5] == ["N 0", "%d 0" % c, "0 %d" % c]
    f.write_text("smatrix 1\nn 2 2\n%d %d\n%d -%d\n" % ((2 ** 70,) * 4))
    assert main(["lift", str(f)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "input error: lift scalars exceed int64\n"


def test_lift_constants_past_int64():
    # the scalars fit in int64 but a constant g(a) g(b) / g(ab) does not:
    # on Z/3, g(v_1) g(v_2) / g(v_0) = 2^64
    s = transformed(group_ring_smatrix([3]), range(3), range(3),
                    (1, 2 ** 32, 2 ** 32))
    with pytest.raises(OverflowError, match="lift constants exceed int64"):
        fannsc_lift(s)


# Z/3 column scales whose breadth-first scalars stay above the gcd over all
# words
RELAXATION_SCALES = [(1, 2, -1), (1, 3, -2), (1, -1, 2), (1, -2, 3)]


@pytest.mark.parametrize("scales", RELAXATION_SCALES)
def test_lift_gcd_relaxation_reaches_fixpoint(scales):
    # Z/3 with rescaled columns: g(h) from the breadth-first words alone
    # stays above the gcd over all words, and its scalar table is then not
    # integral; the fixpoint fails later, like the oracle
    s = transformed(group_ring_smatrix([3]), range(3), range(3), scales)
    assert outcome(fannsc_lift, s) == outcome(oracle_lift, s)


def assert_fixpoint_certifies(s):
    """At the gcd fixpoint g(prod[a, b]) divides g(a) g(b) for every cell,
    in Python ints: every constant of the lift is an integer, also where
    the lift fails later."""
    T, M = root_columns(s)
    _, _, _, prod, g = _semigroup(T.T, M[0].tolist(), unit_roots(s.q)[0],
                                  4096)
    g = np.array([int(x) for x in g.tolist()], dtype=object)
    assert all(x >= 1 for x in g)
    for lo in range(0, len(g), 128):
        num = g[lo:lo + 128, None] * g[None, :]
        assert not (num % g[prod[lo:lo + 128]]).any()


@settings(max_examples=30, deadline=None)
@given(st.one_of(group_tables(), st.sampled_from(RELAXATION_SCALES).map(
    lambda scales: transformed(group_ring_smatrix([3]), range(3), range(3),
                               scales))))
def test_gcd_fixpoint_certifies_on_rescaled_group_tables(s):
    assert_fixpoint_certifies(s)


@settings(max_examples=3, deadline=None)
@given(st.data())
def test_gcd_fixpoint_certifies_on_scrambled_paley12(paley12_smatrix, data):
    rows = data.draw(st.permutations(range(12)))
    cols = data.draw(st.permutations(range(12)))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=12,
                               max_size=12))
    assert_fixpoint_certifies(transformed(paley12_smatrix, rows, cols, signs))


# ---------------------------------------------------------------------------
# exhaustive structure and runtime

def check_structure(L):
    """labels[prod[a, b]] = labels[a] + labels[b] (mod Q) and
    mu[a, b] g(ab) = g(a) g(b) for every pair."""
    alg, Q, g = L.lifted, L.group_order, L.scalars
    lab = np.array(alg.labels)
    for lo in range(0, alg.m, 128):
        a = slice(lo, lo + 128)
        want = (lab[a, None, :] + lab[None, :, :]) % Q
        assert np.array_equal(lab[alg.prod[a]], want)
        assert np.array_equal(alg.mu[a] * g[alg.prod[a]],
                              g[a, None] * g[None, :])
    assert (alg.mu >= 1).all()


@pytest.mark.parametrize("q", [11, 23])
def test_lift_structure_exhaustive(q):
    R = ring_from_hadamard(gen_paley(q))
    L = fannsc_lift(smatrix_from_tensor(R))
    assert L.lifted.m == {11: 1024, 23: 2048}[q]
    check_structure(L)
    if q == 11:
        text = b"".join(lift_lines(L)).decode()
        assert first_difference(text, oracle_text(L)) is None
        assert quotient_verify(L, R)


def test_lift_paley24_runtime():
    s = smatrix_from_tensor(ring_from_hadamard(gen_paley(23)))
    t0 = time.perf_counter()
    text = b"".join(lift_lines(fannsc_lift(s))).decode()
    elapsed = time.perf_counter() - t0
    assert text.startswith("zbrng-monomial 1\nn 2048\n")
    assert elapsed < 2.0, elapsed


def test_lift_paley12_memory(paley12_smatrix):
    # one m x m index table in int16 (2 MB at m = 1024) and no table of
    # constants: an int64 prod and mu held 16 MB
    tracemalloc.start()
    try:
        L = fannsc_lift(paley12_smatrix)
        deque(lift_lines(L), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert L.lifted.m == 1024 and L.lifted.prod.dtype == np.int16
    assert peak < 8 * 2 ** 20, peak / 2 ** 20


def test_index_dtype_holds_every_index():
    # the product table of m elements is stored in narrow_dtype(m - 1)
    for m in (1, 128, 129, 2 ** 15, 2 ** 15 + 1, 2 ** 20):
        assert np.iinfo(narrow_dtype(m - 1)).max >= m - 1
    assert narrow_dtype(128 - 1) == np.int8
    assert narrow_dtype(2 ** 15 - 1) == np.int16
    assert narrow_dtype(2 ** 15) == np.int32


# ---------------------------------------------------------------------------
# the class tokens of the monomial writer, and the writer on both sides of
# their bound

SCALARS = [1, 2, 3, 5, 6, 10, 12, 30, 2 ** 40, 3 * 2 ** 40, 2 ** 62]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=12))
def test_class_tokens_match_quotients(g):
    g = np.array(g, dtype=np.int64)
    m = len(g)
    classes = _class_tokens(g)
    assert (classes is None) == (len(set(g.tolist())) > 8)
    if classes is None:
        return
    row, col, tok = classes
    # fixed-width bytes, as wide as the longest token
    assert tok.dtype.kind == "S"
    assert tok.dtype.itemsize == max(len(t) for t in tok.tolist())
    for a in range(m):
        for b in range(m):
            end = " " if b < m - 1 else "\n"
            for p in range(m):
                x, y, z = int(g[a]), int(g[b]), int(g[p])
                if x * y % z == 0:
                    want = "%d:%d%s" % (p, x * y // z, end)
                    assert tok[row[a] + col[b] + p] == want.encode()


PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def xor_lift(scalar, bits=8):
    """A monomial lift on the (Z/2)^bits XOR table, m = 2^bits, with scalars
    g(h) = scalar(bits of h) and constants g(a) g(b) / g(a xor b), formed
    in Python ints."""
    h = np.arange(2 ** bits)
    b = (h[:, None] >> np.arange(bits)) & 1
    g = np.array([scalar(r) for r in b.tolist()], dtype=np.int64)
    prod = h[:, None] ^ h
    go = g.astype(object)
    num = go[:, None] * go
    mu = num // go[prod]
    assert (mu * go[prod] == num).all()
    assert (mu >= 1).all() and (mu < 2 ** 63).all()
    lifted = PointedAlgebra([tuple(r) for r in b.tolist()], prod=prod,
                            mu=mu.astype(np.int64))
    return LiftPresentation(lifted, b.astype(np.int64),
                            tuple(1 << i for i in range(bits)), g,
                            b.sum(axis=1), 2)


@pytest.mark.parametrize("scalar, n_scalars", [
    # the product of the i-th primes over the support: 256 scalars, past
    # the class tokens' bound, so each slab ranks its own cells
    (lambda b: int(np.prod([p for p, t in zip(PRIMES, b) if t])), 256),
    # 2^min(|h|, 7): 8 scalars, the most that take class tokens
    (lambda b: 2 ** min(sum(b), 7), 8),
])
def test_monomial_writer_on_both_sides_of_class_bound(scalar, n_scalars):
    L = xor_lift(scalar)
    assert len(set(L.scalars.tolist())) == n_scalars
    assert (_class_tokens(L.scalars) is None) == (n_scalars > 8)
    text = b"".join(lift_lines(L)).decode()
    assert first_difference(text, oracle_text(L)) is None


@pytest.mark.parametrize("step, cap, n_scalars", [
    # g(h) = 2^(62 - min(5 |h|, 31)): 8 scalars, class tokens
    (5, 31, 8),
    # g(h) = 2^(62 - 3 |h|): 11 scalars, ranked per slab
    (3, 30, 11),
])
def test_monomial_writer_token_widths(step, cap, n_scalars):
    # m = 1024: products of 1 to 4 digits; scalars 2^31 .. 2^62 and
    # constants 2^(62 - d), d = f(a) + f(b) - f(a xor b) in 0 .. 2 cap for
    # the subadditive f(h) = min(step |h|, cap), of 1 to 19 digits
    L = xor_lift(lambda b: 2 ** (62 - min(step * sum(b), cap)), bits=10)
    assert L.lifted.m == 1024 and L.scalars.max() == 2 ** 62
    assert len(set(L.scalars.tolist())) == n_scalars
    assert (_class_tokens(L.scalars) is None) == (n_scalars > 8)
    digits = {len(str(x)) for x in np.unique(L.lifted.mu).tolist()}
    assert min(digits) == 1 and max(digits) == 19
    text = b"".join(lift_lines(L)).decode()
    assert first_difference(text, oracle_text(L)) is None


def test_dense_tensor_matches_loop():
    L = fannsc_lift(group_ring_smatrix([2, 3]))
    assert np.array_equal(L.lifted.dense_tensor(), oracle_dense(L.lifted))


# ---------------------------------------------------------------------------
# the breadth-first search on int64 keys and on void keys

def oracle_cayley(gens, Q):
    """_cayley's six results by a breadth-first search on tuples: each level
    sorted, each new element's (parent, via) its first sum a + gens[i] in
    order of i, then of a."""
    gens = [tuple(r) for r in gens.tolist()]

    def add(h, v):
        return tuple((x + y) % Q for x, y in zip(h, v))

    levels = [sorted(set(gens))]
    index = {h: a for a, h in enumerate(levels[0])}
    parent = [-1] * len(index)
    via = [gens.index(h) for h in levels[0]]
    while True:
        start = len(index) - len(levels[-1])
        found = {}
        for i, v in enumerate(gens):
            for a, h in enumerate(levels[-1]):
                b = add(h, v)
                if b not in index and b not in found:
                    found[b] = (start + a, i)
        if not found:
            break
        levels.append(sorted(found))
        for b in levels[-1]:
            index[b] = len(index)
            parent.append(found[b][0])
            via.append(found[b][1])
    elems = [h for level in levels for h in level]
    nbr = [[index[add(h, v)] for h in elems] for v in gens]
    return ([list(h) for h in elems], [len(level) for level in levels],
            parent, via, [index[h] for h in gens], nbr)


def as_lists(result):
    return tuple(x if isinstance(x, list) else np.asarray(x).tolist()
                 for x in result)


@st.composite
def exponent_generators(draw):
    """(gens, Q): up to 6 rows in (Z/Q0)^n with Q0^n <= 1024, scaled by c
    into (Z/Q)^n, Q = c Q0 <= 2048, so that |H| <= 1024 at any Q."""
    Q0 = draw(st.integers(2, 12))
    n = draw(st.integers(1, max(k for k in range(1, 11) if Q0 ** k <= 1024)))
    c = draw(st.integers(1, 2048 // Q0))
    k = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, Q0 - 1), min_size=n,
                                  max_size=n), min_size=k, max_size=k))
    return c * np.array(rows, dtype=np.int64), c * Q0


@settings(max_examples=60, deadline=None)
@given(exponent_generators())
def test_cayley_int64_and_void_keys_match_oracle(case):
    gens, Q = case
    k, n = gens.shape
    # zero columns up to Q^width >= 2^63 force the void keys and leave the
    # search as it is: the same sums, the same order of the tuples
    pad = next(w for w in range(64) if Q ** (n + w) >= 2 ** 63)
    wide = np.hstack([gens, np.zeros((k, pad), dtype=np.int64)])
    assert (_exponent_keys(Q, n)[0](gens).dtype == np.int64) == (
        Q ** n < 2 ** 63)
    assert _exponent_keys(Q, n + pad)[0](wide).dtype.kind == "V"
    narrow, void = _cayley(gens, Q, 4096), _cayley(wide, Q, 4096)
    assert not void[0][:, n:].any()
    void = (void[0][:, :n],) + void[1:]
    want = oracle_cayley(gens, Q)
    assert as_lists(narrow) == want
    assert as_lists(void) == want


# ---------------------------------------------------------------------------
# the lift's bytes, from -o and from stdout, where m is not a multiple of
# the writer's slab height

def negated(s):
    return SMatrix.exact([[-x for x in row] for row in s.rows])


@pytest.mark.parametrize("s, ideal", [
    # Z/12 x Z/6 with every column negated: m = 2n = 144, 72 ideal lines
    (negated(group_ring_smatrix([12, 6])), True),
    # Z/12 x Z/12: m = n = 144, a group lift with no ideal lines
    (group_ring_smatrix([12, 12]), False),
])
def test_lift_bytes_match_oracle(s, ideal, tmp_path, capsys):
    L = fannsc_lift(s)
    m = L.lifted.m
    assert m > 128 and m % _rows(m) and (m > s.n) == ideal
    want = oracle_text(L)
    assert (" : " in want) == ideal
    f, out = tmp_path / "s.smat", tmp_path / "s.lift"
    f.write_text(smatrix_to_text(s))
    assert main(["lift", str(f), "-o", str(out)]) == 0
    assert capsys.readouterr().out == "wrote %s\n" % out
    assert out.read_bytes() == want.encode()
    assert main(["lift", str(f)]) == 0
    assert capsys.readouterr().out == want
