import time
import tracemalloc
from fractions import Fraction
from functools import cache
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zbrng.exact import (CycArray, CycNum, ExactError, certify_inverse,
                         format_cyc, primes)
from zbrng.generators import (fixture_ds3, gen_paley, group_ring_smatrix,
                              exterior_square, kac_peterson_a1)
from zbrng.hadamard import ring_from_hadamard
from zbrng.quotients import fannsc_lift
from zbrng.rng_core import FormatError, is_closed_subset, ring_from_tensor
from zbrng.spectra import (SMatrix, SpectraError, _closed, _distinct_rows,
                           _row_order, closed_subset_heuristic,
                           involution_from_smatrix, row_orthogonality_check,
                           smatrix_from_tensor, smatrix_from_text,
                           smatrix_to_text, subring_smatrix, verlinde_tensor)

from conftest import ring_from_smatrix
from cyc_oracle import equal, exact_int, key, mat_inverse, zeta

MONOID = np.array([[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
                  dtype=float)


def permutation_tensor(n):
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, (i + j) % n] = 1
    return N


def test_smatrix_constructors():
    s = group_ring_smatrix([3])
    assert s.mode == "exact" and s.n == 3 and s.q == 3
    a = s.to_numeric()
    assert np.allclose(a @ a.conj().T, 3 * np.eye(3))
    with pytest.raises(SpectraError, match="square"):
        SMatrix.exact([[CycNum.from_rat(1)], []])
    with pytest.raises(SpectraError, match="square"):
        SMatrix.numeric(np.ones((2, 3)))


def test_rational_tables_have_order_one():
    s = group_ring_smatrix([2, 2, 2])
    assert s.q == 1
    # one power-basis coefficient per entry: the entries are rationals
    assert s.array.q == 1 and s.array.num.shape == (8, 8, 1)
    assert group_ring_smatrix([2, 3]).q == 6


@pytest.mark.parametrize("s", [group_ring_smatrix([2, 3]), fixture_ds3()])
def test_decompose_exact_columns(s):
    inv = s.inverse(1e-8)
    for i in range(s.n):
        vals, ok = (inv @ s.array[:, i:i + 1]).integers()
        assert ok.all()
        assert vals[:, 0].tolist() == [int(m == i) for m in range(s.n)]


def test_decompose_numeric_columns():
    s = kac_peterson_a1(3)
    coeff = s.inverse(1e-8) @ s.array
    assert np.allclose(coeff, np.eye(s.n))


def test_exact_inverse_singular():
    z = zeta(3)
    for rows in ([[1, 1], [1, 1]], [[z, z], [1, 1]]):
        with pytest.raises(SpectraError, match="singular matrix"):
            SMatrix.exact(rows).inverse(1e-8)


def test_verlinde_exact_group_ring():
    res = verlinde_tensor(group_ring_smatrix([5]))
    assert res.mode == "exact" and res.integral and res.nonnegative
    assert np.array_equal(res.tensor, permutation_tensor(5))


def test_verlinde_numeric_matches_exact():
    s = group_ring_smatrix([4])
    res_n = verlinde_tensor(SMatrix.numeric(s.to_numeric()))
    assert res_n.mode == "numeric"
    assert res_n.max_deviation < 1e-9
    assert np.array_equal(res_n.tensor, permutation_tensor(4))


def test_verlinde_rational_fast_path():
    res = verlinde_tensor(fixture_ds3())
    assert res.mode == "exact" and res.integral
    assert res.nonnegative


def test_verlinde_non_integral():
    s = SMatrix.numeric(np.array([[1.0, 1.0], [1.0, -1.3]]))
    with pytest.raises(SpectraError, match="non-integral structure constant"):
        verlinde_tensor(s)


def test_verlinde_numeric_witness_matches_exact():
    # both report the first non-integral constant in (i, j >= i, m) order
    s = exterior_square(group_ring_smatrix([2, 2, 2]))
    msgs = []
    for t in (s, SMatrix.numeric(s.to_numeric())):
        with pytest.raises(SpectraError, match="non-integral") as exc:
            verlinde_tensor(t)
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
def test_numeric_rejects_non_finite(bad):
    with pytest.raises(SpectraError, match="non-finite entry"):
        SMatrix.numeric([[1.0, 1.0], [1.0, bad]])


def test_verlinde_singular():
    s = SMatrix.numeric(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SpectraError, match="singular"):
        verlinde_tensor(s)


def test_row_orthogonality(paley12):
    s = SMatrix.numeric(3.0 * paley12.array)
    ok, dev = row_orthogonality_check(s, tuple(range(12)))
    assert ok and dev < 1e-12
    bad, _ = row_orthogonality_check(SMatrix.numeric(MONOID),
                                     tuple(range(4)))
    assert not bad


def test_involution_group_ring():
    tilde = involution_from_smatrix(group_ring_smatrix([5]))
    assert tilde == (0, 4, 3, 2, 1)


def test_involution_monoid_rejected():
    with pytest.raises(SpectraError, match="no conjugation permutation"):
        involution_from_smatrix(SMatrix.numeric(MONOID))


def test_smatrix_from_tensor_numeric_roundtrip(z3_ring):
    s = smatrix_from_tensor(z3_ring)
    assert s.mode == "numeric"
    res = verlinde_tensor(s)
    assert np.array_equal(res.tensor, z3_ring.N)


def test_smatrix_from_tensor_hadamard_exact(paley12_ring, paley12):
    s = smatrix_from_tensor(paley12_ring)
    assert s.mode == "exact" and s.q == 1
    rows = np.array([[int(e.rational_value()) for e in row] for row in s.rows])
    assert sorted(map(tuple, rows // 3)) == sorted(map(tuple, paley12.array))
    assert np.array_equal(verlinde_tensor(s).tensor, paley12_ring.N)


def test_heuristic_exact_cyclic4():
    got = closed_subset_heuristic(group_ring_smatrix([4]))
    assert got.sets == [(0,), (0, 2), (0, 1, 2, 3)]
    assert all(got.flags)


def test_heuristic_numeric(z3_ring):
    s = smatrix_from_tensor(z3_ring)
    got = closed_subset_heuristic(s)
    assert got.sets == [(0,), (0, 1, 2)]


def test_heuristic_sound_on_rings(z6_ring):
    s = group_ring_smatrix([2, 3])
    for S in closed_subset_heuristic(s).sets:
        assert is_closed_subset(z6_ring, list(S))


def test_heuristic_hadamard_full_only(paley12_ring):
    s = smatrix_from_tensor(paley12_ring)
    got = closed_subset_heuristic(s)
    assert got.sets == [tuple(range(12))]


def test_subring_smatrix_cyclic4():
    s = group_ring_smatrix([4])
    sub = subring_smatrix(s, (0, 2))
    vals = sorted(tuple(int(e.rational_value()) for e in row)
                  for row in sub.rows)
    assert vals == [(1, -1), (1, 1)]
    with pytest.raises(SpectraError, match="S not closed"):
        subring_smatrix(s, (0, 1))
    with pytest.raises(SpectraError, match="out of range"):
        subring_smatrix(s, (0, 4))


def test_subring_smatrix_hadamard_pair(paley12_ring):
    s = smatrix_from_tensor(paley12_ring)
    sub = subring_smatrix(s, (0, 1))
    vals = sorted(tuple(int(e.rational_value()) for e in row)
                  for row in sub.rows)
    assert vals == [(3, -3), (3, 3)]


def test_text_roundtrip_exact():
    s = group_ring_smatrix([2, 3])
    back = smatrix_from_text(smatrix_to_text(s))
    assert back.mode == "exact" and back.n == s.n
    for r1, r2 in zip(s.rows, back.rows):
        assert all(equal(a, b) for a, b in zip(r1, r2))


def test_text_roundtrip_numeric(z3_ring):
    s = smatrix_from_tensor(z3_ring)
    back = smatrix_from_text(smatrix_to_text(s))
    assert back.mode == "numeric"
    assert np.allclose(back.array, s.array)


@pytest.mark.parametrize("text", [
    "", "smatrix 9\n", "smatrix 1\nn 2\n1 2\n", "smatrix 1\nn 1 1\nz(\n",
])
def test_text_errors(text):
    with pytest.raises(FormatError):
        smatrix_from_text(text)


@st.composite
def numeric_path_tables(draw):
    """The exact character table of a product of cyclic groups with a factor
    of order >= 3 (order <= 64), or the level-k sl2 table, k in 1..12: each
    the s-matrix of its Verlinde ring, which (but for k = 1, the Z/2 ring)
    is not of Hadamard type."""
    if draw(st.booleans()):
        return kac_peterson_a1(draw(st.integers(1, 12)))
    orders = draw(st.lists(st.integers(2, 7), min_size=1, max_size=4)
                  .filter(lambda o: max(o) >= 3 and prod(o) <= 64))
    return group_ring_smatrix(orders)


@settings(max_examples=30, deadline=None)
@given(numeric_path_tables())
@example(group_ring_smatrix([3, 3, 3, 3]))
def test_numeric_characters_match_known_table(t):
    """The characters of a Verlinde ring are the rows of its table: every
    computed row lies within 1e-9 max(1, max|s|) of one row of the table,
    each table row is matched once, the rows come in _row_order, and
    Verlinde gives the tensor back."""
    ring = ring_from_smatrix(t)
    s = smatrix_from_tensor(ring)
    assert s.mode == ("exact" if ring.n == 2 else "numeric")
    got, want = s.to_numeric(), t.to_numeric()
    dist = np.abs(got[:, None, :] - want[None]).max(axis=2)
    match = dist.argmin(axis=1)
    assert sorted(match.tolist()) == list(range(ring.n))
    assert (dist[np.arange(ring.n), match].max()
            <= 1e-9 * max(1.0, float(np.abs(want).max())))
    assert _row_order(got) == list(range(ring.n))
    assert np.array_equal(verlinde_tensor(s).tensor, ring.N)


# b_1^2 = 0: the dual numbers, not semisimple, so the two eigenvalues of
# every element coincide; and a commutative ring that is not associative,
# whose regular representations do not commute
DUAL = np.array([[[1, 0], [0, 1]], [[0, 1], [0, 0]]])
NONASSOC = np.array([[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                     [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                     [[0, 0, 1], [0, 1, 0], [2, 0, 0]]])


@pytest.mark.parametrize("N", [DUAL, NONASSOC], ids=["dual", "nonassoc"])
def test_numeric_splitting_failed(N):
    ring = ring_from_tensor(len(N), N, range(len(N)))
    with pytest.raises(SpectraError, match="^splitting failed$"):
        smatrix_from_tensor(ring)


def test_numeric_characters_memory_bound():
    """On the Z/3^4 ring (n = 81) the numeric path holds no n^4 or complex
    n^3 array: its tracemalloc peak stays below 24 MB."""
    ring = ring_from_smatrix(group_ring_smatrix([3, 3, 3, 3]))
    tracemalloc.start()
    try:
        smatrix_from_tensor(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20, "peak %.1f MB" % (peak / 2 ** 20)


def test_exterior_square_fixture_row_orthogonal():
    e6 = exterior_square(group_ring_smatrix([2, 2]))
    ring = ring_from_smatrix(e6)
    s_back = smatrix_from_tensor(ring)
    assert np.array_equal(verlinde_tensor(s_back).tensor, ring.N)


# ---------------------------------------------------------------------------
# differential tests: the coefficient-array kernels against the per-entry
# Gauss-Jordan (cyc_oracle.mat_inverse) and CycNum/Fraction arithmetic they
# replaced

def oracle_inverse(s):
    rows = ([[e.rational_value() for e in row] for row in s.rows]
            if s.q == 1 else s.rows)
    return mat_inverse(rows)


def oracle_decompose(inv, w):
    nz = [l for l, x in enumerate(w) if x]
    return [sum(row[l] * w[l] for l in nz) for row in inv]


def oracle_product(s, i, j):
    rows = ([[e.rational_value() for e in row] for row in s.rows]
            if s.q == 1 else s.rows)
    return [row[i] * row[j] for row in rows]


def oracle_verlinde(s):
    """The tensor, or the message of the first non-integral constant in
    (i, j >= i, m) order."""
    n, inv = s.n, oracle_inverse(s)
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i, n):
            w = oracle_product(s, i, j)
            for m, c in enumerate(oracle_decompose(inv, w)):
                v = exact_int(c)
                if v is None:
                    return ("non-integral structure constant at (%d,%d,%d)"
                            % (i, j, m))
                N[i, j, m] = N[j, i, m] = v
    return N


def oracle_support(s, inv, i, j):
    return frozenset(m for m, c in enumerate(
        oracle_decompose(inv, oracle_product(s, i, j))) if c)


def oracle_supports(s):
    """support(i, j) of col_i * col_j in CycNum arithmetic, computed on
    first use (the inverse too)."""
    inv = cache(lambda: oracle_inverse(s))
    return cache(lambda i, j: oracle_support(s, inv(), min(i, j), max(i, j)))


def oracle_is_closed(support, n, S):
    return len(S) == n or all(support(i, j) <= set(S)
                              for i in S for j in S if i <= j)


def oracle_candidates(s):
    """The agreement-set family of closed_subset_heuristic before the
    closedness filter, with CycNum keys, sorted by (length, content)."""
    n = s.n
    keys = [[key(e) for e in row] for row in s.rows]

    def pair_test(cols):
        rows = {tuple(keys[l][c] for c in cols) for l in range(n)
                if any(not s.rows[l][c].is_zero() for c in cols)}
        return len(rows) == len(cols)

    family = set()
    for l in range(n):
        for m in range(l, n):
            cand = tuple(c for c in range(n) if keys[l][c] == keys[m][c])
            if cand and pair_test(cand):
                family.add(cand)
    while True:
        members = sorted(family)
        new = set()
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                inter = tuple(sorted(set(members[x]) & set(members[y])))
                if inter and inter not in family and pair_test(inter):
                    new.add(inter)
        if not new:
            break
        family |= new
    return sorted(family, key=lambda t: (len(t), t))


def oracle_involution(s):
    cols = list(zip(*s.rows))
    keys = {tuple(key(e) for e in cols[j]): j for j in range(s.n)}
    return tuple(keys.get(tuple(key(e.conj()) for e in cols[i]))
                 for i in range(s.n))


def permuted_table(orders, perm):
    s = group_ring_smatrix(orders)
    return SMatrix.exact([[row[c] for c in perm] for row in s.rows])


@st.composite
def group_tables(draw, max_order=12):
    orders = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)
                  .filter(lambda o: prod(o) <= max_order))
    perm = draw(st.permutations(range(prod(orders))))
    return permuted_table(orders, perm)


def paley12_table():
    return smatrix_from_tensor(ring_from_hadamard(gen_paley(11)))


def check_against_oracle(s):
    want = oracle_verlinde(s)
    if isinstance(want, str):
        with pytest.raises(SpectraError) as exc:
            verlinde_tensor(s)
        assert str(exc.value) == want
    else:
        assert np.array_equal(verlinde_tensor(s).tensor, want)
    support = oracle_supports(s)
    candidates = oracle_candidates(s)
    sets = closed_subset_heuristic(s).sets
    assert sets == [S for S in candidates
                    if oracle_is_closed(support, s.n, S)]
    # _closed on closed and non-closed sets alike: every candidate, every
    # single column and each pair together with its support
    tested = set(candidates) | {(i,) for i in range(s.n)} | {
        tuple(sorted(support(i, j) | {i, j}))
        for i in range(s.n) for j in range(i, s.n)}
    inv = s.inverse(1e-8)
    for S in sorted(tested):
        assert _closed(s, inv, S, 1e-8) == oracle_is_closed(support, s.n, S)
    for S in sets:
        check_subring_against_oracle(s, S)


def check_subring_against_oracle(s, S):
    """subring_smatrix keeps the distinct nonzero rows of the submatrix."""
    seen, want = set(), []
    for row in s.rows:
        sub = [row[c] for c in S]
        row_key = tuple(key(e) for e in sub)
        if any(not e.is_zero() for e in sub) and row_key not in seen:
            seen.add(row_key)
            want.append(tuple(format_cyc(e) for e in sub))
    if len(want) != len(S):
        with pytest.raises(SpectraError, match="read-off failed"):
            subring_smatrix(s, S)
        return
    got = subring_smatrix(s, S)
    assert sorted(tuple(format_cyc(e) for e in row)
                  for row in got.rows) == sorted(want)


@settings(max_examples=12, deadline=None)
@given(group_tables())
def test_kernels_match_oracle_group_tables(s):
    check_against_oracle(s)
    assert involution_from_smatrix(s) == oracle_involution(s)
    a = s.array
    assert certify_inverse(a, s.inverse(1e-8))
    # the interned ids see exactly the equalities of the CycNum keys
    keys = [[key(e) for e in row] for row in s.rows]
    flat = [k for row in keys for k in row]
    ids = s.ids.ravel().tolist()
    assert all((ids[x] == ids[y]) == (flat[x] == flat[y])
               for x in range(len(ids)) for y in range(len(ids)))


def test_kernels_match_oracle_paley12():
    s = paley12_table()
    assert s.q == 1
    check_against_oracle(s)


def test_kernels_match_oracle_non_integral_ext2():
    s = exterior_square(group_ring_smatrix([2, 2, 2]))
    assert s.q == 1 and isinstance(oracle_verlinde(s), str)
    check_against_oracle(s)


def small_tables():
    """Square matrices of order <= 4, entries a + b zeta_q, q in 1, 3, 4."""
    def entries(q):
        return st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(
            lambda ab: CycNum(q, {0: Fraction(ab[0]), 1: Fraction(ab[1])}))
    return st.tuples(st.sampled_from([1, 3, 4]), st.integers(1, 4)).flatmap(
        lambda qn: st.lists(st.lists(entries(qn[0]), min_size=qn[1],
                                     max_size=qn[1]),
                            min_size=qn[1], max_size=qn[1]))


@settings(max_examples=40, deadline=None)
@given(small_tables())
# its first non-integral constant in (i, j, m) order is not the first in
# (i, m, j) order
@example([[1, 3, 3], [3, -3, -2], [2, -3, -1]])
def test_random_tables_match_oracle(rows):
    s = SMatrix.exact(rows)
    try:
        inv = oracle_inverse(s)
    except ExactError:
        with pytest.raises(SpectraError, match="singular matrix"):
            s.inverse(1e-8)
        with pytest.raises(SpectraError, match="singular matrix"):
            verlinde_tensor(s)
        return
    got = s.inverse(1e-8)
    for m in range(s.n):
        for l in range(s.n):
            coeffs = {e: Fraction(int(c), got.den)
                      for e, c in enumerate(got.num[m, l].tolist()) if c}
            assert equal(CycNum(s.q, coeffs), inv[m][l])
    want = oracle_verlinde(s)
    if isinstance(want, str):
        with pytest.raises(SpectraError) as exc:
            verlinde_tensor(s)
        assert str(exc.value) == want
    else:
        assert np.array_equal(verlinde_tensor(s).tensor, want)


@settings(max_examples=15, deadline=None)
@given(group_tables(max_order=8), st.data())
def test_singular_cyclotomic_matrix(s, data):
    # replace a row by a multiple of another row: det = 0
    rows = [list(r) for r in s.rows]
    l, m = data.draw(st.lists(st.integers(0, s.n - 1), min_size=2,
                              max_size=2, unique=True))
    scale = zeta(s.q, data.draw(st.integers(0, s.q))) * 2
    rows[m] = [scale * e for e in rows[l]]
    with pytest.raises(SpectraError, match="singular matrix"):
        SMatrix.exact(rows).inverse(1e-8)


def test_subring_block_diagonal_skips_zero_rows():
    # characters of Z/2 x Z/3 as a product of rings: each factor's rows
    # vanish on the other factor's columns
    a, b = group_ring_smatrix([2]).rows, group_ring_smatrix([3]).rows
    zero = CycNum.from_rat(0)
    s = SMatrix.exact([list(r) + [zero] * 3 for r in a]
                      + [[zero] * 2 + list(r) for r in b])
    for S in ((0, 1), (2, 3, 4), (0, 2)):
        check_subring_against_oracle(s, S)
    assert subring_smatrix(s, (2, 3, 4)).n == 3


def test_inverse_primes_that_mislead_or_divide_det():
    # 1/2^31 is 1 modulo the first prime 2^31 - 1: only the certificate
    # rejects that reconstruction
    assert SMatrix.exact([[2 ** 31]]).inverse(1e-8).den == 2 ** 31
    # the first prime divides det, so its image is singular
    inv = SMatrix.exact([[2 ** 31 - 1]]).inverse(1e-8)
    assert (inv.num.tolist(), inv.den) == ([[[1]]], 2 ** 31 - 1)


def test_inverse_needs_several_primes(monkeypatch):
    import zbrng.exact as exact
    calls = []
    real = exact._inverse_mod

    def counting(*args):
        calls.append(args[2])
        return real(*args)
    monkeypatch.setattr(exact, "_inverse_mod", counting)
    big = 2 ** 40 + 15
    z = zeta(5)
    rows = [[big, 1, 0], [z, 1, 3], [1, z * z, 2 ** 33]]
    s = SMatrix.exact(rows)
    inv = s.inverse(1e-8)
    assert len(calls) >= 2 and len(set(calls)) == len(calls)
    # denominators beyond one prime's reconstruction bound
    assert inv.den > 2 ** 16
    want = mat_inverse(s.rows)
    for m in range(3):
        for l in range(3):
            coeffs = {e: Fraction(int(c), inv.den)
                      for e, c in enumerate(inv.num[m, l].tolist()) if c}
            assert equal(CycNum(s.q, coeffs), want[m][l])


def counting_inverse_mod(mp):
    """Patch exact._inverse_mod (the per-prime step of CycArray.inverse) to
    record its primes in the returned list."""
    import zbrng.exact as exact
    calls = []
    real = exact._inverse_mod

    def counting(*args):
        calls.append(args[2])
        return real(*args)
    mp.setattr(exact, "_inverse_mod", counting)
    return calls


def assert_inverse_equals(inv, want, q):
    """The CycArray inv holds the matrix want of CycNums or Fractions."""
    n = len(want)
    for m in range(n):
        for l in range(n):
            coeffs = {e: Fraction(int(c), inv.den)
                      for e, c in enumerate(inv.num[m, l].tolist()) if c}
            assert equal(CycNum(q, coeffs), want[m][l])


def least_denominator(want):
    """The lcm of the denominators of want's power-basis coefficients."""
    return lcm(*(c.denominator for row in want for e in row for c in
                 (e.coeffs.values() if isinstance(e, CycNum) else [e])))


def test_dixon_primes_that_mislead_or_divide_det(monkeypatch):
    # the two cases above on CycArray.inverse itself, at its first prime p:
    # 1/(p + 1) is 1 modulo p, and p divides det (a 1 x 1 SMatrix has a
    # diagonal Gram matrix and no longer reaches it)
    p = next(primes(1, 1))
    calls = counting_inverse_mod(monkeypatch)
    a = CycArray(1, np.array([[[p + 1]]]), 1)
    assert a.inverse().den == p + 1
    assert calls[0] == p
    calls.clear()
    inv = CycArray(1, np.array([[[p]]]), 1).inverse()
    assert (inv.num.tolist(), inv.den) == ([[[1]]], p)
    assert len(calls) >= 2 and calls[0] == p


@st.composite
def orthogonal_tables(draw):
    """Group tables (order <= 12) or exterior squares of group tables
    (order <= 6, so n <= 15), each row scaled by a nonzero rational."""
    if draw(st.booleans()):
        s = draw(group_tables())
    else:
        s = exterior_square(draw(group_tables(max_order=6)))
    scales = draw(st.lists(st.sampled_from(
        [1, 1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)]),
        min_size=s.n, max_size=s.n))
    return SMatrix.exact([[e * c for e in row]
                          for row, c in zip(s.rows, scales)])


@settings(max_examples=25, deadline=None)
@given(orthogonal_tables())
@example(permuted_table([2, 3], [1, 4, 0, 5, 3, 2]))
@example(exterior_square(group_ring_smatrix([2, 2])))
def test_orthogonal_inverse_matches_oracle(s):
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_inverse_mod(mp)
        inv = s.inverse(1e-8)
    assert calls == []
    want = oracle_inverse(s)
    assert_inverse_equals(inv, want, s.q)
    assert inv.den == least_denominator(want)
    assert certify_inverse(s.array, inv)


@settings(max_examples=25, deadline=None)
@given(orthogonal_tables())
def test_text_roundtrip_exact_tables(s):
    # group tables and exterior squares, rows scaled by rationals
    text = smatrix_to_text(s)
    back = smatrix_from_text(text)
    assert back.mode == "exact" and back.q == s.q
    assert back.array.den == s.array.den
    assert np.array_equal(back.array.num, s.array.num)
    assert np.array_equal(back.ids, s.ids)
    assert smatrix_to_text(back) == text


def test_orthogonal_rows_of_irrational_norm_take_dixon(monkeypatch):
    # rows are orthogonal, but |1 + zeta_5|^2 = 2 + zeta_5 + zeta_5^-1 is
    # not rational: the Gram matrix is diagonal and the inverse is Dixon's
    calls = counting_inverse_mod(monkeypatch)
    z = zeta(5)
    zero = CycNum.from_rat(0)
    for rows in ([[CycNum.from_rat(1), zero], [zero, 1 + z]],
                 [[1 + z, 1 + z], [1 + z, -(1 + z)]]):
        calls.clear()
        s = SMatrix.exact(rows)
        inv = s.inverse(1e-8)
        assert calls
        assert_inverse_equals(inv, oracle_inverse(s), s.q)


def test_python_int_coefficients_match_oracle():
    # entries beyond int64 keep Python-int coefficient arrays
    z = zeta(3)
    s = SMatrix.exact([[2 ** 70, 3, z], [5, z, 1], [1, 2 ** 65 * z, 7]])
    assert s.array.num.dtype == object
    inv = s.inverse(1e-8)
    want = oracle_inverse(s)
    for m in range(3):
        for l in range(3):
            coeffs = {e: Fraction(int(c), inv.den)
                      for e, c in enumerate(inv.num[m, l].tolist()) if c}
            assert equal(CycNum(s.q, coeffs), want[m][l])
    with pytest.raises(SpectraError) as exc:
        verlinde_tensor(s)
    assert str(exc.value) == oracle_verlinde(s)


def test_corrupted_inverse_fails_certificate():
    s = permuted_table([3, 5], list(range(15))[::-1])
    inv = s.inverse(1e-8)
    assert certify_inverse(s.array, inv)
    for pos in [(0, 0, 0), (3, 7, 5), (14, 2, 1)]:
        bad = CycArray(inv.q, inv.num.copy(), inv.den)
        bad.num[pos] += 1
        assert not certify_inverse(s.array, bad)
    assert not certify_inverse(s.array, CycArray(inv.q, inv.num, inv.den + 1))


@pytest.mark.parametrize("make", [
    lambda: permuted_table([2, 3], [3, 0, 5, 1, 4, 2]),
    lambda: permuted_table([4], [2, 0, 3, 1]),
    lambda: permuted_table([3, 3], [8, 1, 4, 0, 6, 2, 7, 5, 3]),
    lambda: group_ring_smatrix([2, 2, 2]),
    paley12_table,
], ids=["z6", "z4", "z3xz3", "z2cubed", "paley12"])
def test_lift_embedding_matches_oracle(make):
    s = make()
    L = fannsc_lift(s)
    Q = L.group_order
    inv = oracle_inverse(s)
    roots = [1, -1] if s.q == 1 else [zeta(Q, t) for t in range(Q)]
    for w, h in enumerate(L.lifted.labels):
        g = int(L.scalars[w])
        want = [exact_int(c) for c in
                oracle_decompose(inv, [g * roots[t] for t in h])]
        assert L.embedding[w].tolist() == want


def test_entry_ids_across_a_rounding_boundary():
    # 1/512 is a tie at the ninth decimal: rounded to 8 decimals these two
    # values part, within tol they share an id
    lo, hi = 1 / 512 - 1e-17, 1 / 512 + 1e-17
    assert np.round(lo, 8) != np.round(hi, 8)
    ids = SMatrix.numeric([[lo, 1.0], [hi, -1.0]]).entry_ids(1e-8)[0]
    assert ids[0, 0] == ids[1, 0] and ids[0, 1] != ids[1, 1]


def test_entry_ids_zero_cluster_scales_with_max():
    ids, _, zero = SMatrix.numeric([[1.0, 5e-6], [1.0, -1.0]]).entry_ids(1e-8)
    assert ids[0, 1] != zero
    ids, _, zero = SMatrix.numeric([[1e3, 5e-6], [1.0, -1.0]]).entry_ids(1e-8)
    assert ids[0, 1] == zero


def test_entry_ids_conjugate_clusters():
    a = np.array([[1j, 1 + 1e-10j, 2], [-1j, 1 - 1e-10j, 2 + 3j],
                  [1, 1, 0.5 - 3j]])
    ids, conj_ids, zero = SMatrix.numeric(a).entry_ids(1e-8)
    assert conj_ids[ids[0, 0]] == ids[1, 0] != ids[0, 0]
    assert ids[0, 1] == ids[1, 1] == ids[2, 0] == conj_ids[ids[0, 1]]
    assert ids[1, 2] != conj_ids[ids[1, 2]] not in ids
    assert conj_ids[zero] == zero not in ids
    assert np.array_equal(conj_ids[conj_ids], np.arange(len(conj_ids)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3),
              st.sampled_from([0, 1e-17, -3e-9, 4e-9]),
              st.sampled_from([0, -1e-17, 3e-9])),
    min_size=n * n, max_size=n * n)))
def test_entry_ids_is_the_tolerance_relation(cells):
    """Values within tol * max(1, max|s|) share an id, values of a coarse
    grid do not, and conjugation maps the clusters onto those of the
    conjugate matrix."""
    n = int(len(cells) ** 0.5)
    a = np.array([complex(x / 2 + dx, y / 2 + dy)
                  for x, y, dx, dy in cells]).reshape(n, n)
    ids, conj_ids, zero = SMatrix.numeric(a).entry_ids(1e-8)
    eps = 1e-8 * max(1.0, float(np.max(np.abs(a))))
    flat, got = np.append(a.ravel(), 0), np.append(ids.ravel(), zero)
    for x in range(len(flat)):
        for y in range(len(flat)):
            d = abs(flat[x] - flat[y])
            assert (got[x] == got[y]) == (d <= eps) or eps < d < 0.1
    assert np.array_equal(conj_ids[ids],
                          SMatrix.numeric(a.conj()).entry_ids(1e-8)[0])


@settings(max_examples=12, deadline=None)
@given(group_tables())
def test_numeric_read_offs_match_exact(s):
    """A group table embedded in floats gives the exact table's id
    partition, conjugate ids, closed sets, involution and subring rows."""
    num = SMatrix.numeric(s.to_numeric())
    ids, conj_ids, zero = num.entry_ids(1e-8)
    pairs = dict(zip(s.ids.ravel().tolist(), ids.ravel().tolist()))
    assert len(pairs) == len(np.unique(s.ids)) == len(np.unique(ids))
    assert all(pairs[s.conj_ids[e]] == conj_ids[f] for e, f in pairs.items())
    assert zero not in pairs.values()
    sets = closed_subset_heuristic(s).sets
    assert closed_subset_heuristic(num).sets == sets
    assert involution_from_smatrix(num) == involution_from_smatrix(s)
    for S in sets:
        assert np.allclose(subring_smatrix(num, S).array,
                           subring_smatrix(s, S).to_numeric(), atol=1e-12)


def per_pair_family(s, tol):
    """The family of closed_subset_heuristic before the closedness filter,
    in its per-pair form: one candidate per row pair, and each closure round
    intersects every pair of members and tests each intersection not yet in
    the family, until a round adds nothing; sorted by (length, content)."""
    n = s.n
    ids, _, zero_id = s.entry_ids(tol)

    def spans(cols):
        return len(_distinct_rows(ids, zero_id, list(cols))) == len(cols)

    family = set()
    for l in range(n):
        for m in range(l, n):
            cand = tuple(np.flatnonzero(ids[l] == ids[m]).tolist())
            if cand and spans(cand):
                family.add(cand)
    while True:
        new = set()
        members = sorted(family)
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                inter = tuple(sorted(set(members[x]) & set(members[y])))
                if inter and inter not in family and inter not in new:
                    if spans(inter):
                        new.add(inter)
        if not new:
            break
        family |= new
    return sorted(family, key=lambda t: (len(t), t))


def numeric_supports(s, tol):
    """support(i, j) of col_i * col_j of a numeric table, on first use:
    np.linalg.solve, nonzero above tol * max(1, max|s|^2)."""
    a = s.array
    cutoff = tol * max(1.0, float(np.max(np.abs(a))) ** 2)
    return cache(lambda i, j: frozenset(np.flatnonzero(
        np.abs(np.linalg.solve(a, a[:, i] * a[:, j])) > cutoff).tolist()))


def per_pair_closed(s, tol):
    """per_pair_family filtered by the per-pair supports of the oracles."""
    support = (oracle_supports(s) if s.mode == "exact"
               else numeric_supports(s, tol))
    return [S for S in per_pair_family(s, tol)
            if oracle_is_closed(support, s.n, S)]


@st.composite
def closed_cases(draw):
    """(s, tol): a permuted group table (order <= 12) or the exterior square
    of one (order <= 8), either exact or embedded in floats, fixture_ds3 or
    a level-k sl2 table."""
    kind = draw(st.sampled_from(["group", "ext2", "ds3", "kp"]))
    if kind == "ds3":
        s = fixture_ds3()
    elif kind == "kp":
        s = kac_peterson_a1(draw(st.integers(1, 20)))
    else:
        s = draw(group_tables(max_order=12 if kind == "group" else 8))
        if kind == "ext2":
            s = exterior_square(s)
        if draw(st.booleans()):
            s = SMatrix.numeric(s.to_numeric())
    return s, draw(st.sampled_from([1e-8, 1e-3]))


@settings(max_examples=30, deadline=None)
@given(closed_cases())
@example((fixture_ds3(), 1e-8))
@example((fixture_ds3(), 1e-3))
@example((kac_peterson_a1(20), 1e-8))
@example((kac_peterson_a1(20), 1e-3))
@example((exterior_square(group_ring_smatrix([2, 2, 2])), 1e-3))
def test_closed_subsets_match_per_pair(case):
    s, tol = case
    assert closed_subset_heuristic(s, tol).sets == per_pair_closed(s, tol)


@st.composite
def integral_tables(draw):
    """A permuted group table (order <= 12), or the exterior square of a
    permuted Z/2 x Z/2 table with its columns permuted again: among the
    abelian groups of order 3..8 the only one whose exterior square has
    integer Verlinde constants."""
    if draw(st.booleans()):
        return draw(group_tables())
    s = exterior_square(permuted_table([2, 2],
                                       draw(st.permutations(range(4)))))
    perm = draw(st.permutations(range(s.n)))
    return SMatrix.exact([[row[c] for c in perm] for row in s.rows])


@settings(max_examples=20, deadline=None)
@given(integral_tables(), st.data())
def test_closed_matches_verlinde_ring(s, data):
    """_closed on the exact table and on its float embedding agrees with
    is_closed_subset of the Verlinde ring on every candidate set of the
    heuristic and on random sets."""
    ring = ring_from_smatrix(s)
    num = SMatrix.numeric(s.to_numeric())
    inv, num_inv = s.inverse(1e-8), num.inverse(1e-8)
    subsets = st.sets(st.integers(0, s.n - 1), min_size=1).map(
        lambda S: tuple(sorted(S)))
    for S in per_pair_family(s, 1e-8) + [data.draw(subsets)
                                         for _ in range(10)]:
        want = is_closed_subset(ring, S)
        assert _closed(s, inv, S, 1e-8) == want
        assert _closed(num, num_inv, S, 1e-8) == want


def test_exact_runtime_bounds():
    """Verlinde, the closed-subset search and the subring read-off on the
    Z/3 x Z/5 table each finish within 1 s."""
    s = permuted_table([3, 5], [7, 12, 0, 3, 14, 9, 1, 5, 11, 2, 8, 13, 4,
                                10, 6])
    sub = [c for c in range(15) if equal(s.rows[5][c], 1)]
    for fn, args in ((verlinde_tensor, ()), (closed_subset_heuristic, ()),
                     (subring_smatrix, (sub,))):
        t0 = time.perf_counter()
        fn(s, *args)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "%s took %.2fs" % (fn.__name__, elapsed)
