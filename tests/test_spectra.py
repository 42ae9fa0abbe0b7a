import time
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zbrng.exact import (CycArray, CycNum, ExactError, certify_inverse,
                         exact_int, format_cyc, mat_inverse)
from zbrng.generators import (fixture_ds3, gen_paley, group_ring_smatrix,
                              exterior_square, kac_peterson_a1)
from zbrng.hadamard import ring_from_hadamard
from zbrng.quotients import fannsc_lift
from zbrng.rng_core import FormatError, is_closed_subset
from zbrng.spectra import (SMatrix, SpectraError, _Decomposer,
                           closed_subset_heuristic, decompose,
                           fourier_matrix, involution_from_smatrix,
                           mu_uniformity_check, row_orthogonality_check,
                           smatrix_from_tensor, smatrix_from_text,
                           smatrix_to_text, subring_smatrix, verlinde_tensor)

from conftest import ring_from_smatrix

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
        vals, ok = decompose(inv, s.array[:, i:i + 1]).integers()
        assert ok.all()
        assert vals[:, 0].tolist() == [int(m == i) for m in range(s.n)]


def test_decompose_numeric_columns():
    s = kac_peterson_a1(3)
    coeff = decompose(s.inverse(1e-8), s.array)
    assert np.allclose(coeff, np.eye(s.n))


def test_exact_inverse_singular():
    z = CycNum.zeta(3)
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


def test_fourier_matrix():
    f = fourier_matrix(group_ring_smatrix([4]))
    assert np.allclose(f @ f.conj().T, np.eye(4), atol=1e-12)
    with pytest.raises(SpectraError, match="not orthogonal"):
        fourier_matrix(SMatrix.numeric(MONOID))
    with pytest.raises(SpectraError, match="zero row"):
        fourier_matrix(SMatrix.numeric(np.array([[0.0, 0.0], [1.0, 1.0]])))


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


def test_mu_uniformity():
    assert mu_uniformity_check(group_ring_smatrix([3])) == 1
    assert mu_uniformity_check(
        smatrix_from_tensor(ring_from_hadamard(gen_paley(11)))) == 3
    with pytest.raises(SpectraError):
        mu_uniformity_check(fixture_ds3())


def test_text_roundtrip_exact():
    s = group_ring_smatrix([2, 3])
    back = smatrix_from_text(smatrix_to_text(s))
    assert back.mode == "exact" and back.n == s.n
    for r1, r2 in zip(s.rows, back.rows):
        assert all(a == b for a, b in zip(r1, r2))


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


def test_exterior_square_fixture_row_orthogonal():
    e6 = exterior_square(group_ring_smatrix([2, 2]))
    ring = ring_from_smatrix(e6)
    s_back = smatrix_from_tensor(ring)
    assert np.array_equal(verlinde_tensor(s_back).tensor, ring.N)


# ---------------------------------------------------------------------------
# differential tests: the coefficient-array kernels against the per-entry
# Gauss-Jordan (mat_inverse) and CycNum/Fraction arithmetic they replaced

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


def oracle_closed_family(s):
    """closed_subset_heuristic with CycNum keys and per-pair supports."""
    n, inv = s.n, oracle_inverse(s)
    keys = [[e.key() for e in row] for row in s.rows]

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
    return [S for S in sorted(family, key=lambda t: (len(t), t))
            if len(S) == n or all(oracle_support(s, inv, i, j) <= set(S)
                                  for i in S for j in S if i <= j)]


def oracle_involution(s):
    keys = {tuple(e.key() for e in s.column(j)): j for j in range(s.n)}
    return tuple(keys.get(tuple(e.conj().key() for e in s.column(i)))
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
    dec = _Decomposer(s, 1e-8)
    inv = oracle_inverse(s)
    for i in range(s.n):
        for j in range(s.n):
            assert dec.support(i, j) == oracle_support(s, inv, i, j)
    sets = closed_subset_heuristic(s).sets
    assert sets == oracle_closed_family(s)
    for S in sets:
        check_subring_against_oracle(s, S)


def check_subring_against_oracle(s, S):
    """subring_smatrix keeps the distinct nonzero rows of the submatrix."""
    seen, want = set(), []
    for row in s.rows:
        sub = [row[c] for c in S]
        key = tuple(e.key() for e in sub)
        if any(not e.is_zero() for e in sub) and key not in seen:
            seen.add(key)
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
    keys = [[e.key() for e in row] for row in s.rows]
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
            assert CycNum(s.q, coeffs) == inv[m][l]
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
    scale = CycNum.zeta(s.q, data.draw(st.integers(0, s.q))) * 2
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
    z = CycNum.zeta(5)
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
            assert CycNum(s.q, coeffs) == want[m][l]


def test_python_int_coefficients_match_oracle():
    # entries beyond int64 keep Python-int coefficient arrays
    z = CycNum.zeta(3)
    s = SMatrix.exact([[2 ** 70, 3, z], [5, z, 1], [1, 2 ** 65 * z, 7]])
    assert s.array.num.dtype == object
    inv = s.inverse(1e-8)
    want = oracle_inverse(s)
    for m in range(3):
        for l in range(3):
            coeffs = {e: Fraction(int(c), inv.den)
                      for e, c in enumerate(inv.num[m, l].tolist()) if c}
            assert CycNum(s.q, coeffs) == want[m][l]
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
    roots = [1, -1] if s.q == 1 else [CycNum.zeta(Q) ** t for t in range(Q)]
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


def test_exact_runtime_bounds():
    """Verlinde, the closed-subset search and the subring read-off on the
    Z/3 x Z/5 table each finish within 1 s."""
    s = permuted_table([3, 5], [7, 12, 0, 3, 14, 9, 1, 5, 11, 2, 8, 13, 4,
                                10, 6])
    sub = [c for c in range(15) if s.rows[5][c] == 1]
    for fn, args in ((verlinde_tensor, ()), (closed_subset_heuristic, ()),
                     (subring_smatrix, (sub,))):
        t0 = time.perf_counter()
        fn(s, *args)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "%s took %.2fs" % (fn.__name__, elapsed)
