"""The coefficient-array s-matrix (no stored CycNum rows) against the CycNum
constructions it replaced: group character tables, exact exterior squares,
the exact subring read-off and the lift's column classifier; text, order q
and interned ids must agree exactly."""

import time
from fractions import Fraction
from math import isqrt, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zbrng.cli import main
from zbrng.exact import CycArray, CycNum, ExactError, format_cyc, power_table
from zbrng.generators import exterior_square, group_ring_smatrix
from zbrng.spectra import (SMatrix, SpectraError, closed_subset_heuristic,
                           root_columns, smatrix_to_text, subring_smatrix)

from cyc_oracle import (embed, equal, key, root_of_unity_factor, sub,
                        zeta)


# ---------------------------------------------------------------------------
# oracles: CycNum rows, entry by entry, as the constructions were

def oracle_rows(rows):
    """SMatrix.exact's old normal form: all-rational rows at order 1, else
    every entry at the lcm of the orders.  Returns (q, rows)."""
    if all(e.is_rational() for r in rows for e in r):
        return 1, [[CycNum.from_rat(e.rational_value()) for e in r]
                   for r in rows]
    q = lcm(*(e.q for r in rows for e in r))
    return q, [[e.to_order(q) for e in r] for r in rows]


def oracle_group_ring(orders):
    q = lcm(*orders)
    tables = [[[zeta(d, (a * b) % d) for b in range(d)]
               for a in range(d)] for d in orders]
    idx = [()]
    for d in orders:
        idx = [t + (r,) for t in idx for r in range(d)]
    rows = []
    for a in idx:
        row = []
        for b in idx:
            e = CycNum.from_rat(1)
            for t in range(len(orders)):
                e = e * tables[t][a[t]][b[t]]
            row.append(e.to_order(q))
        rows.append(row)
    return rows


def oracle_exterior_square(rows):
    n = len(rows)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[sub(rows[i][l] * rows[j][m], rows[i][m] * rows[j][l])
             for (l, m) in pairs] for (i, j) in pairs]


def oracle_text(rows):
    return "\n".join(["smatrix 1", "n %d %d" % (len(rows), len(rows))]
                     + [" ".join(format_cyc(e) for e in r) for r in rows]
                     ) + "\n"


def oracle_ids(rows):
    """Ids in order of first appearance, equal exactly when the values are."""
    seen = {}
    return [[seen.setdefault(format_cyc(e), len(seen)) for e in r]
            for r in rows]


def oracle_subring(rows, S):
    """The exact read-off: distinct nonzero rows of the column submatrix,
    sorted on their rounded complex values; its text or its error.  The
    rows share one order, so power-basis coefficients key the entries."""
    seen, picked = set(), []
    for l, r in enumerate(rows):
        row_key = tuple(key(r[c]) for c in S)
        if any(not r[c].is_zero() for c in S) and row_key not in seen:
            seen.add(row_key)
            picked.append(l)
    if len(picked) != len(S):
        return ("subring read-off failed: %d distinct nonzero rows, expected"
                " %d" % (len(picked), len(S)))
    block = [[rows[l][c] for c in S] for l in picked]
    block.sort(key=lambda r: tuple(
        (round(embed(e).real, 6), round(embed(e).imag, 6)) for e in r))
    return oracle_text(oracle_rows(block)[1])


def oracle_columns(q, rows):
    """The lift's old column classifier: (T, mus) with rows[l][i] =
    mus[i] * zeta_Q^T[l, i], or its error."""
    Q = q if q % 2 == 0 else 2 * q
    t = np.arange(Q)
    table = power_table(q)
    roots = (table[t] if Q == q else
             np.where(t % 2, -1, 1)[:, None] * table[t * (q + 1) // 2 % q])
    exponent = {tuple(r): t for t, r in enumerate(roots.tolist())}
    n = len(rows)
    T = np.full((n, n), -1, dtype=np.int64)
    M = np.zeros((n, n), dtype=object)
    for l in range(n):
        for i in range(n):
            f = root_of_unity_factor(rows[l][i])
            if f is not None:
                M[l, i], w = f
                key = tuple(w.coeffs.get(e, 0) for e in range(roots.shape[1]))
                T[l, i] = exponent.get(key, -1)
    if np.any(T < 0) or np.any(M != M[0]):
        return "column not of root-of-unity type"
    return T, M[0].tolist()


# ---------------------------------------------------------------------------
# differential tests

def outcome(fn, *args):
    try:
        return fn(*args)
    except SpectraError as exc:
        return str(exc)


def assert_same_table(s, rows):
    """s (built on arrays) against the CycNum rows it should equal."""
    q, want = oracle_rows(rows)
    assert s.mode == "exact" and (s.q, s.array.q) == (q, q)
    assert smatrix_to_text(s) == oracle_text(want)
    assert s.ids.tolist() == oracle_ids(want)
    assert equal(s.rows, want)
    # the entry point from CycNums gives the same array
    t = SMatrix.exact(rows)
    assert t.q == q and t.ids.tolist() == s.ids.tolist()
    assert np.array_equal(t.array.num * s.array.den, s.array.num * t.array.den)


def assert_same_classifier(s, rows):
    want = oracle_columns(s.q, oracle_rows(rows)[1])
    got = outcome(root_columns, s)
    if isinstance(want, str):
        assert got == want
    else:
        T, M = got
        assert np.array_equal(T, want[0]) and M[0].tolist() == want[1]
        assert all(type(mu) is int for mu in M.ravel())


def assert_same_subrings(s, rows):
    want_rows = oracle_rows(rows)[1]
    try:
        sets = closed_subset_heuristic(s).sets
    except SpectraError as exc:         # a perturbed entry can make s singular
        assert str(exc) == "singular matrix"
        return
    for S in sets:
        got = outcome(subring_smatrix, s, S)
        assert (got if isinstance(got, str) else smatrix_to_text(got)) == \
            oracle_subring(want_rows, S)


@st.composite
def group_tables(draw):
    """(s, rows): a group character table with columns permuted and scaled
    by +-1 or +-2, and sometimes one entry moved off the roots of unity,
    both as an array SMatrix and as CycNum rows."""
    orders = draw(st.lists(st.integers(2, 9), min_size=1, max_size=3)
                  .filter(lambda o: prod(o) <= 36))
    n = prod(orders)
    cols = draw(st.permutations(range(n)))
    scales = draw(st.lists(st.sampled_from([1, 1, -1, 2, -2]), min_size=n,
                           max_size=n))
    g = group_ring_smatrix(orders).array
    num = g.num[:, cols] * np.array(scales)[None, :, None]
    oracle = oracle_group_ring(orders)
    rows = [[r[c] * k for c, k in zip(cols, scales)] for r in oracle]
    if draw(st.booleans()):
        l, i = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        num[l, i, 0] += 1
        rows[l][i] = rows[l][i] + 1
    return SMatrix(CycArray(g.q, num, g.den)), rows


@settings(max_examples=25, deadline=None)
@given(group_tables())
def test_group_tables_match_cycnum_rows(table):
    s, rows = table
    assert_same_table(s, rows)
    assert_same_classifier(s, rows)


@settings(max_examples=10, deadline=None)
@given(group_tables().filter(lambda t: t[0].n <= 12))
def test_subrings_and_exterior_squares_match_cycnum_rows(table):
    s, rows = table
    assert_same_subrings(s, rows)
    if s.n <= 9:
        e, want = exterior_square(s), oracle_exterior_square(rows)
        assert_same_table(e, want)
        assert_same_classifier(e, want)
        assert_same_subrings(e, want)


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 3], [3, 3],
                                    [9], [2, 2, 2], [4, 6], [3, 5], [7, 9],
                                    [8, 3]])
def test_group_ring_smatrix_matches_cycnum(orders):
    assert_same_table(group_ring_smatrix(orders), oracle_group_ring(orders))


@pytest.mark.parametrize("orders", [[2, 2], [3], [4], [2, 3], [2, 2, 2],
                                    [6], [5]])
def test_exterior_square_matches_cycnum(orders):
    e = exterior_square(group_ring_smatrix(orders))
    assert_same_table(e, oracle_exterior_square(oracle_group_ring(orders)))


def test_rational_and_mixed_orders():
    z3, i4, one = zeta(3), zeta(4), CycNum.from_rat(1)
    # -1 written at order 4 keeps the field Q(zeta_12) when mixed with z3,
    # and is plain rational alone, even when the orders combine above 1024
    half = CycNum.from_rat(Fraction(1, 2))
    for rows in ([[z3, i4 * i4], [one, one]], [[i4 * i4, one], [one, half]],
                 [[zeta(1019, 0), one], [zeta(1021, 0), one]]):
        assert_same_table(SMatrix.exact(rows), rows)
    with pytest.raises(ExactError, match="cyclotomic order 1147 outside"):
        SMatrix.exact([[1, zeta(31)], [1, zeta(37)]])


def test_rows_view_is_built_once():
    s = group_ring_smatrix([3, 5])
    assert s.rows is s.rows and s.values is s.values
    assert equal(s.array.entry(2, 4), s.rows[2][4])


def test_exterior_square_int64_boundary():
    # each product fits int64, the difference of two does not
    x = isqrt(2 ** 63 - 1)
    s = SMatrix.exact([[x, x], [x, -x]])
    assert s.array.num.dtype == np.int64
    e = exterior_square(s)
    assert e.array.num.dtype == object
    assert equal(e.rows, [[-2 * x * x]])
    a = CycArray(1, np.array([[2 ** 62]]), 1)
    b = CycArray(1, np.array([[-2 ** 62]]), 1)
    assert (a - b).num.tolist() == [[2 ** 63]]
    c = CycArray(1, np.array([[5]]), 1)
    assert (c - c).num.dtype == np.int64 and (c - c).num.tolist() == [[0]]
    with pytest.raises(ExactError, match="mismatch"):
        a - CycArray(1, a.num, 2)


def test_numeric_and_array_exterior_squares_match_loop():
    # integers exactly; complex floats within a few ulps, as numpy's array
    # complex product may round differently from its scalar one
    rng = np.random.default_rng(5)
    for a in (rng.integers(-3, 4, size=(6, 6)),
              rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))):
        n = len(a)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = np.array([[a[i, l] * a[j, m] - a[i, m] * a[j, l]
                          for (l, m) in pairs] for (i, j) in pairs])
        atol = 8 * np.finfo(np.float64).eps * float(np.max(np.abs(a))) ** 2
        got = exterior_square(a)
        assert isinstance(got, np.ndarray) and got.dtype == a.dtype
        assert np.allclose(got, want, rtol=0, atol=atol)
        if a.dtype != np.complex128:
            assert np.array_equal(got, want)
        got = exterior_square(SMatrix.numeric(a))
        assert got.mode == "numeric"
        assert np.allclose(got.array, want, rtol=0, atol=atol)


def test_generator_runtime_bounds(tmp_path, capsys):
    """gen group 7 9 (n = 63) and gen ext2 of gen group 3 5 (n = 105) each
    within 0.5 s."""
    g15, out = str(tmp_path / "g15.smat"), str(tmp_path / "out.smat")
    assert main(["gen", "group", "3", "5", "-o", g15]) == 0
    for argv in (["gen", "group", "7", "9", "-o", out],
                 ["gen", "ext2", g15, "-o", out]):
        t0 = time.perf_counter()
        assert main(argv) == 0
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, "%s took %.2fs" % (" ".join(argv), elapsed)
    capsys.readouterr()
