from fractions import Fraction

import numpy as np
import pytest

from zbrng.exact import CycNum
from zbrng.generators import (fixture_ds3, gen_paley, group_ring_smatrix,
                              exterior_square, kac_peterson_a1)
from zbrng.hadamard import ring_from_hadamard
from zbrng.rng_core import FormatError, is_closed_subset
from zbrng.spectra import (SMatrix, SpectraError, closed_subset_heuristic,
                           decompose, fourier_matrix, involution_from_smatrix,
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
    assert all(isinstance(x, Fraction)
               for col in s.working_columns() for x in col)
    assert group_ring_smatrix([2, 3]).q == 6


@pytest.mark.parametrize("s", [group_ring_smatrix([2, 3]), fixture_ds3()])
def test_decompose_exact_columns(s):
    inv = s.inverse(1e-8)
    for i, col in enumerate(s.working_columns()):
        assert decompose(inv, col) == [int(m == i) for m in range(s.n)]


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
