import time

import numpy as np
import pytest

from zbrng.generators import fixture_ds3, group_ring_smatrix
from zbrng.quotients import (PointedAlgebra, QuotientError, fannsc_lift,
                             lift_lines, order2_quotient, quotient_verify)
from zbrng.rng_core import ring_from_tensor
from zbrng.spectra import smatrix_from_tensor

from conftest import ring_from_smatrix


def permutation_tensor(n):
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, (i + j) % n] = 1
    return N


# ---------------------------------------------------------------------------
# order-2 quotient

def test_quotient_z6_is_z3(z6_ring):
    alg, classmap = order2_quotient(z6_ring, 3)
    assert alg.m == 3
    assert np.array_equal(alg.tensor, permutation_tensor(3))
    assert (alg.tensor >= 0).all()
    assert alg.labels == [(0, 3), (1, 4), (2, 5)]
    assert classmap == [(0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1)]


def test_quotient_z2_rank1():
    ring = ring_from_smatrix(group_ring_smatrix([2]))
    alg, classmap = order2_quotient(ring, 1)
    assert alg.m == 1 and alg.tensor[0, 0, 0] == 1
    assert classmap == [(0, 1), (0, 1)]


def test_quotient_z4_by_square():
    ring = ring_from_smatrix(group_ring_smatrix([4]))
    alg, _ = order2_quotient(ring, 2)
    assert alg.m == 2
    assert np.array_equal(alg.tensor, permutation_tensor(2))


def test_quotient_not_order2(z6_ring):
    with pytest.raises(QuotientError, match="not of order 2"):
        order2_quotient(z6_ring, 1)


def test_quotient_d_out_of_range(z6_ring):
    for d in (-1, 6, 99):
        with pytest.raises(QuotientError, match="out of range"):
            order2_quotient(z6_ring, d)


def test_quotient_not_permutation():
    # b_1^2 = b_0 but b_1 b_2 has two terms
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = np.eye(3, dtype=np.int64)
    N[:, :, 0][0] = [1, 0, 0]
    N[1, 1, 0] = 1
    N[1, 2] = N[2, 1] = [0, 1, 1]
    N[2, 2, 0] = 1
    ring = ring_from_tensor(3, np.maximum(N, N.transpose(1, 0, 2)), (0, 1, 2))
    with pytest.raises(QuotientError, match="does not permute"):
        order2_quotient(ring, 1)


def test_quotient_torsion():
    # b_1 b_2 = -b_2: sign -1 on a fixed point
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0] = np.eye(3, dtype=np.int64)
    N[1, 0] = N[0, 1]
    N[2, 0] = N[0, 2]
    N[1, 1, 0] = 1
    N[1, 2, 2] = N[2, 1, 2] = -1
    N[2, 2, 0] = 1
    ring = ring_from_tensor(3, N, (0, 1, 2))
    with pytest.raises(QuotientError, match="2-torsion at basis 2"):
        order2_quotient(ring, 1)


def test_quotient_by_identity_is_trivial(z3_ring):
    alg, _ = order2_quotient(z3_ring, 0)
    assert alg.m == 3
    assert np.array_equal(alg.tensor, z3_ring.N)


# ---------------------------------------------------------------------------
# semigroup lift

def test_lift_z3():
    s = group_ring_smatrix([3])
    L = fannsc_lift(s)
    assert L.lifted.m == 3
    assert (L.scalars == 1).all()
    assert sorted(L.distinguished) == [0, 1, 2]
    assert quotient_verify(L, ring_from_smatrix(s))


def test_lift_z6():
    s = group_ring_smatrix([2, 3])
    L = fannsc_lift(s)
    assert L.lifted.m == 6
    assert quotient_verify(L, ring_from_smatrix(s))


def oracle_distances(cols):
    """Independent breadth-first word lengths over the column semigroup."""
    gens = [tuple(c) for c in cols.T.tolist()]
    dist = {}
    layer = list(dict.fromkeys(gens))
    for g in layer:
        dist[g] = 1
    while layer:
        nxt = []
        for h in layer:
            for g in gens:
                hg = tuple(a * b for a, b in zip(h, g))
                if hg not in dist:
                    dist[hg] = dist[h] + 1
                    nxt.append(hg)
        layer = nxt
    return dist


def test_lift_paley12(paley12_ring):
    t0 = time.perf_counter()
    s = smatrix_from_tensor(paley12_ring)
    L = fannsc_lift(s)
    assert L.lifted.m == 1024
    assert (L.lifted.mu >= 0).all()
    assert (L.scalars == 3 ** L.distances).all()
    # x_{v_i}^2 = 3 x_identity
    ident = (0,) * 12
    for i, w in enumerate(L.distinguished):
        assert L.lifted.mu[w, w] == 3
        assert L.lifted.labels[L.lifted.prod[w, w]] == ident
    # every lifted element is 3^t times a sign vector, t >= 1
    assert (L.distances >= 1).all()
    assert quotient_verify(L, paley12_ring)
    assert time.perf_counter() - t0 < 30
    signs = np.array([[int(e.rational_value()) for e in row]
                      for row in s.rows]) // 3
    dist = oracle_distances(signs)
    got = {tuple(1 - 2 * t for t in h): int(d)
           for h, d in zip(L.lifted.labels, L.distances)}
    assert got == dist


def test_lift_cap():
    s = group_ring_smatrix([3])
    with pytest.raises(QuotientError, match="exceeds cap"):
        fannsc_lift(s, cap=2)


def test_lift_rejects_non_root_columns():
    with pytest.raises(QuotientError, match="root-of-unity"):
        fannsc_lift(fixture_ds3())


def test_lift_requires_exact(z3_ring):
    s = smatrix_from_tensor(z3_ring)  # numeric mode
    with pytest.raises(QuotientError, match="exact"):
        fannsc_lift(s)


def test_quotient_verify_rejects_tampering():
    s = group_ring_smatrix([3])
    L = fannsc_lift(s)
    L.embedding[1, 0] += 1
    assert not quotient_verify(L, ring_from_smatrix(s))


def test_lift_text_small():
    s = group_ring_smatrix([2, 3])
    text = "".join(lift_lines(fannsc_lift(s)))
    lines = text.splitlines()
    assert lines[0] == "zbrng 1" and lines[1] == "n 6"
    assert any(ln.startswith("distinguished") for ln in lines)


def test_lift_text_monomial(paley12_ring):
    L = fannsc_lift(smatrix_from_tensor(paley12_ring))
    text = "".join(lift_lines(L))
    lines = text.splitlines()
    assert lines[0] == "zbrng-monomial 1" and lines[1] == "n 1024"
    ideal = [ln for ln in lines if ln.startswith("w")]
    assert len(ideal) == 1024 - 12
    head = ideal[0].split(" : ")
    assert len(head) == 2 and len(head[1].split()) == 12
    assert set(head[0][1:]) <= {"+", "-"}


def test_dense_tensor_limit(paley12_ring):
    L = fannsc_lift(smatrix_from_tensor(paley12_ring))
    with pytest.raises(QuotientError, match="too large"):
        L.lifted.dense_tensor()


def test_dense_tensor_of_monomial_table():
    alg = PointedAlgebra([0, 1], prod=np.array([[0, 1], [1, 0]]),
                         mu=np.array([[2, 3], [3, 2]]))
    dense = alg.dense_tensor()
    assert dense[0, 1, 1] == 3 and dense[0, 1, 0] == 0
    assert dense[1, 1, 0] == 2 and dense[1, 1, 1] == 0
