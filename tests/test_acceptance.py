"""Acceptance gate: one test per criterion, each printing a pass/fail line
and asserting its runtime bound."""

import time
from fractions import Fraction

import numpy as np
import pytest

from zbrng.exact import mat_inverse
from zbrng.generators import (exterior_square, fixture_ds3, gen_kronecker,
                              gen_paley, gen_sylvester, group_ring_smatrix,
                              kac_peterson_a1)
from zbrng.hadamard import (f2_algebra_check, had_closed_subsets,
                            multiset_census, profile, reconstruct_exact,
                            reconstruct_mod3, ring_from_hadamard,
                            triangular_bound, wmatrix, xi_sets)
from zbrng.quotients import fannsc_lift, order2_quotient, quotient_verify
from zbrng.rng_core import (RingElement, identity_coefficients, multiply,
                            search_involution, trace_eval, verify_axioms)
from zbrng.spectra import (SMatrix, SpectraError, closed_subset_heuristic,
                           involution_from_smatrix, row_orthogonality_check,
                           smatrix_from_tensor, verlinde_tensor)

from conftest import a1_fusion_oracle, ring_from_smatrix


class Timer:
    def __init__(self, bound):
        self.bound = bound

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.bound, (
                "runtime %.2fs exceeds bound %.1fs" % (self.elapsed,
                                                       self.bound))
        return False


def report(num, detail):
    print("criterion %2d: PASS  %s" % (num, detail))


def test_01_trace_triple(z3_ring):
    with Timer(1.0) as t:
        r = RingElement.from_ints([-1, -1, 1])
        r2 = multiply(z3_ring, r, r)
        r3 = multiply(z3_ring, r2, r)
        vals = [trace_eval(z3_ring, x).rational_value() for x in (r, r2, r3)]
        assert vals == [-1, -1, 5]
    report(1, "tau(r), tau(r^2), tau(r^3) = -1, -1, 5 (%.2fs)" % t.elapsed)


def test_02_exterior_square_fixture():
    with Timer(1.0) as t:
        e6 = exterior_square(group_ring_smatrix([2, 2]))
        ring = ring_from_smatrix(e6)
        rep = verify_axioms(ring)
        assert rep.all_pass, str(rep)
        e = sorted(c.rational_value() for c in identity_coefficients(ring))
        assert e == [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 4),
                     0, 0, 0]
        rows = sorted(tuple(int(x.rational_value()) for x in row)
                      for row in e6.rows)
        known = sorted([
            (-2, 0, -2, 2, 0, -2), (0, -2, -2, -2, -2, 0),
            (-2, -2, 0, 0, 2, 2), (2, -2, 0, 0, 2, -2),
            (0, -2, 2, 2, -2, 0), (-2, 0, 2, -2, 0, -2)])
        assert rows == known
    report(2, "6 axioms pass, e-multiset {-1/2, -1/4, -1/4, 0, 0, 0} "
              "(%.2fs)" % t.elapsed)


def test_03_monoid_rejection():
    with Timer(1.0) as t:
        mono = SMatrix.numeric(np.array(
            [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
            dtype=float))
        N = verlinde_tensor(mono).tensor
        assert search_involution(4, N) is None
        ok, _ = row_orthogonality_check(mono, (0, 1, 2, 3))
        assert not ok
        with pytest.raises(SpectraError):
            involution_from_smatrix(mono)
    report(3, "no involutive permutation; rows not orthogonal "
              "(%.2fs)" % t.elapsed)


def test_04_verlinde_roundtrip(z3_ring, paley12_ring):
    with Timer(5.0) as t:
        ext_ring = ring_from_smatrix(exterior_square(group_ring_smatrix(
            [2, 2])))
        for ring in (z3_ring, paley12_ring, ext_ring):
            s = smatrix_from_tensor(ring)
            assert np.array_equal(verlinde_tensor(s).tensor, ring.N)
            ok, dev = row_orthogonality_check(s, ring.tilde)
            assert ok and dev < 1e-9
    report(4, "tensor reproduced exactly on all three rings "
              "(%.2fs)" % t.elapsed)


def test_05_pointed_algebra_matrix():
    with Timer(1.0) as t:
        s = fixture_ds3()
        res = verlinde_tensor(s)
        assert res.integral and res.nonnegative
        rows = [[int(x.rational_value()) for x in row] for row in s.rows]
        dot = sum(a * b for a, b in zip(rows[0], rows[1]))
        assert dot == 8
    report(5, "integral nonnegative constants; row0.row1 = 8 "
              "(%.2fs)" % t.elapsed)


def test_06_hadamard12_structure(paley12, paley12_ring):
    with Timer(10.0) as t:
        N = paley12_ring.N
        for i in range(1, 12):
            for j in range(1, 12):
                for m in range(1, 12):
                    if len({i, j, m}) == 3:
                        assert N[i, j, m] in (-1, 1)
        k2 = 9
        for i in range(12):
            for j in range(12):
                assert int((N[i, j].astype(np.int64) ** 2).sum()) == k2
        sets = had_closed_subsets(paley12_ring)
        want = [(0,)] + [(0, i) for i in range(1, 12)] + [tuple(range(12))]
        assert sets == want
        cens = multiset_census(paley12_ring)
        assert len(cens) == 1 == triangular_bound(3)
        p = profile(paley12)
        assert all(v % 8 == 4 for v in p.counts)
        assert p.total() == 495
    report(6, "entries, closed subsets, census, profile all as stated "
              "(%.2fs)" % t.elapsed)


def test_07_wmatrix(paley12_ring):
    with Timer(2.0) as t:
        for i in range(1, 12):
            W = wmatrix(paley12_ring, i)
            assert W.shape == (20, 20)
            assert set(np.unique(W)) == {-1, 1}
            assert np.array_equal(W @ W.T, 20 * np.eye(20, dtype=np.int64))
    report(7, "W_i is 20x20, +-1, W W^T = 20 I for all i != 0 "
              "(%.2fs)" % t.elapsed)


def test_08_reconstruct_exact(paley12, paley12_ring, sylvester16,
                              sylvester16_ring):
    with Timer(10.0) as t:
        for H, ring in ((paley12, paley12_ring),
                        (sylvester16, sylvester16_ring)):
            got = reconstruct_exact(ring)
            assert (sorted(map(tuple, got.array.tolist()))
                    == sorted(map(tuple, H.array.tolist())))
    report(8, "12x12 and 16x16 recovered up to row permutation "
              "(%.2fs)" % t.elapsed)


def test_09_reconstruct_mod3(sylvester16, sylvester16_ring):
    with Timer(10.0) as t:
        rows = reconstruct_mod3(sylvester16_ring.N % 3, 4)
        assert (sorted(map(tuple, np.asarray(rows).tolist()))
                == sorted(map(tuple, sylvester16.array.tolist())))
    report(9, "mod-3 rows equal the 16x16 source up to row permutation "
              "(%.2fs)" % t.elapsed)


def test_10_nonnegative_lift(paley12_ring):
    with Timer(30.0) as t:
        L = fannsc_lift(smatrix_from_tensor(paley12_ring))
        assert L.lifted.m <= 1024
        assert (L.lifted.mu >= 0).all()
        ident = (0,) * 12
        for w in L.distinguished:
            assert L.lifted.mu[w, w] == 3
            assert L.lifted.labels[L.lifted.prod[w, w]] == ident
        assert (L.scalars == 3 ** L.distances).all()
        assert (L.distances >= 1).all()  # inside 3 Z[H]
        assert quotient_verify(L, paley12_ring)
    report(10, "|H| = %d, constants >= 0, x_v^2 = 3 x_id, verified "
               "(%.2fs)" % (L.lifted.m, t.elapsed))


def test_11_order2_quotient(z6_ring):
    with Timer(1.0) as t:
        alg, _ = order2_quotient(z6_ring, 3)
        want = verlinde_tensor(group_ring_smatrix([3])).tensor
        assert np.array_equal(alg.tensor, want)
        assert (alg.tensor >= 0).all()
    report(11, "quotient equals the rank-3 cyclic tensor, nonnegative "
               "(%.2fs)" % t.elapsed)


def test_12_kac_peterson():
    with Timer(5.0) as t:
        for level in range(1, 9):
            res = verlinde_tensor(kac_peterson_a1(level), tol=1e-6)
            assert res.max_deviation < 1e-6
            assert np.array_equal(res.tensor, a1_fusion_oracle(level))
    report(12, "levels 1-8 match the brute-force fusion oracle "
               "(%.2fs)" % t.elapsed)


def test_13_heuristic_soundness():
    with Timer(60.0) as t:
        s28 = exterior_square(group_ring_smatrix([2, 2, 2]))
        got = closed_subset_heuristic(s28)
        assert got.sets, "heuristic returned nothing"
        assert all(got.flags)
        # independent soundness check: decompose column products exactly
        cols = [[Fraction(int(s28.rows[l][i].rational_value()))
                 for l in range(28)] for i in range(28)]
        inv = mat_inverse([[cols[i][l] for i in range(28)]
                           for l in range(28)])
        for S in got.sets:
            for i in S:
                for j in S:
                    prod = [cols[i][l] * cols[j][l] for l in range(28)]
                    coeffs = [sum(inv[r][l] * prod[l] for l in range(28))
                              for r in range(28)]
                    support = {r for r in range(28) if coeffs[r] != 0}
                    assert support <= set(S)
    report(13, "%d subsets returned, all verified closed "
               "(%.2fs)" % (len(got.sets), t.elapsed))


def test_14_xi_and_parity_invariants():
    with Timer(30.0) as t:
        h2 = np.array([[1, 1], [1, -1]])
        mats = [gen_sylvester(2), gen_sylvester(3), gen_sylvester(4),
                gen_paley(3), gen_paley(7), gen_paley(11), gen_paley(19),
                gen_kronecker(h2, h2), gen_kronecker(h2, gen_paley(7)),
                gen_kronecker(gen_sylvester(2), gen_sylvester(2))]
        assert all(H.n <= 20 for H in mats)
        for H in mats:
            k = H.k
            xs = xi_sets(H)
            ring = ring_from_hadamard(H)
            for i in range(1, H.n):
                assert len(xs[i]) == 2 * k
                for j in range(i + 1, H.n):
                    assert len(xs[i] & xs[j]) == k
            for i in range(1, H.n):
                for j in range(1, H.n):
                    for m in range(1, H.n):
                        if len({i, j, m}) == 3:
                            assert (ring.N[i, j, m]
                                    == k - 2 * len(xs[i] & xs[j] & xs[m]))
        assert f2_algebra_check(3) and f2_algebra_check(5)
    report(14, "%d matrices up to order 20; f2 check at k = 3, 5 "
               "(%.2fs)" % (len(mats), t.elapsed))
