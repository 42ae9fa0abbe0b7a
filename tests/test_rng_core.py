import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zbrng.exact import CycNum, ExactError, _maxabs, narrow_dtype, primes
from zbrng.generators import gen_paley, gen_sylvester, group_ring_smatrix
from zbrng.hadamard import f2_tensor, ring_from_hadamard
from zbrng.rng_core import (MAX_RING, FormatError, FusionRing, RingElement,
                            RingError, _asymmetry, assoc_witness, identity_coefficients,
                            is_closed_subset, multiply,
                            ring_from_tensor, ring_from_text, ring_lines,
                            search_involution, trace_eval, verify_axioms)
from zbrng.spectra import verlinde_tensor

from cyc_oracle import equal, zeta


def cyclic_tensor(n):
    N = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            N[i, j, (i + j) % n] = 1
    return N


def cyclic_ring(n):
    tilde = tuple((-i) % n for i in range(n))
    return ring_from_tensor(n, cyclic_tensor(n), tilde)


def test_ring_from_tensor_validation():
    N = cyclic_tensor(3)
    with pytest.raises(RingError, match="shape"):
        ring_from_tensor(4, N, (0, 1, 2, 3))
    with pytest.raises(RingError, match="permutation"):
        ring_from_tensor(3, N, (0, 0, 2))
    with pytest.raises(RingError, match="involution"):
        ring_from_tensor(3, N, (1, 2, 0))
    bad = N.copy()
    bad[0, 1, 2] = 5
    with pytest.raises(RingError, match="not commutative at"):
        ring_from_tensor(3, bad, (0, 2, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_group_ring_axioms(n):
    report = verify_axioms(cyclic_ring(n))
    assert report.all_pass, str(report)


def test_verify_reports_witness():
    N = cyclic_tensor(3)
    ring = ring_from_tensor(3, N, (0, 1, 2))  # wrong tilde: duality fails
    report = verify_axioms(ring)
    assert not report.all_pass
    assert any(a == "duality" and not p for a, p, _ in report.entries)


def oracle_e_duality(ring):
    """The "e~ = e" and "duality" entries as the CycNum loops computed them:
    the first i with conj(e_i) != e_~i, the first (i, j) in C order with
    tau(b~_i b_j) != delta_ij."""
    n, N, tl = ring.n, ring.N, list(ring.tilde)
    try:
        e = identity_coefficients(ring)
    except RingError:
        return [("e~ = e", False, "no identity"),
                ("duality", False, "no identity")]
    w1 = next((i for i in range(n) if not equal(e[i].conj(), e[tl[i]])),
              None)
    w2 = None
    for i in range(n):
        for j in range(n):
            t = CycNum.from_rat(0)
            for m in range(n):
                if N[tl[i], j, m]:
                    t = t + e[m].conj() * int(N[tl[i], j, m])
            if not equal(t, int(i == j)):
                w2 = (i, j)
                break
        if w2:
            break
    return [("e~ = e", w1 is None, w1), ("duality", w2 is None, w2)]


def ring_tensors():
    """Integral tensors with an identity that is not b_0 in general: group
    rings and Paley 12, relabelled, scaled by 1, 2 or 3."""
    out = [verlinde_tensor(group_ring_smatrix(o)).tensor
           for o in ([3], [4], [2, 3], [5], [2, 2])]
    out.append(ring_from_hadamard(gen_paley(11)).N)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_verify_e_and_duality_match_cycnum_loops(data):
    N = data.draw(st.sampled_from(ring_tensors()))
    n = len(N)
    p = np.array(data.draw(st.permutations(range(n))))
    N = data.draw(st.sampled_from([1, 2, 3])) * N[np.ix_(p, p, p)]
    # an involution: pairs of a shuffled basis, the rest fixed
    order = data.draw(st.permutations(range(n)))
    pairs = data.draw(st.integers(0, n // 2))
    tilde = list(range(n))
    for a, b in zip(order[:pairs], order[pairs:2 * pairs]):
        tilde[a], tilde[b] = b, a
    if data.draw(st.booleans()):             # perturb one constant
        i, j, m = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        N = N.copy()
        N[i, j, m] += data.draw(st.sampled_from([-1, 1]))
    ring = FusionRing(n, N, tuple(tilde))
    got = [x for x in verify_axioms(ring).entries
           if x[0] in ("e~ = e", "duality")]
    want = oracle_e_duality(FusionRing(n, N, tuple(tilde)))
    assert got == want
    assert all(type(x) is int for _, _, w in got if isinstance(w, tuple)
               for x in w)


def test_verify_duality_witness_order():
    # one perturbed constant: tau(b~_3 b_1) = 1, the transpose stays 0
    N = cyclic_tensor(5)
    N[2, 1, 0] += 1
    tilde = tuple((-i) % 5 for i in range(5))
    want = oracle_e_duality(FusionRing(5, N, tilde))
    assert want[1] == ("duality", False, (3, 1))
    assert verify_axioms(FusionRing(5, N, tilde)).entries[-2:] == want


def full_einsum_witness(N, modulus=None):
    """The first associativity mismatch of the two full n^4 int64 tensors."""
    lhs = np.einsum("ijm,mkl->ijkl", N, N)
    rhs = np.einsum("jkm,iml->ijkl", N, N)
    if modulus is not None:
        lhs, rhs = lhs % modulus, rhs % modulus
    idx = np.argwhere(lhs != rhs)
    return tuple(int(x) for x in idx[0]) if len(idx) else None


def test_assoc_witness_matches_full_einsum(paley12_ring):
    N = paley12_ring.N
    assert assoc_witness(N, None) is None
    rng = np.random.default_rng(3)
    for _ in range(6):
        bad = N.copy()
        i, j, m = (int(x) for x in rng.integers(0, 12, size=3))
        bad[i, j, m] += int(rng.integers(1, 4))
        bad[j, i, m] = bad[i, j, m]
        want = full_einsum_witness(bad)
        assert want is not None
        assert assoc_witness(bad, None) == want
        assert assoc_witness(bad, 2) == full_einsum_witness(bad, 2)


@pytest.mark.parametrize("base", ["paley12", "f2"])
def test_assoc_witness_symmetric_tensors(base, paley12_ring):
    # one constant moved at every order of its index triple keeps N
    # symmetric in all three indices: the scan's one-product case
    N = (paley12_ring.N if base == "paley12" else f2_tensor(3))
    N = N.astype(np.int64)
    rng = np.random.default_rng(5)
    for _ in range(6):
        bad = N.copy()
        triple = tuple(int(x) for x in rng.integers(0, len(N), size=3))
        for t in set(itertools.permutations(triple)):
            bad[t] += 1
        assert np.array_equal(bad, bad.transpose(0, 2, 1))
        assert np.array_equal(bad, bad.transpose(1, 0, 2))
        want = full_einsum_witness(bad)
        assert want is not None and assoc_witness(bad, None) == want
        for modulus in (2, 3):
            assert assoc_witness(bad, modulus) == \
                full_einsum_witness(bad, modulus)


def slab_oracle(N):
    """The first associativity mismatch, slab i by slab i, each slab's two
    n^3 products whole in float64 (exact for these small constants)."""
    n = len(N)
    A = N.astype(np.float64)
    for i in range(n):
        lhs = (A[i] @ A.reshape(n, n * n)).reshape(n, n, n)  # (b_i b_j) b_k
        rhs = (A.reshape(n * n, n) @ A[i]).reshape(n, n, n)  # b_i (b_j b_k)
        idx = np.argwhere(lhs != rhs)
        if len(idx):
            return (i,) + tuple(int(x) for x in idx[0])
    return None


def test_assoc_witness_first_in_a_later_chunk():
    # order 128 takes slab i in chunks of 64 values of k; moving the
    # constants of (5, 98, 93) gives slab 1 its first witness in the second
    # chunk (j = 4, k = 93) and a later one in the first (j = 92, k = 5)
    N = ring_from_hadamard(gen_sylvester(7)).N.astype(np.int64)
    for t in set(itertools.permutations((5, 98, 93))):
        N[t] += 1
    assert assoc_witness(N, None) == slab_oracle(N) == (1, 4, 93, 98)


def test_assoc_witness_no_int64_wrap():
    # (b0 b0) b1 has coefficient 2^65 at b1, b0 (b0 b1) has 2^64: equal
    # modulo 2^64, so full int64 tensors wrap and see no failure
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0, 0, 0] = 2 ** 33
    N[0, 1, 1] = N[1, 0, 1] = 2 ** 32
    assert full_einsum_witness(N) is None
    assert assoc_witness(N, None) == (0, 0, 1, 1)
    report = verify_axioms(ring_from_tensor(2, N, (0, 1)))
    assert ("associativity", False, (0, 0, 1, 1)) in report.entries


def python_witness(N):
    """The first associativity mismatch, summed over Python ints."""
    T = N.tolist()
    n = len(T)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if (sum(T[i][j][m] * T[m][k][l] for m in range(n))
                != sum(T[j][k][m] * T[i][m][l] for m in range(n))):
            return (i, j, k, l)
    return None


def fibonacci_tensor(k):
    """C^2 with idempotents e_0, e_1, in the basis b_i = sum_a P[i, a] e_a
    with P = [[F(k+1), F(k)], [F(k), F(k-1)]] of determinant +-1: associative,
    with integer constants of size about F(k)^3 whose products cancel."""
    F = [0, 1]
    while len(F) < k + 2:
        F.append(F[-1] + F[-2])
    P = [[F[k + 1], F[k]], [F[k], F[k - 1]]]
    sign = (-1) ** k
    Q = [[sign * F[k - 1], -sign * F[k]], [-sign * F[k], sign * F[k + 1]]]
    return np.array([[[sum(P[i][a] * P[j][a] * Q[a][m] for a in range(2))
                       for m in range(2)] for j in range(2)]
                     for i in range(2)], dtype=np.int64)


@pytest.mark.parametrize("k", [6, 15, 22])
def test_assoc_witness_every_dtype(k):
    # max|N|^2 * n falls below 2^53 (the float64 pass) at k = 6 and above it
    # (the residues modulo primes) at k = 15 and 22; the sums cancel, so an
    # inexact pass would report false mismatches
    N = fibonacci_tensor(k)
    assert assoc_witness(N, None) is None
    N[0, 0, 1] += 1
    want = python_witness(N)
    assert want is not None
    assert assoc_witness(N, None) == want


def test_assoc_witness_big_entries_match_python():
    # max|N|^2 * n >= 2^63: the difference is taken modulo several primes
    rng = np.random.default_rng(11)
    for trial in range(12):
        n = int(rng.integers(2, 6))
        scale = 2 ** int(rng.integers(31, 62))
        N = cyclic_tensor(n) * scale
        if trial % 3:
            for _ in range(int(rng.integers(1, 3))):
                i, j, m = (int(x) for x in rng.integers(0, n, size=3))
                N[i, j, m] += int(rng.choice([1, -1, 2 ** 20, scale // 2]))
                N[j, i, m] = N[i, j, m]
        assert assoc_witness(N, None) == python_witness(N)


def test_assoc_witness_zero_modulo_first_primes():
    # at (0, 0, 1, 1) the difference is b (a - b) = p1 p2, which vanishes
    # modulo the first two primes of the passes and not modulo the third;
    # the later mismatch at (0, 0, 2, 2), 2b - 2, is seen by every prime
    p1, p2 = itertools.islice(primes(1, 3), 2)
    b = p1 * p2
    N = np.zeros((3, 3, 3), dtype=np.int64)
    N[0, 0, 0] = b + 1
    N[0, 1, 1] = N[1, 0, 1] = b
    N[0, 2, 2] = N[2, 0, 2] = 2
    assert python_witness(N) == (0, 0, 1, 1)
    assert assoc_witness(N, None) == (0, 0, 1, 1)
    N[0, 2, 2] = N[2, 0, 2] = 0
    assert assoc_witness(N, None) == python_witness(N) == (0, 0, 1, 1)
    N[0, 0, 0] = b
    assert python_witness(N) is None
    assert assoc_witness(N, None) is None


def test_assoc_witness_big_entries_runtime():
    # the Z/32 group law scaled by 2^29: max|N|^2 * n = 2^63
    N = cyclic_tensor(32) * 2 ** 29
    assoc_witness(N, None)          # untimed: the first BLAS call may stall
    t0 = time.perf_counter()
    assert assoc_witness(N, None) is None
    bad = N.copy()
    bad[3, 5, 7] += 1
    bad[5, 3, 7] += 1
    i, j, k, l = assoc_witness(bad, None)
    assert time.perf_counter() - t0 < 1.0
    # a genuine mismatch, summed over Python ints
    T = bad.tolist()
    assert (sum(T[i][j][m] * T[m][k][l] for m in range(32))
            != sum(T[j][k][m] * T[i][m][l] for m in range(32)))


def test_assoc_witness_modulus_bound():
    # (modulus - 1)^2 * n must stay below 2^53, the float64 pass
    for modulus in (2 ** 40, 2 ** 26 + 1):
        with pytest.raises(ValueError, match="modulus too large"):
            assoc_witness(cyclic_tensor(4) * (modulus - 1), modulus)
    modulus = 2 ** 25
    assert assoc_witness(cyclic_tensor(4) * (modulus - 1), modulus) is None
    bad = cyclic_tensor(4) * (modulus - 1)
    bad[1, 2, 0] = bad[2, 1, 0] = 1
    want = full_einsum_witness(bad, modulus)
    assert want is not None and assoc_witness(bad, modulus) == want


def near_tie_tensor(a):
    """Entries a - 1 and a: the first associativity difference, at
    (0, 0, 1, 1), is 2 a (a - 1) - ((a - 1)^2 + a^2) = -1."""
    return np.array([[[a - 1, a - 1], [a - 1, a]],
                     [[a - 1, a], [a, a]]], dtype=np.int64)


@pytest.mark.parametrize("N,below", [
    (fibonacci_tensor(6) * 5, True),
    (fibonacci_tensor(6) * 6, False),
    (near_tie_tensor(2896), True),
    (near_tie_tensor(2897), False),
])
def test_assoc_witness_float32_bound(N, below):
    # max|N|^2 * n just below 2^24 (the float32 tier) and just above it;
    # above, float32 would round the near tie's two sums, 2^24 + 2208 and
    # 2^24 + 2209 at a = 2897, to one value and miss the mismatch
    assert (int(np.abs(N).max()) ** 2 * 2 < 2 ** 24) == below
    assert assoc_witness(N, None) == python_witness(N)
    bad = N.copy()
    bad[0, 0, 1] += 1
    assert assoc_witness(bad, None) == python_witness(bad) is not None


@pytest.mark.parametrize("N,below", [
    (near_tie_tensor(2 ** 26 - 1), True),
    (near_tie_tensor(2 ** 26 + 1), False),
    (cyclic_tensor(8) * (2 ** 25 - 1), True),
    (cyclic_tensor(8) * 2 ** 25, False),
])
def test_assoc_witness_float64_bound(N, below):
    # max|N|^2 * n just below 2^53 (the float64 pass) and at or above it
    # (residues modulo primes); above, float64 would round the near tie's two
    # sums, 2^53 + 2^27 and 2^53 + 2^27 + 1 at a = 2^26 + 1, to one value
    assert (int(np.abs(N).max()) ** 2 * len(N) < 2 ** 53) == below
    assert assoc_witness(N, None) == python_witness(N)
    bad = N.copy()
    bad[0, 0, 1] += 1
    assert assoc_witness(bad, None) == python_witness(bad) is not None


def c2_tensor_mod(P, p):
    """fibonacci_tensor's construction over GF(p): C^2 in the basis with
    rows P, reduced to 0..p-1.  Associative modulo p; over Z the
    differences are multiples of p, not all zero."""
    (a, b), (c, d) = P
    inv = pow(a * d - b * c, -1, p)
    Q = [[d * inv, -b * inv], [-c * inv, a * inv]]
    return np.array([[[sum(P[i][x] * P[j][x] * Q[x][m] for x in range(2)) % p
                       for m in range(2)] for j in range(2)]
                     for i in range(2)], dtype=np.int64)


def test_assoc_witness_odd_prime_modulus():
    # (p - 1)^2 * 2 < 2^24: the float32 tier, with sums near its mantissa
    # bound, where d / p is closest to an integer it is not equal to
    p = 2897
    N = c2_tensor_mod([[1675, 2404], [2306, 1684]], p)
    assert full_einsum_witness(N) is not None
    assert assoc_witness(N, p) is None
    # the first difference becomes -1 - 1857 p and 1 - 1859 p
    for delta in (1, -1):
        bad = N.copy()
        bad[0, 0, 0] += delta
        assert full_einsum_witness(bad, p) == (0, 0, 1, 1)
        assert assoc_witness(bad, p) == (0, 0, 1, 1)


@pytest.mark.parametrize("k", [3, 8])
def test_assoc_witness_f2_flipped_pair(k):
    N = f2_tensor(k).astype(np.int64)
    n = 4 * k
    assert assoc_witness(N, 2) is None
    for i, j, m in ((1, 2, 3), (0, 5, 5), (n - 1, 2, 0), (n - 2, n - 1, 1)):
        bad = N.copy()
        bad[i, j, m] ^= 1
        bad[j, i, m] = bad[i, j, m]
        want = full_einsum_witness(bad, 2)
        assert want is not None
        assert assoc_witness(bad, 2) == want


def associator(N):
    """The full n^4 associator d(i, j, k, l) over Python ints."""
    T = N.astype(object)
    return (np.einsum("ijm,mkl->ijkl", T, T)
            - np.einsum("jkm,iml->ijkl", T, T))


def test_assoc_witness_noncommutative_keeps_every_k():
    # random 0/1 tensors are not commutative, so d(i, j, k, l) has no
    # symmetry and the first witness may have k < i or k = i
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        n = int(rng.integers(2, 5))
        N = (rng.random((n, n, n)) < 0.2).astype(np.int64)
        N[0] = np.eye(n, dtype=np.int64)      # slab 0 associative
        want = python_witness(N)
        assert assoc_witness(N, None) == want
        for p in (2, 3):
            assert assoc_witness(N, p) == full_einsum_witness(N, p)
        if want is not None:
            seen.add((want[2] > want[0]) - (want[2] < want[0]))
    assert seen == {-1, 0, 1}


@pytest.mark.parametrize("a,b,m", [(4, 1, 2), (1, 4, 2), (5, 3, 0),
                                   (2, 2, 5), (0, 3, 3)])
def test_assoc_witness_commutative_planted(a, b, m):
    # a constant perturbed in the Z/6 law, both (a, b) and (b, a): the
    # associator is antisymmetric in i and k, so it has mismatches with
    # i > k and with i < k; the first one in C order has k > i
    N = cyclic_tensor(6)
    N[a, b, m] += 1
    N[b, a, m] = N[a, b, m]
    d = associator(N)
    assert np.array_equal(d, -d.transpose(2, 1, 0, 3))
    bad = np.argwhere(d != 0)
    assert (bad[:, 0] > bad[:, 2]).any() and (bad[:, 0] < bad[:, 2]).any()
    want = python_witness(N)
    assert want[2] > want[0]
    assert assoc_witness(N, None) == want
    for p in (2, 3, 7):
        assert assoc_witness(N, p) == full_einsum_witness(N, p)
    # the residue tier: max|N|^2 n >= 2^53
    big = N * 2 ** 26
    assert int(np.abs(big).max()) ** 2 * 6 >= 2 ** 53
    assert assoc_witness(big, None) == python_witness(big)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([65, 70]), st.sampled_from([(1, 0, 2), (0, 2, 1)]),
       st.lists(st.tuples(*[st.integers(0, 2 ** 16)] * 3, st.integers(1, 3)),
                max_size=3),
       st.booleans())
@example(65, (1, 0, 2), [(0, 1, 5, 1)], True)
@example(70, (0, 2, 1), [(3, 0, 9, 2)], True)
def test_asymmetry_first_mismatch(n, axes, edits, later):
    # a tensor symmetric in all three indices with a few entries raised;
    # slabs of 2^18 // n^2 = 62 or 53 values of the first index, so two at
    # these n, and with later set every raised entry and its transpose lie
    # in the second: the first mismatch in C order, as a brute-force
    # comparison of the whole tensor finds it
    step = 2 ** 18 // (n * n)
    i, j, m = np.ix_(*[np.arange(n)] * 3)
    N = ((i + j + m) % 5 + i * j * m % 3).astype(np.int8)
    lo = step if later else 0
    for a, b, c, d in edits:
        N[lo + a % (n - lo), lo + b % (n - lo), c % n] += d
    ne = np.argwhere(N != N.transpose(axes))
    want = tuple(int(x) for x in ne[0]) if len(ne) else None
    assert want is None or want[0] >= lo
    assert _asymmetry(N, axes) == want


def test_assoc_witness_commutative_random():
    rng = np.random.default_rng(9)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        N = rng.integers(-2, 3, size=(n, n, n))
        N = N + N.transpose(1, 0, 2)
        if trial % 4 == 0:
            N = N * 2 ** 28
        want = python_witness(N)
        assert want is None or want[2] > want[0]
        assert assoc_witness(N, None) == want
        if trial % 4:
            for p in (2, 5):
                assert assoc_witness(N, p) == full_einsum_witness(N, p)


def test_identity_coefficients_group_ring():
    ring = cyclic_ring(4)
    e = identity_coefficients(ring)
    assert [c.rational_value() for c in e] == [1, 0, 0, 0]


def test_identity_missing():
    # b_i b_j = 0 identically: no identity in the complexification
    ring = ring_from_tensor(2, np.zeros((2, 2, 2), dtype=np.int64), (0, 1))
    with pytest.raises(RingError, match="identity"):
        identity_coefficients(ring)


def test_trace_eval_computes_the_identity():
    # eCoeffs is computed on first use, once
    ring = cyclic_ring(3)
    b0 = RingElement.from_ints([1, 0, 0])
    assert trace_eval(ring, b0).rational_value() == 1
    assert ring.eCoeffs is ring.eCoeffs


def test_trace_triple(z3_ring):
    r = RingElement.from_ints([-1, -1, 1])
    r2 = multiply(z3_ring, r, r)
    r3 = multiply(z3_ring, r2, r)
    assert trace_eval(z3_ring, r).rational_value() == -1
    assert trace_eval(z3_ring, r2).rational_value() == -1
    assert trace_eval(z3_ring, r3).rational_value() == 5


def test_multiply_rational_coeffs(z3_ring):
    half = RingElement([Fraction(1, 2), 0, 0])
    b1 = RingElement.from_ints([0, 1, 0])
    out = multiply(z3_ring, half, b1)
    assert out.coeffs[1].rational_value() == Fraction(1, 2)
    # over the common denominators 2^32 and 3^21 the scaled coefficients
    # times the constant 2^20 pass int64
    ring = ring_from_tensor(2, cyclic_tensor(2) * 2 ** 20, (0, 1))
    a = RingElement([0, 1 - Fraction(1, 2 ** 32)])
    b = RingElement([1 + Fraction(1, 3 ** 21), 0])
    assert (2 ** 32 - 1) * (3 ** 21 + 1) * 2 ** 20 >= 2 ** 63
    out = [c.rational_value() for c in multiply(ring, a, b).coeffs]
    assert out == [0, 2 ** 20 * (1 - Fraction(1, 2 ** 32))
                   * (1 + Fraction(1, 3 ** 21))]


def test_multiply_beyond_int64():
    # the Z/2 law scaled by 2^20: (2^30 b_1)^2 = 2^80 b_0, which int64
    # arithmetic wraps to 0; the product of that with 2^30 b_1 is 2^130 b_1
    ring = ring_from_tensor(2, cyclic_tensor(2) * 2 ** 20, (0, 1))
    r = RingElement.from_ints([0, 2 ** 30])
    square = multiply(ring, r, r)
    assert [c.rational_value() for c in square.coeffs] == [2 ** 80, 0]
    assert [c.rational_value() for c in multiply(ring, square, r).coeffs] == [
        0, 2 ** 130]


def test_multiply_rejects_irrational_coefficient(z3_ring):
    z = RingElement([zeta(3), 0, 0])
    b1 = RingElement.from_ints([0, 1, 0])
    with pytest.raises(ExactError, match="not a rational value"):
        multiply(z3_ring, z, b1)
    with pytest.raises(ExactError, match="not a rational value"):
        multiply(z3_ring, b1, z)


def test_closed_subsets_cyclic():
    ring = cyclic_ring(4)
    assert is_closed_subset(ring, [0])
    assert is_closed_subset(ring, [0, 2])
    assert not is_closed_subset(ring, [0, 1])
    assert is_closed_subset(ring, [0, 1, 2, 3])
    with pytest.raises(RingError):
        is_closed_subset(ring, [])
    with pytest.raises(RingError):
        is_closed_subset(ring, [9])


def test_search_involution_finds_cyclic():
    found = search_involution(4, cyclic_tensor(4))
    assert found is not None
    tilde, report = found
    assert report.all_pass
    assert tuple(tilde) == (0, 3, 2, 1)


def test_search_involution_monoid_rejects():
    from zbrng.spectra import SMatrix
    mono = SMatrix.numeric(np.array(
        [[1, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
        dtype=float))
    N = verlinde_tensor(mono).tensor
    assert search_involution(4, N) is None


def ring_text(ring):
    return "".join(ring_lines(ring.N, ring.tilde))


def test_text_roundtrip(z6_ring):
    text = ring_text(z6_ring)
    back = ring_from_text(text)
    assert back.n == z6_ring.n
    assert np.array_equal(back.N, z6_ring.N)
    assert back.tilde == z6_ring.tilde


@pytest.mark.parametrize("text,msg", [
    ("", "header"),
    ("zbrng 2\nn 1\n", "header"),
    ("zbrng 1\nx\n", "size"),
    ("zbrng 1\nn 2\ninvolution 0\n", "involution"),
    ("zbrng 1\nn 1\ninvolution 0\nN 0\n1 2\n", None),
])
def test_text_errors(text, msg):
    with pytest.raises(FormatError, match=msg):
        ring_from_text(text)


def oracle_ring_text(N, tilde):
    """The ring text as the row-by-row writer made it; no involution line
    when tilde is None."""
    lines = ["zbrng 1", "n %d" % len(N)]
    if tilde is not None:
        lines.append("involution " + " ".join(str(t) for t in tilde))
    for i, block in enumerate(N.tolist()):
        lines.append("N %d" % i)
        lines.extend(" ".join(map(str, row)) for row in block)
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_text_roundtrip_property(data):
    n = data.draw(st.integers(1, 6))
    big = 2 ** 63 - 1
    values = st.one_of(st.integers(-big, big), st.integers(-3, 3))
    N = np.array(data.draw(st.lists(values, min_size=n ** 3,
                                    max_size=n ** 3)),
                 dtype=np.int64).reshape(n, n, n)
    N = np.where(np.tri(n, dtype=bool).T[..., None], N, N.transpose(1, 0, 2))
    order = data.draw(st.permutations(range(n)))
    tilde = list(range(n))
    for a, b in zip(order[0::2], order[1::2]):
        tilde[a], tilde[b] = b, a
    ring = ring_from_tensor(n, N, tilde)
    text = ring_text(ring)
    assert text == oracle_ring_text(N, tilde)
    # the header of a quotient or a lift, which carry no involution
    assert "".join(ring_lines(N)) == oracle_ring_text(N, None)
    assert all(ln.endswith("\n") for ln in ring_lines(N, tilde))
    # the reader also takes runs of blanks in rows and empty lines
    spaced = "\n\n".join(ln if ln[0].isalpha() else ln.replace(" ", " \t ")
                         for ln in text.splitlines())
    for form in (text, spaced):
        back = ring_from_text(form)
        assert back.n == n and back.tilde == tuple(tilde)
        assert back.N.dtype == narrow_dtype(_maxabs(N))
        assert np.array_equal(back.N, N)


@pytest.mark.parametrize("value,dtype", [
    (0, np.int8), (127, np.int8), (-127, np.int8), (-128, np.int16),
    (128, np.int16), (32767, np.int16), (-32768, np.int32),
    (2 ** 31 - 1, np.int32), (-2 ** 31, np.int64), (2 ** 40, np.int64)])
def test_text_reader_smallest_dtype(value, dtype):
    # N is stored in the smallest signed dtype holding max|N|, both signs
    N = cyclic_tensor(3)
    N[1, 2, 0] = N[2, 1, 0] = value
    ring = ring_from_text(ring_text(ring_from_tensor(3, N, (0, 2, 1))))
    assert ring.N.dtype == dtype and np.array_equal(ring.N, N)


def test_text_reader_widens_for_later_blocks():
    # blocks 0 and 1 fit int8, block 2 needs int16 and block 3 int64: N is
    # widened twice, no earlier constant changes, and the text written from
    # it is the text read, byte for byte
    N = np.zeros((4, 4, 4), dtype=np.int64)
    N[0, 1, 2] = N[1, 0, 2] = -127
    N[0, 0, 0] = 5
    N[2, 3, 1] = N[3, 2, 1] = 300
    N[3, 3, 3] = -2 ** 40
    text = oracle_ring_text(N, range(4))
    ring = ring_from_text(text)
    assert ring.N.dtype == np.int64 and np.array_equal(ring.N, N)
    assert ring_text(ring) == text
    # without the last block's constant the widening stops at int16
    N[3, 3, 3] = 7
    ring = ring_from_text(oracle_ring_text(N, range(4)))
    assert ring.N.dtype == np.int16 and np.array_equal(ring.N, N)
    # a value int8 would wrap (300 = 44 mod 256) is never parsed narrow
    assert ring.N[2, 3, 1] == 300


RING2 = ["zbrng 1", "n 2", "involution 0 1",
         "N 0", "1 0", "0 1", "N 1", "0 1", "1 0"]


@pytest.mark.parametrize("edits,msg", [
    ({9: "1"}, "row length != n at line 9"),
    ({8: "0 1 1"}, "row length != n at line 8"),
    ({8: "0 1 1", 9: "1 0 0"}, "row length != n at line 8"),
    ({8: "0", 9: "1"}, "row length != n at line 8"),
    ({8: "0 x"}, "malformed ring file: invalid literal for int() with base "
                 "10: 'x'"),
    ({8: "0 %d" % 2 ** 63}, "malformed ring file: Python int too large "
                              "to convert to C long"),
    ({8: "0 %d" % -(2 ** 63 + 1)}, "malformed ring file: Python int too "
                                   "large to convert to C long"),
    ({9: "1 0\n5"}, "trailing content"),
    ({7: "N 2"}, "expected 'N 1' at line 7"),
    ({9: ""}, "malformed ring file: list index out of range"),
    ({8: "0 y", 9: "1"}, "malformed ring file: invalid literal for int() "
                         "with base 10: 'y'"),
    ({8: "0", 9: "1 y"}, "row length != n at line 8"),
])
def test_text_error_messages(edits, msg):
    # line numbers count physical lines from 1 (no blank line comes before
    # these errors); the first bad row of a block is reported, whichever way
    # it is bad
    lines = list(RING2)
    for line, text in edits.items():
        lines[line - 1] = text
    with pytest.raises(FormatError) as exc:
        ring_from_text("\n".join(lines) + "\n")
    assert str(exc.value) == msg


def test_text_error_line_numbers_count_blank_lines():
    # two blank lines before "N 0": the short row is physical line 10, the
    # misnamed block header physical line 9
    lines = RING2[:3] + ["", "   "] + RING2[3:]
    for at, text, msg in ((10, "1", "row length != n at line 10"),
                          (9, "N 2", "expected 'N 1' at line 9")):
        bad = list(lines)
        bad[at - 1] = text
        with pytest.raises(FormatError) as exc:
            ring_from_text("\n".join(bad) + "\n")
        assert str(exc.value) == msg
    assert ring_from_text("\n".join(lines)).n == 2


OVERFLOW = "malformed ring file: Python int too large to convert to C long"


@pytest.mark.parametrize("value", [-2 ** 63, 2 ** 63 - 1, -(2 ** 63 - 1),
                                   2 ** 62, -1, 0])
def test_text_reads_int64_bounds_exactly(value):
    # np.fromstring saturates at the int64 bounds; they must be read exactly
    one = ring_from_text("zbrng 1\nn 1\ninvolution 0\nN 0\n%d\n" % value)
    assert one.N.dtype == narrow_dtype(abs(value))
    assert one.N.tolist() == [[[value]]]
    lines = list(RING2)
    lines[4] = "%d 0" % value
    two = ring_from_text("\n".join(lines) + "\n")
    assert two.N[0].tolist() == [[value, 0], [0, 1]]


@pytest.mark.parametrize("value", [2 ** 63, 10 ** 20, -(2 ** 63) - 1,
                                   -(10 ** 20), 2 ** 64])
def test_text_out_of_int64_raises(value):
    for text in ("zbrng 1\nn 1\ninvolution 0\nN 0\n%d\n" % value,
                 "\n".join(RING2[:4] + ["1 0", "0 %d" % value] + RING2[6:])):
        with pytest.raises(FormatError) as exc:
            ring_from_text(text)
        assert str(exc.value) == OVERFLOW


@pytest.mark.parametrize("row,token", [
    ("0 -", "-"), ("0 +", "+"), ("- 1", "-"), ("0 1-", "1-"),
    ("0 --1", "--1"), ("+ 1", "+"), ("0 -+1", "-+1")])
def test_text_stray_signs(row, token):
    # a lone sign is 0 to np.fromstring, or joins the next token
    lines = list(RING2)
    lines[5] = row
    with pytest.raises(FormatError) as exc:
        ring_from_text("\n".join(lines) + "\n")
    assert str(exc.value) == ("malformed ring file: invalid literal for "
                              "int() with base 10: '%s'" % token)


Z3_TEXT = ring_text(cyclic_ring(3)).splitlines()


@pytest.mark.parametrize("edits,line", [
    ({9: "0 1 0 0", 10: "0 1"}, 9),
    ({9: "0 1", 10: "0 1 0 0"}, 9),
    ({10: "0 1 0 0", 11: "1 0"}, 10),
    ({5: "1 0 0 0", 7: "0 0"}, 5),
    ({9: "0\t1 0 0", 10: "0  1"}, 9),
    ({9: "0  1", 11: "1 0\t0 0"}, 9),
])
def test_text_long_and_short_row_in_one_block(edits, line):
    # n^2 tokens in the block, but not n to a row
    lines = list(Z3_TEXT)
    for at, text in edits.items():
        lines[at - 1] = text
    with pytest.raises(FormatError) as exc:
        ring_from_text("\n".join(lines) + "\n")
    assert str(exc.value) == "row length != n at line %d" % line


def test_text_whitespace_and_signs_read_as_before():
    want = cyclic_tensor(3)
    variants = [
        lambda ln: ln.replace(" ", "\t"),
        lambda ln: ln.replace(" ", "  "),
        lambda ln: ln.replace(" ", " \t "),
        lambda ln: "  %s\t" % ln,
        lambda ln: " ".join("+" + v for v in ln.split()),
        lambda ln: " ".join("-0" if v == "0" else "00" + v
                            for v in ln.split()),
        lambda ln: ln + "\n",
    ]
    for edit in variants:
        text = "\n".join(ln if ln[0].isalpha() else edit(ln)
                         for ln in Z3_TEXT)
        assert np.array_equal(ring_from_text(text).N, want)


def test_text_small_rings():
    one = ring_from_text("zbrng 1\nn 1\ninvolution 0\nN 0\n1\n")
    assert one.n == 1 and one.N.tolist() == [[[1]]]
    two = ring_from_text("\n".join(RING2) + "\n")
    assert two.n == 2 and two.tilde == (0, 1)
    assert np.array_equal(two.N, cyclic_tensor(2))


def test_text_size_bound():
    # n^3 constants past 2^27 are refused at the size line
    with pytest.raises(FormatError) as exc:
        ring_from_text("zbrng 1\nn %d\ninvolution 0\n" % (MAX_RING + 1))
    assert str(exc.value) == "ring order %d above %d" % (MAX_RING + 1,
                                                       MAX_RING)


def oracle_block(rows, numbers, n):
    """A block as the row-by-row reader takes it: int() per token."""
    out = []
    for row, no in zip(rows, numbers):
        values = [int(v) for v in row.split()]
        if len(values) != n:
            raise FormatError("row length != n at line %d" % no)
        if any(not -2 ** 63 <= v < 2 ** 63 for v in values):
            raise FormatError(OVERFLOW)
        out.append(values)
    return out


TOKENS = ["0", "1", "-1", "12", "-34", "+5", "007", "-0", "-", "+", "--1",
          "2-", "1-2", "1+2", "x", "1.5", "1e3", "0x1", "1_0", "\u0663",
          str(2 ** 63 - 1), str(-2 ** 63), str(2 ** 63), str(-2 ** 63 - 1)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.sampled_from(TOKENS),
                                   st.sampled_from([" "] * 6 + ["  ", "\t"])),
                         min_size=1, max_size=3),
                min_size=2, max_size=2))
# a lone "-" before a token: np.fromstring raises rather than joining them
@example([[("0", " "), ("0", " ")], [("-", " "), ("-1", " ")]])
def test_text_block_matches_row_reader(rows):
    # block 0 of a ring with n = 2 from arbitrary tokens and separators;
    # block 1 is written from the reference values, so the ring is
    # commutative: the tensor, or the error, is the one of the row-by-row
    # reader
    rows = ["".join(t + sep for t, sep in row).strip() for row in rows]
    try:
        block = oracle_block(rows, [5, 6], 2)
    except ValueError as exc:
        want = str(exc) if isinstance(exc, FormatError) else (
            "malformed ring file: %s" % exc)
        block1 = RING2[7:]
    else:
        want = [block, [block[1], [1, 0]]]
        block1 = ["%d %d" % tuple(block[1]), "1 0"]
    lines = RING2[:4] + rows + ["N 1"] + block1
    try:
        got = ring_from_text("\n".join(lines) + "\n").N.tolist()
    except FormatError as exc:
        got = str(exc)
    assert got == want


def test_verlinde_recovers_group_ring(z6_ring):
    # index (a, b) -> 3a + b; CRT isomorphism to Z/6 sends (a, b) to 3a + 4b
    iso = np.array([(3 * a + 4 * b) % 6 for a in range(2) for b in range(3)])
    assert np.array_equal(z6_ring.N, cyclic_tensor(6)[np.ix_(iso, iso, iso)])
