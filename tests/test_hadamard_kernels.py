"""Differential tests of the array kernels for the Hadamard invariants and
the ring identity against the loop implementations they replaced, kept here
as oracles."""

import time
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import Matrix

from zbrng import cli
from zbrng.cli import main
from zbrng.exact import int_matmul, primes
from zbrng.generators import gen_kronecker, gen_paley, gen_sylvester
from zbrng.hadamard import (HadamardError, HadamardMatrix, hadamard_to_text,
                            multiset_census, normalize_hadamard, profile,
                            ring_from_hadamard, triangular_bound,
                            triple_slabs)
from zbrng.rng_core import (FusionRing, RingError, assoc_witness,
                            identity_coefficients, ring_from_text,
                            ring_lines, verify_axioms)


# ---------------------------------------------------------------------------
# oracles: the loop implementations

def oracle_profile(H):
    """Counts over combinations of columns, raising at the first quadruple
    in combinations order that breaks the mod-8 congruence."""
    a = H.array
    n, k = H.n, H.k
    pairs = list(combinations(range(n), 2))
    pidx = {pq: t for t, pq in enumerate(pairs)}
    pmat = np.array([a[:, i] * a[:, j] for i, j in pairs], dtype=np.int64)
    gram = pmat @ pmat.T
    counts = {}
    for i, j, l, m in combinations(range(n), 4):
        p = int(abs(gram[pidx[(i, j)], pidx[(l, m)]]))
        if (p - 4 * k) % 8:
            raise HadamardError(
                "profile congruence violation at columns (%d,%d,%d,%d)"
                % (i, j, l, m))
        counts[p] = counts.get(p, 0) + 1
    assert sum(counts.values()) == comb(n, 4)
    return counts


def oracle_census(ring):
    N, n = ring.N, ring.n
    k = int(N[0, 0, 0])
    out = set()
    for i in range(1, n):
        for j in range(i + 1, n):
            counts = [0] * (k + 1)
            for m in range(n):
                if m in (0, i, j):
                    continue
                v = abs(int(N[i, j, m]))
                if v > k:
                    raise HadamardError("entry exceeds k")
                counts[v] += 1
            out.add(tuple(counts))
    if k % 2 and k >= 3 and len(out) > triangular_bound(k):
        raise HadamardError("census exceeds triangular bound")
    return out


def oracle_triple(a):
    return np.einsum("li,lj,lm->ijm", a, a, a)


def slab_triple(a):
    """np.concatenate of triple_slabs(a), after checking that the slabs
    follow each other from row 0."""
    slabs = list(triple_slabs(a))
    assert [lo for lo, _ in slabs] == np.cumsum(
        [0] + [len(T) for _, T in slabs[:-1]]).tolist()
    return np.concatenate([T for _, T in slabs])


def oracle_parity(H, N):
    X = (H.array == -1).astype(np.int64).T
    inter = np.einsum("iq,jq,mq->ijm", X, X, X)
    i, j, m = np.indices(N.shape)
    mask = ((i != j) & (j != m) & (i != m)
            & (i != 0) & (j != 0) & (m != 0))
    return np.array_equal(N[mask], (H.k - 2 * inter)[mask])


def oracle_identity(N):
    """The full n^2-equation solve over Q (sympy): the coefficients, or the
    RingError message."""
    n = N.shape[0]
    rows, rhs = [], []
    for j in range(n):
        for m in range(n):
            rows.append([int(N[i, j, m]) for i in range(n)])
            rhs.append(int(j == m))
    try:
        sol, params = Matrix(rows).gauss_jordan_solve(Matrix(rhs))
    except ValueError:
        return "no identity in R(x)C"
    if params.shape[0]:
        return "identity not unique"
    return [Fraction(int(x.p), int(x.q)) for x in sol]


def identity_or_message(N):
    try:
        e = identity_coefficients(FusionRing(N.shape[0], N, None))
    except RingError as exc:
        return str(exc)
    return [c.rational_value() for c in e]


def outcome(fn, *args):
    try:
        return fn(*args)
    except HadamardError as exc:
        return "error: %s" % exc


# ---------------------------------------------------------------------------
# scrambled Hadamard matrices

H2 = np.array([[1, 1], [1, -1]])
BASES = [gen_paley(11), gen_paley(19), gen_paley(23), gen_sylvester(3),
         gen_sylvester(4), gen_kronecker(H2, gen_paley(11)),
         gen_kronecker(gen_sylvester(2), H2)]


@st.composite
def scrambled(draw):
    """A base matrix with rows and columns permuted and rows and columns
    negated, then row-normalized: rings with negative structure constants."""
    base = draw(st.sampled_from(BASES)).array
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = len(base)
    a = base[rng.permutation(n)][:, rng.permutation(n)]
    a = a * rng.choice([-1, 1], size=(n, 1)) * rng.choice([-1, 1], size=n)
    return normalize_hadamard(a)


KERNELS = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@KERNELS
@given(scrambled())
def test_profile_matches_loop(H):
    assert profile(H).counts == oracle_profile(H)


@KERNELS
@given(scrambled())
def test_census_matches_loop(H):
    ring = ring_from_hadamard(H)
    assert multiset_census(ring) == oracle_census(ring)


@KERNELS
@given(H=scrambled())
def test_ring_tensor_and_parity_match_einsum(tmp_path_factory, H):
    raw = oracle_triple(H.array)
    assert np.array_equal(slab_triple(H.array), raw)
    assert np.array_equal(ring_from_hadamard(H).N, raw // 4)
    minus = (H.array == -1).astype(np.int64)
    assert np.array_equal(slab_triple(minus), oracle_triple(minus))
    path = tmp_path_factory.mktemp("parity") / "h.had"
    path.write_text(hadamard_to_text(H))
    want = oracle_parity(H, raw // 4)
    assert main(["had", "ring", str(path), "--check-parity"]) == (0 if want
                                                                 else 1)


@pytest.mark.parametrize("zero_one", [False, True])
def test_triple_slabs_sylvester128(zero_one):
    # 2^18 // 128^2 = 16 rows a slab: eight products
    a = gen_sylvester(7).array
    if zero_one:
        a = (a == -1).astype(np.int64)
    assert len(list(triple_slabs(a))) == 8
    assert np.array_equal(slab_triple(a), oracle_triple(a))


NON_INTEGRAL = "non-integral structure constants (corrupt input)"
# the bytes of an int64 tensor of order 128, the unit of the memory bounds
# (N itself is stored narrower)
INT64_N128 = 128 ** 3 * 8


def test_non_integral_in_a_later_slab():
    # columns 0..15 zeroed leave the first slab of order 128 all zero; a
    # flipped entry in column 100 leaves T[i, 100, m] = 2 mod 4 for i >= 16
    a = gen_sylvester(7).array.copy()
    a[5, 100] *= -1
    with pytest.raises(HadamardError) as first:
        ring_from_hadamard(HadamardMatrix(a))
    a[:, :16] = 0
    lo, T = next(triple_slabs(a))
    assert lo == 0 and not np.any(T)
    with pytest.raises(HadamardError) as later:
        ring_from_hadamard(HadamardMatrix(a))
    assert str(first.value) == str(later.value) == NON_INTEGRAL


def test_ring_build_and_write_memory_sylvester128():
    H = gen_sylvester(7)
    tracemalloc.start()
    try:
        ring = ring_from_hadamard(H)
        held, build = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        deque(ring_lines(ring.N, ring.tilde), 0)
        write = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # bounds in units of an int64 N, n^3 * 8 bytes (16 MiB), the size they
    # were written for: the slabs add at most a quarter of that, the writer
    # one block at a time
    assert build <= 1.25 * INT64_N128
    assert write <= 2 ** 20


@settings(max_examples=12, deadline=None)
@given(scrambled())
def test_identity_matches_full_solve_on_hadamard(H):
    N = ring_from_hadamard(H).N
    assert identity_or_message(N) == oracle_identity(N) == [
        Fraction(1, H.k)] + [0] * (H.n - 1)


# ---------------------------------------------------------------------------
# profile: congruence witness on hand-built matrices

def test_profile_witness_is_lexicographically_first():
    # one row per support; a quadruple's value is 1 exactly when it lies in
    # one support, and 4k = 16 wants 0 mod 8.  The violations sit in the
    # blocks j = 2, 9 and 12: the first block, the last block and the first
    # in combinations order are three different quadruples.
    a = np.zeros((16, 16), dtype=np.int64)
    for row, support in enumerate([(0, 9, 10, 11), (1, 2, 3, 4),
                                   (5, 12, 13, 14)]):
        a[row, list(support)] = 1
    H = HadamardMatrix(a)
    with pytest.raises(HadamardError, match=r"\(0,9,10,11\)"):
        profile(H)
    assert outcome(profile, H) == outcome(oracle_profile, H)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 12, 16]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 3))
def test_profile_witness_matches_loop(n, seed, flips):
    # a Hadamard matrix with a few entries negated, not re-normalized
    rng = np.random.default_rng(seed)
    a = {8: gen_sylvester(3), 12: gen_paley(11),
         16: gen_sylvester(4)}[n].array.copy()
    for _ in range(flips):
        a[rng.integers(n), rng.integers(n)] *= -1
    H = HadamardMatrix(a)
    assert outcome(lambda X: profile(X).counts, H) == \
        outcome(oracle_profile, H)


# ---------------------------------------------------------------------------
# census: the "entry exceeds k" tensor and masked entries

def test_census_entry_exceeds_k(paley12_ring):
    N = paley12_ring.N.copy()
    N[2, 5, 7] = N[5, 2, 7] = 4                   # k = 3, m = 7 unmasked
    ring = FusionRing(12, N, tuple(range(12)))
    with pytest.raises(HadamardError, match="entry exceeds k"):
        multiset_census(ring)
    with pytest.raises(HadamardError, match="entry exceeds k"):
        oracle_census(ring)


def test_census_ignores_masked_entries(paley12_ring):
    N = paley12_ring.N.copy()
    N[2, 5, 2] = N[2, 5, 5] = N[2, 5, 0] = 9      # m in {0, i, j}
    ring = FusionRing(12, N, tuple(range(12)))
    assert multiset_census(ring) == oracle_census(ring) == \
        multiset_census(paley12_ring)


# ---------------------------------------------------------------------------
# identity: random integer tensors

def tensors(max_n=4, lo=-3, hi=3):
    return st.integers(1, max_n).flatmap(lambda n: st.lists(
        st.integers(lo, hi), min_size=n ** 3, max_size=n ** 3).map(
            lambda v: np.array(v, dtype=np.int64).reshape(n, n, n)))


@settings(max_examples=60, deadline=None)
@given(tensors())
def test_identity_random_tensors(N):
    # mostly inconsistent; small entry ranges also give rank deficiency
    assert identity_or_message(N) == oracle_identity(N)


@settings(max_examples=60, deadline=None)
@given(tensors(lo=-1, hi=1))
def test_identity_sparse_tensors(N):
    assert identity_or_message(N) == oracle_identity(N)


@st.composite
def tensors_with_identity(draw):
    """N with e = (1, a_1, ..., a_{n-1}) / d an identity: the block N_0 is
    chosen to make sum_i e_i N_i = I hold.  Other blocks are random, so e
    may or may not be unique."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 7))
    a = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    rest = draw(st.lists(st.integers(-2, 2), min_size=(n - 1) * n * n,
                         max_size=(n - 1) * n * n))
    N = np.zeros((n, n, n), dtype=np.int64)
    N[1:] = np.array(rest, dtype=np.int64).reshape(n - 1, n, n)
    N[0] = d * np.eye(n, dtype=np.int64) - np.tensordot(
        np.array(a, dtype=np.int64), N[1:], axes=1)
    return N


@settings(max_examples=60, deadline=None)
@given(tensors_with_identity())
def test_identity_rational_coefficients(N):
    got = identity_or_message(N)
    assert got == oracle_identity(N)
    if isinstance(got, list):
        assert np.array_equal(np.tensordot(np.array(got, dtype=object), N,
                                           axes=1), np.eye(len(N)))


def test_identity_zero_tensor():
    N = np.zeros((3, 3, 3), dtype=np.int64)
    assert identity_or_message(N) == oracle_identity(N) == \
        "no identity in R(x)C"


FIRST_PRIME = next(primes(1, 1))


def z2_tensor():
    N = np.zeros((2, 2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            N[i, j, (i + j) % 2] = 1
    return N


def test_identity_retries_when_the_prime_divides_every_minor():
    # every n x n minor of A is a multiple of FIRST_PRIME ** 2; over Q the
    # identity is b_0 / FIRST_PRIME
    N = FIRST_PRIME * z2_tensor()
    want = [Fraction(1, FIRST_PRIME), Fraction(0)]
    assert identity_or_message(N) == oracle_identity(N) == want


def test_identity_certificate_rejects_the_pivot_solution():
    # modulo FIRST_PRIME the equation (1, 1) repeats (0, 0), so the pivot
    # rows are consistent with e = b_0; over Q it reads (1 + p) e_0 = 1
    N = z2_tensor()
    N[0, 1, 1] = N[1, 0, 1] = 1 + FIRST_PRIME
    assert identity_or_message(N) == oracle_identity(N) == \
        "no identity in R(x)C"


def test_identity_rank_deficient_consistent():
    # b_0 acts as the identity and b_1 as zero: e_1 is free
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = np.eye(2, dtype=np.int64)
    assert identity_or_message(N) == oracle_identity(N) == \
        "identity not unique"


def test_identity_den_past_int64():
    # two diagonal blocks: e solves a 2 x 2 system with entries near 2^40,
    # so den is near 2^77 and den b does not fit in int64
    N = np.zeros((2, 2, 2), dtype=np.int64)
    N[0] = np.diag([2 ** 40 + 3, 2 ** 40 - 5])
    N[1] = np.diag([2 ** 39 + 1, 2 ** 41 + 9])
    got = identity_or_message(N)
    assert got == oracle_identity(N)
    assert max(x.denominator for x in got) > 2 ** 63
    # N_101 = 1 forces e_1 = 0, and then e_0 N_000 = e_0 N_011 = 1 fails
    N[1, 0, 1] = 1
    assert identity_or_message(N) == oracle_identity(N) == \
        "no identity in R(x)C"


# ---------------------------------------------------------------------------
# runtime and memory bounds

def best_of(fn, repeat=3):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_profile_sylvester64_time_and_memory():
    H = gen_sylvester(6)
    profile(H)  # warm-up: a cold first call can take longer than the bound
    assert best_of(lambda: profile(H)) < 0.2
    tracemalloc.start()
    try:
        profile(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the C(64, 2)^2 Gram matrix alone is 32 MB
    assert peak < 8 * 2 ** 20


def test_census_sylvester128_memory():
    ring = ring_from_hadamard(gen_sylvester(7))
    tracemalloc.start()
    try:
        cens = multiset_census(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cens) == 1
    # a (pairs x n x (k + 1)) one-hot array is 34 MB even as booleans
    assert peak < 24 * 2 ** 20


def peak_beyond(fn):
    """The tracemalloc peak of fn(), less what was held when it began."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_identity_memory_sylvester128():
    # A^T = N.reshape(n, n^2) is eliminated as one reduced copy of N and
    # certified with one float64 copy, one after the other: a second copy,
    # such as [A|b], breaks the bound
    ring = ring_from_hadamard(gen_sylvester(7))
    peak = peak_beyond(lambda: identity_coefficients(
        FusionRing(ring.n, ring.N, ring.tilde)))
    assert peak <= 1.25 * INT64_N128


def test_verify_memory_sylvester128():
    # the float32 scan holds half of N's bytes and its first slab pair as
    # much again; the involution gather and the duality product each take
    # one copy of N, which a second copy (N[tl] first) would exceed
    ring = ring_from_hadamard(gen_sylvester(7))
    peak = peak_beyond(lambda: verify_axioms(
        FusionRing(ring.n, ring.N, ring.tilde)))
    assert peak <= 1.75 * INT64_N128


def test_ring_from_text_memory_sylvester128():
    # the reader holds one block's slice of the text and its int64 values
    # beside N, here in int8 (2 MiB, 0.125 of the unit): a list of the
    # text's lines (0.5), an int16 N or an n^3 mask beside N breaks the
    # bound, an int64 N by far
    ring = ring_from_hadamard(gen_sylvester(7))
    text = "".join(ring_lines(ring.N, ring.tilde))
    assert peak_beyond(lambda: ring_from_text(text)) <= 0.25 * INT64_N128


def test_assoc_witness_memory_sylvester128():
    # a float32 copy of N (half an int64 N) and one chunk of k, whose arrays
    # go before the next chunk's; a whole slab 0 at once (1.12 with one
    # product, 1.49 with two) breaks the bound
    ring = ring_from_hadamard(gen_sylvester(7))
    assert peak_beyond(lambda: assoc_witness(ring.N, None)) <= INT64_N128


def test_int_matmul_memory_sylvester128():
    # the duality product N @ v and the identity certificate v @ N.reshape(n,
    # n^2) promote N a slab of 2^18 entries (2 MiB in float64) at a time;
    # a float64 copy of the whole N is one unit
    N = ring_from_hadamard(gen_sylvester(7)).N
    v = np.arange(128, dtype=np.int64) - 64
    wide = N.astype(np.int64)
    for product, want in (
            (lambda: int_matmul(N, v), wide @ v),
            (lambda: int_matmul(v, N.reshape(128, -1)),
             v @ wide.reshape(128, -1))):
        got = []
        assert peak_beyond(lambda: got.append(product())) \
            <= 0.25 * INT64_N128
        assert got[0].dtype == np.int64 and np.array_equal(got[0], want)


def test_had_reconstruct3_memory_sylvester64(monkeypatch, capsys):
    # split_pm reduces each slab mod 3 as it reads it: no reduced copy of N
    ring = ring_from_hadamard(gen_sylvester(6))
    monkeypatch.setattr(cli, "load_any", lambda path: ring)
    assert main(["had", "reconstruct3", "s64.zbrng"]) == 0
    want = capsys.readouterr().out
    assert peak_beyond(lambda: main(["had", "reconstruct3", "s64.zbrng"])) \
        <= 0.5 * 64 ** 3 * 8
    assert capsys.readouterr().out == want


def test_identity_paley44_time():
    ring = ring_from_hadamard(gen_paley(43))
    assert best_of(lambda: identity_coefficients(ring)) < 0.3


def test_identity_sylvester128_time():
    ring = ring_from_hadamard(gen_sylvester(7))
    t0 = time.perf_counter()
    e = identity_coefficients(ring)
    assert time.perf_counter() - t0 < 2
    assert [c.rational_value() for c in e] == [Fraction(1, 32)] + [0] * 127
