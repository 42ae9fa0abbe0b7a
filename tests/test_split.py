"""The GF(p) +-k eigenspace splitter against the rational and GF(3) list
splitters it replaced, on scrambled Hadamard rings (negative structure
constants), corrupted tensors, the prime retry, and runtime bounds."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

import zbrng.hadamard as hadamard
from zbrng.exact import primes
from zbrng.generators import (gen_kronecker, gen_paley, gen_sylvester,
                              group_ring_smatrix)
from zbrng.hadamard import (HadamardError, PreconditionError,
                            character_signs, normalize_hadamard,
                            reconstruct_exact, reconstruct_mod3,
                            ring_from_hadamard, split_pm, v_rank)
from zbrng.rng_core import ring_from_tensor
from zbrng.spectra import smatrix_from_tensor

from conftest import ring_from_smatrix


# ---------------------------------------------------------------------------
# oracles: the list-based splitters and GF(p) helpers, as they were

def rat_kernel(M):
    """Kernel basis over Q (sympy): one vector per free column, 1 there and
    0 at the other free columns."""
    return [[Fraction(int(x.p), int(x.q)) for x in v]
            for v in Matrix(M).nullspace()]


def gf_echelon(rows, p):
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def gf_kernel(rows, p):
    m, pivots = gf_echelon(rows, p)
    cols = len(m[0]) if m else 0
    basis = []
    for fc in (c for c in range(cols) if c not in set(pivots)):
        v = [0] * cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-m[r][fc]) % p
        basis.append(v)
    return basis


def list_split(N, k, p, stall):
    """The list splitter over Q (p None, rows +-k) or GF(p) (rows +-1);
    stall is the message of a non-+-k eigenvalue at basis i."""
    n = N.shape[0]
    M = [[[int(N[i, j, m]) for j in range(n)] for m in range(n)]
         for i in range(n)]
    red = (lambda x: x) if p is None else (lambda x: x % p)

    def matvec(i, v):
        return [red(sum(M[i][m][j] * v[j] for j in range(n) if v[j]))
                for m in range(n)]

    def kernel(rows):
        return rat_kernel(rows) if p is None else gf_kernel(rows, p)

    one = Fraction(1) if p is None else 1
    spaces = [[[one * (r == c) for r in range(n)] for c in range(n)]]
    for i in range(n):
        if all(len(sp) == 1 for sp in spaces):
            break
        nxt = []
        for cols in spaces:
            d = len(cols)
            if d == 1:
                nxt.append(cols)
                continue
            img = [matvec(i, v) for v in cols]
            kers = [kernel([[red(img[c][r] - e * cols[c][r]) for c in range(d)]
                            for r in range(n)]) for e in (k, -k)]
            if sum(map(len, kers)) != d:
                raise HadamardError(stall(i))
            for ker in kers:
                if ker:
                    nxt.append([[red(sum(co[c] * cols[c][r]
                                         for c in range(d)))
                                 for r in range(n)] for co in ker])
        spaces = nxt
    if any(len(sp) != 1 for sp in spaces):
        raise HadamardError("splitting stalls")
    rows = []
    for cols in spaces:
        v = cols[0]
        c = next(r for r in range(n) if v[r])
        row = []
        for i in range(n):
            if p is None:
                chi = Fraction(matvec(i, v)[c]) / v[c]
                ok = chi.denominator == 1 and abs(chi) == k
            else:
                chi = matvec(i, v)[c] * pow(v[c], -1, p) % p
                ok = chi in (k % p, -k % p)
                chi = k if chi == k % p else -k
            if not ok:
                raise HadamardError(stall(i))
            row.append(int(chi))
        rows.append(row)
    return sorted(rows)


def rational_oracle(N, k):
    return list_split(N, k, None,
                      lambda i: "non-+-k eigenvalue at basis %d" % i)


def mod3_oracle(N):
    return list_split(N, 1, 3, lambda i: "splitting stalls")


def is_character_table(N, rows):
    """Python-int check: distinct rows, s_ki s_kj = sum_m N_ijm s_km."""
    n = N.shape[0]
    if len(set(map(tuple, rows))) != n:
        return False
    Nl = N.tolist()
    return all(s[i] * s[j] == sum(Nl[i][j][m] * s[m] for m in range(n))
               for s in rows for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# scrambled Hadamard rings

BASES = {
    "p12": lambda: gen_paley(11),
    "p20": lambda: gen_paley(19),
    "p24": lambda: gen_paley(23),
    "s8": lambda: gen_sylvester(3),
    "s16": lambda: gen_sylvester(4),
    "k8": lambda: gen_kronecker(np.array([[1, 1], [1, -1]]), gen_sylvester(2)),
    "k24": lambda: gen_kronecker(np.array([[1, 1], [1, -1]]), gen_paley(11)),
    "s64": lambda: gen_sylvester(6),
}


def scrambled(name, seed):
    """Rows and columns permuted and re-signed, then rows normalized: the
    columns keep random signs, so the ring has negative constants."""
    rng = np.random.default_rng(seed)
    a = BASES[name]().array
    n = len(a)
    a = a[rng.permutation(n)][:, rng.permutation(n)]
    a = a * rng.choice([-1, 1], size=(n, 1)) * rng.choice([-1, 1], size=n)
    return normalize_hadamard(a)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["p12", "p20", "p24", "s8", "s16", "k8", "k24"]),
       st.integers(0, 2 ** 32 - 1))
def test_exact_split_matches_rational_oracle(name, seed):
    H = scrambled(name, seed)
    ring = ring_from_hadamard(H)
    k = ring.n // 4
    want = rational_oracle(ring.N, k)
    got_k, signs = character_signs(ring)
    assert got_k == k and (k * signs).tolist() == want
    assert ([[int(e.rational_value()) for e in r]
             for r in smatrix_from_tensor(ring).rows] == want)
    got = reconstruct_exact(ring).array
    assert sorted(got.tolist()) == sorted(H.array.tolist())


@pytest.mark.parametrize("name,seeds", [("s16", range(5)), ("s64", range(2))])
def test_mod3_split_matches_gf3_oracle(name, seeds):
    for seed in seeds:
        H = scrambled(name, seed)
        N = ring_from_hadamard(H).N
        assert N.min() < 0
        N3 = N % 3
        got = reconstruct_mod3(N3, H.k)
        assert got.tolist() == mod3_oracle(N3)
        assert sorted(got.tolist()) == sorted(H.array.tolist())


def corrupted(name, seed, flips):
    """The scrambled ring with a few nonzero N_ijm = N_jim negated (i != j,
    both nonzero), which keeps b_i^2 = k b_0, N_0 = k I and
    commutativity."""
    ring = ring_from_hadamard(scrambled(name, seed))
    rng = np.random.default_rng(seed + 1)
    N = ring.N.copy()
    n = ring.n
    for _ in range(flips):
        i, j = rng.choice(np.arange(1, n), size=2, replace=False)
        m = rng.choice(np.flatnonzero(N[i, j]))
        N[i, j, m] = N[j, i, m] = -N[i, j, m]
    return ring_from_tensor(n, N, ring.tilde)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["p12", "s8", "s16", "k8"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_corrupted_tensor_verdicts(name, seed, flips):
    ring = corrupted(name, seed, flips)
    k = int(ring.N[0, 0, 0])
    try:
        want = rational_oracle(ring.N, k)
    except HadamardError:
        want = None
    if want is not None and not is_character_table(ring.N, want):
        want = None
    if want is None:
        with pytest.raises(HadamardError):
            character_signs(ring)
    else:
        assert (k * character_signs(ring)[1]).tolist() == want


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["p12", "s8", "s16", "k8"]),
       st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_split_pm_matches_gf_oracle(name, seed, flips):
    # the same rows or the same message as the list splitter over GF(p),
    # at the first prime and, when k = 1 (mod 3), at 3: the invariance
    # check, the rank check and the read-off at the pivots
    N = corrupted(name, seed, flips).N
    n, k = len(N), int(N[0, 0, 0])
    for p in [next(primes(1, n))] + [3] * (k % 3 == 1):
        try:
            want = list_split(N, k, p,
                              lambda i: "non-+-k eigenvalue at basis %d" % i)
        except HadamardError as exc:
            with pytest.raises(HadamardError) as got:
                split_pm(N, k, p)
            assert str(got.value) == str(exc)
        else:
            assert (k * split_pm(N, k, p)).tolist() == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_mod3_corrupted_verdicts(seed, flips):
    # over GF(3) both splitters find the same spaces: same rows or both fail
    N3 = corrupted("s16", seed, flips).N % 3
    try:
        want = mod3_oracle(N3)
    except HadamardError:
        with pytest.raises(HadamardError):
            reconstruct_mod3(N3, 4)
    else:
        assert reconstruct_mod3(N3, 4).tolist() == want


def test_corrupted_corpus_fails_both_ways():
    # some corruptions stop the split, others split into rows that only the
    # integer check rejects
    verdicts = set()
    for seed in range(12):
        with pytest.raises(HadamardError) as exc:
            character_signs(corrupted("p12", seed, 1))
        verdicts.add(str(exc.value).split(" at ")[0])
    assert verdicts == {"non-+-k eigenvalue",
                        "rows fail the integer character check"}


def test_v_rank_matches_gf2_oracle(paley12):
    rng = np.random.default_rng(11)
    for _ in range(20):
        H = normalize_hadamard(paley12.array * rng.choice([-1, 1], size=12))
        a = H.array * H.array[0]
        assert v_rank(H) == len(gf_echelon(((1 - a) // 2).tolist(), 2)[1])


# ---------------------------------------------------------------------------
# the prime retry and the integer check

def scaled_group_ring(orders, k):
    """k times the ring of (Z/2)^m: Hadamard type, characters k * (+-1).
    The Verlinde tensor is stored narrow (int8), so k * N is formed in
    int64."""
    ring = ring_from_smatrix(group_ring_smatrix(orders))
    return ring_from_tensor(ring.n, k * ring.N.astype(np.int64), ring.tilde)


def counting_split(monkeypatch, fail_first):
    """Wraps hadamard.split_pm: records each prime, and its first fail_first
    calls raise as a stalled split would."""
    used = []
    real = hadamard.split_pm

    def split(N, k, p):
        used.append(p)
        if len(used) <= fail_first:
            raise HadamardError("splitting stalls")
        return real(N, k, p)
    monkeypatch.setattr(hadamard, "split_pm", split)
    return used


def test_primes_dividing_k_are_skipped(monkeypatch):
    # k is the first prime tried at n = 8
    k = next(primes(1, 8))
    want = character_signs(scaled_group_ring([2, 2, 2], 1))[1]
    used = counting_split(monkeypatch, 0)
    got_k, signs = character_signs(scaled_group_ring([2, 2, 2], k))
    assert got_k == k and used and all(k % p for p in used)
    assert signs.tolist() == want.tolist()


def test_python_int_certificate(monkeypatch):
    # n * max|N| * k >= 2^63: the check runs on Python ints
    k = 2 ** 40 + 1
    ring = scaled_group_ring([2, 2, 2], k)
    got_k, signs = character_signs(ring)
    assert got_k == k
    s = smatrix_from_tensor(ring)
    want = [[int(e.rational_value()) for e in r]
            for r in smatrix_from_tensor(scaled_group_ring([2, 2, 2], 1)).rows]
    assert [[int(e.rational_value()) for e in r] for r in s.rows] == \
        [[k * x for x in r] for r in want]
    # at k = 2^32 both sides of every identity are 0 mod 2^64, so only a
    # check beyond int64 rejects rows that are not characters
    real = hadamard.split_pm

    def one_sign_flipped(N, k, p):
        rows = real(N, k, p).copy()
        rows[1, 1] *= -1
        return rows
    monkeypatch.setattr(hadamard, "split_pm", one_sign_flipped)
    with pytest.raises(HadamardError, match="integer character check"):
        character_signs(scaled_group_ring([2, 2, 2], 2 ** 32))


def failure_allowance(n):
    """How many of the first primes(1, n) can all divide a nonzero
    |det| <= n^(n/2): the most whose product stays within that bound."""
    product = 1
    for count, p in enumerate(primes(1, n)):
        product *= p
        if product ** 2 > n ** n:
            return count


@pytest.fixture(scope="module")
def paley44():
    return gen_paley(43)


def test_failed_primes_are_retried(monkeypatch, paley44):
    allowed = failure_allowance(44)
    assert allowed == 5
    used = counting_split(monkeypatch, allowed)
    H = reconstruct_exact(ring_from_hadamard(paley44))
    assert sorted(H.array.tolist()) == sorted(paley44.array.tolist())
    assert len(used) == allowed + 1 and len(set(used)) == len(used)


def test_failure_reported_after_allowance(monkeypatch, paley44):
    used = counting_split(monkeypatch, 10 ** 6)
    with pytest.raises(HadamardError, match="splitting stalls"):
        reconstruct_exact(ring_from_hadamard(paley44))
    assert len(used) == failure_allowance(44) + 1


def test_rows_failing_the_check_are_rejected(monkeypatch, paley12_ring):
    # the split of another ring of the same order: +-k rows, wrong table
    other = ring_from_hadamard(scrambled("p12", 3))
    real = hadamard.split_pm
    monkeypatch.setattr(hadamard, "split_pm",
                        lambda N, k, p: real(other.N, k, p))
    with pytest.raises(HadamardError, match="integer character check"):
        character_signs(paley12_ring)
    # twelve copies of one genuine character fail too
    monkeypatch.setattr(hadamard, "split_pm",
                        lambda N, k, p: np.repeat(real(N, k, p)[:1], 12, 0))
    with pytest.raises(HadamardError, match="integer character check"):
        character_signs(paley12_ring)


def test_precondition_messages(z3_ring, paley12_ring):
    with pytest.raises(PreconditionError, match="tilde must be identity"):
        character_signs(z3_ring)
    N = paley12_ring.N.copy()
    N[3, 3, 0] += 1
    with pytest.raises(PreconditionError, match=r"b_i\^2 != k b_0"):
        character_signs(ring_from_tensor(12, N, paley12_ring.tilde))
    N = paley12_ring.N.copy()
    N[0, 1, 2] = N[1, 0, 2] = 1
    with pytest.raises(PreconditionError, match="N_0 != k I"):
        character_signs(ring_from_tensor(12, N, paley12_ring.tilde))
    N = -paley12_ring.N
    with pytest.raises(PreconditionError, match=r"b_i\^2 != k b_0"):
        character_signs(ring_from_tensor(12, N, paley12_ring.tilde))


def test_split_pm_stalls_and_rejects():
    # the zero ring of order 2 has only eigenvalue 0
    with pytest.raises(HadamardError, match="non-\\+-k eigenvalue at basis 0"):
        split_pm(np.zeros((2, 2, 2), dtype=np.int64), 1, 7)
    # M_0 swaps the basis and splits it at once; only the read-off sees that
    # (M_1 v)_0 = 2 v_0 for v = (1, 1)
    N = np.array([[[0, 1], [1, 0]], [[1, 0], [1, 0]]], dtype=np.int64)
    with pytest.raises(HadamardError, match="non-\\+-k eigenvalue at basis 1"):
        split_pm(N, 1, 7)
    # every M_i = I: the eigenvalue +1 space never splits
    with pytest.raises(HadamardError, match="splitting stalls"):
        split_pm(np.tile(np.eye(2, dtype=np.int64), (2, 1, 1)), 1, 7)


# ---------------------------------------------------------------------------
# runtime bounds

def test_split_runtime_bounds():
    """The exact s-matrix of Paley 32, the exact reconstruction of Paley 44
    and the mod-3 reconstruction of Sylvester 64 each finish within 1 s."""
    p32 = ring_from_hadamard(gen_paley(31))
    p44 = ring_from_hadamard(gen_paley(43))
    s64 = ring_from_hadamard(gen_sylvester(6))
    for fn, args in ((smatrix_from_tensor, (p32,)),
                     (reconstruct_exact, (p44,)),
                     (reconstruct_mod3, (s64.N % 3, 16))):
        t0 = time.perf_counter()
        fn(*args)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, "%s took %.2fs" % (fn.__name__, elapsed)
