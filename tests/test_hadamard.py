import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zbrng.generators import gen_kronecker, gen_paley, gen_sylvester
from zbrng.hadamard import (FormatError, HadamardError, HadamardMatrix,
                            census_values, equiv_screen, f2_algebra_check,
                            f2_tensor, had_closed_subsets, hadamard_from_text,
                            hadamard_to_text, multiset_census,
                            normalize_hadamard, profile, reconstruct_exact,
                            reconstruct_mod3, ring_from_hadamard,
                            triangular_bound, v_rank,
                            wmatrix, xi_sets)
from zbrng.rng_core import is_closed_subset, verify_axioms


def sorted_rows(a):
    return sorted(map(tuple, np.asarray(a).tolist()))


def test_normalize():
    raw = gen_paley(11).array.copy()
    raw[3] *= -1
    raw = raw[np.random.default_rng(0).permutation(12)]
    H = normalize_hadamard(raw)
    assert (H.array[:, 0] == 1).all()
    assert H.n == 12 and H.k == 3


@pytest.mark.parametrize("bad,msg", [
    (np.ones((2, 3), dtype=np.int64), "not square"),
    (np.array([[1, 2], [1, 1]]), "entries not"),
    (np.array([[1, 1], [1, -1]]), "divisible by 4"),
    (np.ones((4, 4), dtype=np.int64), "not orthogonal"),
])
def test_normalize_errors(bad, msg):
    with pytest.raises(HadamardError, match=msg):
        normalize_hadamard(bad)


def test_xi_sets(paley12):
    xs = xi_sets(paley12)
    assert len(xs[0]) == 0
    assert all(len(xs[i]) == 6 for i in range(1, 12))
    for i in range(1, 12):
        for j in range(i + 1, 12):
            assert len(xs[i] & xs[j]) == 3


def test_ring_axioms(paley12_ring):
    assert paley12_ring.tilde == tuple(range(12))
    assert verify_axioms(paley12_ring).all_pass


def test_four_distinct_entries(paley12_ring):
    N = paley12_ring.N
    for i in range(1, 12):
        for j in range(1, 12):
            if i == j:
                continue
            for m in range(1, 12):
                if m in (i, j):
                    continue
                assert N[i, j, m] in (-1, 1)


def test_sum_squares(paley12_ring):
    # sum_m (N_ij^m)^2 = k^2, a consequence of N_i^2 = k^2 I
    assert np.array_equal((paley12_ring.N ** 2).sum(axis=2),
                          np.full((12, 12), 9))


def test_profile_paley12(paley12):
    p = profile(paley12)
    assert p.counts == {4: 495}
    assert p.total() == 495


def test_profile_sylvester8():
    p = profile(gen_sylvester(3))
    assert set(p.counts) <= {0, 8}
    assert p.total() == 70


@pytest.mark.parametrize("k,bound", [(3, 1), (5, 1), (7, 2), (9, 4)])
def test_triangular_bound(k, bound):
    assert triangular_bound(k) == bound


def test_triangular_bound_errors():
    with pytest.raises(HadamardError, match="odd"):
        triangular_bound(4)
    with pytest.raises(HadamardError, match=">= 3"):
        triangular_bound(1)


def test_census_paley12(paley12_ring):
    cens = multiset_census(paley12_ring)
    assert len(cens) == 1 == triangular_bound(3)
    (entry,) = cens
    assert census_values(entry) == (1,) * 9


def test_census_values_decode():
    assert census_values((2, 0, 3)) == (2, 2, 2, 0, 0)


def test_had_closed_subsets(paley12_ring):
    sets = had_closed_subsets(paley12_ring)
    assert len(sets) == 13
    assert (0,) in sets and tuple(range(12)) in sets
    assert all((0, i) in sets for i in range(1, 12))
    for S in sets:
        assert is_closed_subset(paley12_ring, list(S))


def test_had_closed_subsets_even_k(sylvester16_ring):
    with pytest.raises(HadamardError, match="odd"):
        had_closed_subsets(sylvester16_ring)


def test_wmatrix(paley12_ring):
    for i in range(1, 12):
        W = wmatrix(paley12_ring, i)
        assert W.shape == (20, 20)
        assert set(np.unique(W)) == {-1, 1}
        assert np.array_equal(W @ W.T, 20 * np.eye(20, dtype=np.int64))
    with pytest.raises(HadamardError, match="nonzero"):
        wmatrix(paley12_ring, 0)
    with pytest.raises(HadamardError, match="out of range"):
        wmatrix(paley12_ring, 12)
    with pytest.raises(HadamardError, match="out of range"):
        wmatrix(paley12_ring, -1)


def test_reconstruct_exact_12(paley12, paley12_ring):
    H = reconstruct_exact(paley12_ring)
    assert sorted_rows(H.array) == sorted_rows(paley12.array)


def test_reconstruct_exact_16(sylvester16, sylvester16_ring):
    H = reconstruct_exact(sylvester16_ring)
    assert sorted_rows(H.array) == sorted_rows(sylvester16.array)


@st.composite
def scrambled_hadamard(draw):
    """A Paley, Sylvester or Kronecker Hadamard matrix of order <= 24 with
    rows and columns permuted and negated (still a Hadamard matrix, not
    normalized)."""
    H = draw(st.sampled_from([
        lambda: gen_paley(3), lambda: gen_paley(7), lambda: gen_paley(11),
        lambda: gen_paley(19), lambda: gen_paley(23),
        lambda: gen_sylvester(2), lambda: gen_sylvester(3),
        lambda: gen_sylvester(4),
        lambda: gen_kronecker(gen_sylvester(2), gen_paley(3)),
        lambda: gen_kronecker(gen_paley(3), gen_paley(3))]))().array
    n = len(H)
    rows = draw(st.permutations(range(n)))
    cols = draw(st.permutations(range(n)))
    r = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                               max_size=n)))
    c = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                               max_size=n)))
    return H[np.ix_(rows, cols)] * r[:, None] * c[None, :]


@settings(max_examples=30, deadline=None)
@given(scrambled_hadamard())
def test_hadamard_text_roundtrip(a):
    text = hadamard_to_text(a)
    back = hadamard_from_text(text)
    assert back.dtype == np.int64 and np.array_equal(back, a)
    assert hadamard_to_text(back) == text
    # the whitespace-separated +-1 form reads the same matrix
    spaced = "\n".join(" ".join(map(str, row)) for row in a.tolist())
    assert np.array_equal(hadamard_from_text(spaced + "\n"), a)


@settings(max_examples=15, deadline=None)
@given(scrambled_hadamard())
def test_reconstruct_exact_recovers_normalized_matrix(a):
    H = normalize_hadamard(a)
    got = reconstruct_exact(ring_from_hadamard(H))
    assert sorted_rows(got.array) == sorted_rows(H.array)


def test_reconstruct_exact_requires_identity_tilde(z3_ring):
    with pytest.raises(HadamardError, match="tilde"):
        reconstruct_exact(z3_ring)


def test_reconstruct_mod3(sylvester16, sylvester16_ring):
    rows = reconstruct_mod3(sylvester16_ring.N % 3, 4)
    assert sorted_rows(rows) == sorted_rows(sylvester16.array)


def test_reconstruct_mod3_rejects_k(paley12_ring):
    with pytest.raises(HadamardError, match="1 mod 3"):
        reconstruct_mod3(paley12_ring.N % 3, 3)


@pytest.mark.parametrize("k", [3, 5])
def test_f2_algebra(k):
    assert f2_algebra_check(k)
    t = f2_tensor(k)
    assert t.shape == (4 * k,) * 3
    assert set(np.unique(t)) <= {0, 1}


def test_v_rank_values(paley12, sylvester16):
    assert v_rank(paley12) == 10
    assert v_rank(sylvester16) == 4
    assert v_rank(gen_sylvester(2)) == 2


def test_v_rank_column_signs(paley12):
    # column signs leave row 0 of the row-normalized matrix not all ones
    rng = np.random.default_rng(11)
    for _ in range(20):
        signs = rng.choice([-1, 1], size=12)
        assert v_rank(normalize_hadamard(paley12.array * signs)) == 10


def test_v_rank_bound():
    for H in (gen_paley(19), gen_sylvester(2), gen_kronecker(
            gen_sylvester(2), np.array([[1, 1], [1, -1]]))):
        assert v_rank(H) <= 4 * H.k - 2


def test_equiv_screen_invariance(paley12):
    rng = np.random.default_rng(5)
    a = paley12.array.copy()
    a = a[rng.permutation(12)][:, rng.permutation(12)]
    a[2] *= -1
    a[:, 7] *= -1
    other = normalize_hadamard(a)
    assert equiv_screen(paley12, other) == "indistinguishable"


def test_equiv_screen_separates():
    h2 = np.array([[1, 1], [1, -1]])
    a = gen_kronecker(h2, gen_paley(11))
    b = gen_paley(23)
    assert equiv_screen(a, b) == "inequivalent"


def test_equiv_screen_order_mismatch(paley12, sylvester16):
    # the order is a canonical invariant
    assert equiv_screen(paley12, sylvester16) == "inequivalent"


def test_text_roundtrip(paley12):
    back = hadamard_from_text(hadamard_to_text(paley12))
    assert np.array_equal(back, paley12.array)


def test_text_int_tokens():
    got = hadamard_from_text("1 1\n1 -1\n")
    assert np.array_equal(got, np.array([[1, 1], [1, -1]]))


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("++\n+\n", "not square"),
    ("+x\n--\n", "bad character"),
    ("1 2\n1 1\n", "entries not"),
    ("1 y\n1 1\n", "bad entry"),
])
def test_text_errors(text, msg):
    with pytest.raises(FormatError, match=msg):
        hadamard_from_text(text)


def generated_upto_20():
    h2 = np.array([[1, 1], [1, -1]])
    return [gen_sylvester(2), gen_sylvester(3), gen_paley(11), gen_paley(19),
            gen_kronecker(h2, gen_sylvester(2)), gen_kronecker(h2, h2)]


@pytest.mark.parametrize("H", generated_upto_20(),
                         ids=lambda H: "n%d" % H.n)
def test_parity_invariants(H):
    xs = xi_sets(H)
    k = H.k
    ring = ring_from_hadamard(H)
    for i in range(1, H.n):
        assert len(xs[i]) == 2 * k
        for j in range(i + 1, H.n):
            assert len(xs[i] & xs[j]) == k
    for i in range(1, H.n):
        for j in range(1, H.n):
            for m in range(1, H.n):
                if len({i, j, m}) < 3:
                    continue
                assert ring.N[i, j, m] == k - 2 * len(xs[i] & xs[j] & xs[m])
