"""Differential tests of narrow ring tensors: every kernel that reads N must
give the same result, witness or error on a tensor stored in the smallest
signed dtype that holds it (narrow_dtype) as on an int64 copy of it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zbrng.exact import _maxabs, format_cyc, narrow_dtype
from zbrng.generators import gen_paley, gen_sylvester
from zbrng.hadamard import (character_signs, f2_tensor, hadamard_type,
                            multiset_census, normalize_hadamard,
                            ring_from_hadamard, split_pm, wmatrix)
from zbrng.quotients import order2_quotient
from zbrng.rng_core import (FusionRing, assoc_witness, identity_coefficients,
                            is_closed_subset, verify_axioms)


def group_tensor(table):
    """The group ring of a multiplication table: N[g, h, gh] = 1."""
    table = np.asarray(table)
    n = len(table)
    N = np.zeros((n, n, n), dtype=np.int64)
    g, h = np.indices((n, n))
    N[g, h, table] = 1
    return N


def cyclic_table(n):
    return np.add.outer(np.arange(n), np.arange(n)) % n


def dihedral_table(m):
    """x^r y^f with y x = x^-1 y, as the index r + m f: not commutative."""
    k = np.arange(2 * m)
    r, f = k % m, k // m
    return ((r[:, None] + (1 - 2 * f[:, None]) * r) % m
            + m * (f[:, None] ^ f))


GROUPS = [cyclic_table(1), cyclic_table(2), cyclic_table(3), cyclic_table(5),
          np.bitwise_xor.outer(np.arange(4), np.arange(4)),
          np.bitwise_xor.outer(np.arange(8), np.arange(8)),
          dihedral_table(3), dihedral_table(4)]
HADAMARD = [gen_sylvester(2), gen_sylvester(3), gen_paley(11),
            gen_sylvester(4), gen_paley(19)]
# the edges of int8, int16 and int32, each side of them
EDGES = [127, -127, 128, -128, 32767, -32767, 32768, -32768, 2 ** 31 - 1,
         2 ** 31, -2 ** 31]


def inverse_tilde(table):
    """tilde = the inverse of each group element (0 is the unit)."""
    return tuple(int(np.flatnonzero(row == 0)[0]) for row in table)


@st.composite
def tensors(draw):
    """(N, tilde) in int64: a Hadamard ring (scrambled rows and columns
    signs included), f2_tensor, a group ring, a group ring scaled to an
    edge of a narrow dtype, or random commutative constants that fit int8
    and whose products do not; then maybe one constant moved,
    symmetrically or not."""
    kind = draw(st.sampled_from(["hadamard", "f2", "group", "edge",
                                 "random"]))
    if kind == "hadamard":
        a = draw(st.sampled_from(HADAMARD)).array
        n = len(a)
        rows = draw(st.permutations(range(n)))
        signs = np.array(draw(st.lists(st.sampled_from([-1, 1]),
                                       min_size=n, max_size=n)))
        H = normalize_hadamard(a[list(rows)] * signs)
        N, tilde = ring_from_hadamard(H).N.astype(np.int64), range(n)
    elif kind == "f2":
        N = f2_tensor(draw(st.integers(1, 4))).astype(np.int64)
        tilde = range(len(N))
    elif kind in ("group", "edge"):
        table = draw(st.sampled_from(GROUPS))
        N, tilde = group_tensor(table), inverse_tilde(table)
        if kind == "edge":
            N *= draw(st.sampled_from(EDGES))
    else:
        n = draw(st.integers(1, 4))
        N = np.array(draw(st.lists(st.integers(-63, 63), min_size=n ** 3,
                                   max_size=n ** 3)),
                     dtype=np.int64).reshape(n, n, n)
        N = N + N.transpose(1, 0, 2)
        tilde = range(n)
    n = len(N)
    if draw(st.booleans()):
        i, j, m = (draw(st.integers(0, n - 1)) for _ in range(3))
        step = draw(st.sampled_from([1, -1, 2, 100]))
        N[i, j, m] += step
        if draw(st.booleans()):
            N[j, i, m] = N[i, j, m]
    return N, tuple(tilde)


def outcome(fn):
    """A comparable form of fn(): its value with arrays as (dtype, list),
    CycNums formatted, or the type and message of what it raised."""
    try:
        return plain(fn())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def plain(x):
    if isinstance(x, np.ndarray):
        return str(x.dtype), x.tolist()
    if isinstance(x, (list, tuple)):
        return type(x)(plain(v) for v in x)
    if isinstance(x, set):
        return sorted(x)
    if hasattr(x, "entries"):                   # a VerifyReport
        return x.entries
    if hasattr(x, "coeffs"):                    # a CycNum
        return format_cyc(x)
    if hasattr(x, "tensor"):                    # a PointedAlgebra
        return plain(x.tensor), x.labels
    return x


def kernels(ring):
    """The kernels that read ring.N, each as a call without arguments."""
    N, n = ring.N, ring.n
    calls = {
        "verify_axioms": lambda: verify_axioms(ring),
        "identity_coefficients": lambda: identity_coefficients(ring),
        "assoc_witness": lambda: assoc_witness(N, None),
        "assoc_witness mod 2": lambda: assoc_witness(N, 2),
        "assoc_witness mod 7": lambda: assoc_witness(N, 7),
        "is_closed_subset": lambda: [is_closed_subset(ring, S) for S in (
            [0], [0, n - 1], range(0, n, 2))],
        "order2_quotient": lambda: [order2_quotient(ring, d)
                                    for d in range(n)],
        "character_signs": lambda: character_signs(ring),
    }
    try:
        k = hadamard_type(ring)
    except ValueError:
        return calls
    calls["split_pm p=3"] = lambda: split_pm(N, k, 3)
    if k <= 2 ** 10:                # the census counts up to k
        calls["multiset_census"] = lambda: multiset_census(ring)
    if n > 1:
        calls["wmatrix"] = lambda: wmatrix(ring, 1)
    return calls


def narrow_and_wide(N, tilde):
    n = len(N)
    narrow = N.astype(narrow_dtype(_maxabs(N)))
    assert np.array_equal(narrow, N)
    return (FusionRing(n, narrow, tilde),
            FusionRing(n, N.astype(np.int64), tilde))


@settings(max_examples=60, deadline=None)
@given(tensors())
def test_narrow_and_int64_agree(tensor):
    narrow, wide = narrow_and_wide(*tensor)
    a, b = kernels(narrow), kernels(wide)
    assert a.keys() == b.keys()
    for name in a:
        assert outcome(a[name]) == outcome(b[name]), name


@pytest.mark.parametrize("H", HADAMARD[1:], ids=["s8", "p12", "s16", "p20"])
def test_hadamard_rings_are_narrow_and_agree(H):
    # the kernels' own verdicts on the rings as built, not only on copies
    ring = ring_from_hadamard(H)
    assert ring.N.dtype == np.int8
    narrow, wide = narrow_and_wide(ring.N, ring.tilde)
    a, b = kernels(narrow), kernels(wide)
    assert "multiset_census" in a and "split_pm p=3" in a
    for name in a:
        assert outcome(a[name]) == outcome(b[name]), name
    assert verify_axioms(narrow).all_pass
    assert outcome(a["character_signs"])[0] == H.k


@pytest.mark.parametrize("c", EDGES)
def test_edges_overflow_narrow_arithmetic(c):
    # c * the Z/5 group law: products of two constants pass every narrow
    # dtype, the scan's sums c^2 * 5 pass 2^24 from c = 2^11 on
    N = group_tensor(cyclic_table(5)) * c
    narrow, wide = narrow_and_wide(N, inverse_tilde(cyclic_table(5)))
    assert narrow.N.dtype == narrow_dtype(abs(c))
    for bad in (None, (1, 2, 4)):
        if bad:
            for R in (narrow, wide):
                R.N[bad] = R.N[bad[1], bad[0], bad[2]] = c // 2
        a, b = kernels(narrow), kernels(wide)
        for name in a:
            assert outcome(a[name]) == outcome(b[name]), name
