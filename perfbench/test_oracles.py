"""Tests of the benchmark's oracles on cases known by hand.

    python3 -m pytest perfbench -q
"""

from random import Random

import numpy as np
import pytest

from oracles import (CheckError, a1_fusion, check_lift, census, cyc_value,
                     gf2_rank, group_elements, group_law_tensor, is_closed,
                     is_hadamard, is_subgroup, negation, normalize_full,
                     paley, parse_lift, parse_ring, profile_counts,
                     rational_supports, ring_tensor, scramble, sylvester,
                     triangular_partitions)


def test_paley_order_4():
    # q = 3, residues {1}: I + C has rows [1,1,1,1], [-1,1,1,-1],
    # [-1,-1,1,1], [-1,1,-1,1], then rows are scaled by their first entry
    assert paley(3) == [[1, 1, 1, 1], [1, -1, -1, 1],
                        [1, 1, -1, -1], [1, -1, 1, -1]]


def test_sylvester_order_4():
    assert sylvester(2) == [[1, 1, 1, 1], [1, -1, 1, -1],
                            [1, 1, -1, -1], [1, -1, -1, 1]]


@pytest.mark.parametrize("H", [paley(11), paley(19), sylvester(4)])
def test_constructions_are_hadamard(H):
    assert is_hadamard(H)
    assert all(r[0] == 1 for r in H)


def test_paley_rejects_bad_q():
    with pytest.raises(ValueError):
        paley(13)


def test_scramble_keeps_hadamard():
    assert is_hadamard(scramble(paley(11), Random(5)))
    full = normalize_full(scramble(paley(11), Random(5)))
    assert full[0] == [1] * 12 and all(r[0] == 1 for r in full)


def test_ring_tensor_order_4_is_klein_group():
    # H_4 = character table of Z/2 x Z/2 with k = 1: the group law by XOR
    N = ring_tensor(sylvester(2))
    for i in range(4):
        for j in range(4):
            assert list(N[i, j]) == [int(m == i ^ j) for m in range(4)]


def test_ring_tensor_diagonal_is_k_b0():
    N = ring_tensor(paley(11))
    assert all(list(N[i, i]) == [3] + [0] * 11 for i in range(12))


def test_group_law_and_negation_z4():
    elems = group_elements((4,))
    N = group_law_tensor((4,), elems)
    assert N[1, 3, 0] == 1 and N[2, 3, 1] == 1 and N[1, 1, 3] == 0
    assert negation((4,), elems) == [0, 3, 2, 1]


def test_group_law_follows_labels():
    elems = [(2,), (0,), (1,)]
    N = group_law_tensor((3,), elems)
    # (2) + (2) = (1), at position 2
    assert N[0, 0, 2] == 1 and N.sum() == 9
    assert negation((3,), elems) == [2, 1, 0]


def test_subgroups():
    elems = group_elements((2, 2))
    assert is_subgroup((2, 2), elems, [0, 1])
    assert not is_subgroup((2, 2), elems, [0, 1, 2])


def test_a1_fusion_level_2_is_ising():
    N = a1_fusion(2)
    # 1 x 1 = 0 + 2, 1 x 2 = 1, 2 x 2 = 0
    assert list(N[1, 1]) == [1, 0, 1]
    assert list(N[1, 2]) == [0, 1, 0]
    assert list(N[2, 2]) == [1, 0, 0]
    assert is_closed(N, [0, 2]) and not is_closed(N, [0, 1])


def test_a1_fusion_level_1_is_z2():
    N = a1_fusion(1)
    assert list(N[1, 1]) == [1, 0]


def test_gf2_rank():
    assert gf2_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert gf2_rank([[1, 1], [1, 1]]) == 1
    assert gf2_rank([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert gf2_rank([[0, 0], [0, 0]]) == 0


def test_profile_order_4():
    # one 4-subset; the product of the four columns of H_4 is all ones
    assert profile_counts(sylvester(2)) == {4: 1}


def test_profile_order_8():
    # C(8,4) = 70 subsets; the 14 with a product column of all ones give 8
    assert profile_counts(sylvester(3)) == {0: 56, 8: 14}


def test_census_klein_group():
    # k = 1: N_12^3 = 1 and no other m outside {0, i, j}
    assert census(ring_tensor(sylvester(2))) == {(1,)}


def test_triangular_partitions():
    # targets T_0 = 0, T_1 = 1, T_2 = 3 (3, 1+1+1), T_3 = 6 (6, 3+3,
    # 3+1+1+1, 1*6)
    assert [triangular_partitions(k) for k in (3, 5, 7, 9)] == [1, 1, 2, 4]


def test_rational_supports():
    # columns of the Z/2 table: col1 * col1 = col0
    support = rational_supports([[1, 1], [1, -1]])
    assert support(1, 1) == {0} and support(0, 1) == {1}
    # a non-integral decomposition still has a support
    support = rational_supports([[2, 1], [0, 1]])
    assert support(0, 0) == {0}


def test_cyc_value():
    assert cyc_value("z4^1") == pytest.approx(1j)
    assert cyc_value("-1/2") == pytest.approx(-0.5)
    assert cyc_value("1+z3^1") == pytest.approx(0.5 + 0.8660254037844386j)
    assert cyc_value("-2*z6^1-z6^0") == pytest.approx(-2 - 1.7320508j)


def test_parse_ring_without_involution():
    text = "zbrng 1\nn 1\nN 0\n1\nclass 0 0 1\n"
    N, tilde, rest = parse_ring(text)
    assert N.shape == (1, 1, 1) and tilde is None and rest == ["class 0 0 1"]


def _z4_lift(monomial):
    """Z/4 is its own lift: H = {x_0..x_3}, mu = 1, E the identity."""
    lines = ["zbrng-monomial 1" if monomial else "zbrng 1", "n 4"]
    for i in range(4):
        if monomial:
            lines.append(" ".join("%d:1" % ((i + j) % 4) for j in range(4)))
        else:
            lines.append("N %d" % i)
            lines += [" ".join(str(int(t == (i + j) % 4)) for t in range(4))
                      for j in range(4)]
    return "\n".join(lines + ["distinguished 0 1 2 3"]) + "\n"


Z4 = group_law_tensor((4,), group_elements((4,)))


@pytest.mark.parametrize("monomial", [False, True])
def test_lift_law_z4(monomial):
    lift = parse_lift(_z4_lift(monomial))
    assert lift["m"] == 4 and lift["ideal"] == []
    check_lift(lift, Z4, Random(0), 16)


@pytest.mark.parametrize("monomial", [False, True])
def test_lift_law_rejects_wrong_target(monomial):
    # the same lift does not present Z/2 x Z/2
    klein = group_law_tensor((2, 2), group_elements((2, 2)))
    with pytest.raises(CheckError):
        check_lift(parse_lift(_z4_lift(monomial)), klein, Random(0), 16)


def test_lift_law_rejects_negative_constant():
    text = _z4_lift(True).replace("0:1 1:1", "0:-1 1:1", 1)
    with pytest.raises(CheckError):
        check_lift(parse_lift(text), Z4, Random(0), 16)


def test_lift_semigroup_bound():
    # n = 3 allows |H| <= 2; a lift with 4 elements is refused
    text = ("zbrng-monomial 1\nn 4\n" + "0:1 1:1 2:1 3:1\n" * 4
            + "distinguished 0 1 2\nw3 : 1 0 0\n")
    with pytest.raises(CheckError):
        check_lift(parse_lift(text), np.zeros((3, 3, 3), dtype=np.int64),
                   Random(0), 4)
