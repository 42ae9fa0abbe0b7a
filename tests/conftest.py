import numpy as np
import pytest

from zbrng.generators import gen_paley, gen_sylvester, group_ring_smatrix
from zbrng.hadamard import ring_from_hadamard
from zbrng.rng_core import ring_from_tensor
from zbrng.spectra import involution_from_smatrix, verlinde_tensor


def ring_from_smatrix(s):
    return ring_from_tensor(s.n, verlinde_tensor(s).tensor,
                            involution_from_smatrix(s))


def a1_fusion_oracle(level):
    """Brute-force level-k A1 fusion rule: N_ab^c = 1 iff |a-b| <= c <=
    min(a+b, 2k-a-b) and a+b+c is even."""
    n = level + 1
    N = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (abs(a - b) <= c <= min(a + b, 2 * level - a - b)
                        and (a + b + c) % 2 == 0):
                    N[a, b, c] = 1
    return N


@pytest.fixture(scope="session")
def z3_ring():
    return ring_from_smatrix(group_ring_smatrix([3]))


@pytest.fixture(scope="session")
def z6_ring():
    return ring_from_smatrix(group_ring_smatrix([2, 3]))


@pytest.fixture(scope="session")
def paley12():
    return gen_paley(11)


@pytest.fixture(scope="session")
def paley12_ring(paley12):
    return ring_from_hadamard(paley12)


@pytest.fixture(scope="session")
def sylvester16():
    return gen_sylvester(4)


@pytest.fixture(scope="session")
def sylvester16_ring(sylvester16):
    return ring_from_hadamard(sylvester16)
