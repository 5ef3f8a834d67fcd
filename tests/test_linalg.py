from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import kron, kron_all, pauli_word_matrix
from localrange.linalg import (
    PAULI,
    BipartitePartition,
    DimensionError,
    check_density,
    eig_hermitian,
    partial_trace,
    random_density,
    random_hermitian,
    random_pure_state,
    spectral_width,
    to_a_first,
)


def test_pauli_algebra():
    assert np.allclose(PAULI["X"] @ PAULI["Y"], 1j * PAULI["Z"])
    for a in "XYZ":
        assert np.allclose(PAULI[a] @ PAULI[a], np.eye(2))
        assert np.trace(PAULI[a]) == 0


def test_density_checks():
    assert np.array_equal(check_density(np.diag([0.5, 0.5])), np.diag([0.5, 0.5]))
    for bad in (np.diag([0.7, 0.7]), np.diag([1.5, -0.5]), np.array([[0.5, 0.5], [0.0, 0.5]])):
        with pytest.raises(ValueError):
            check_density(bad)


def test_density_check_rejects_nonsquare():
    with pytest.raises(DimensionError):
        check_density(np.zeros((2, 3)))


class TestPartition:
    def test_dims(self):
        p = BipartitePartition(5, (1, 3))
        assert (p.m, p.d_A, p.d_B, p.d) == (2, 4, 8, 32)
        assert p.b_sites == (0, 2, 4)
        assert p.a_first == (1, 3, 0, 2, 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            BipartitePartition(3, ())
        with pytest.raises(ValueError):
            BipartitePartition(3, (0, 1, 2))
        with pytest.raises(ValueError):
            BipartitePartition(3, (0, 0))
        with pytest.raises(ValueError):
            BipartitePartition(3, (5,))


def test_kron_ordering():
    # qubit 0 is the most significant factor: Z x I is diag(1,1,-1,-1)
    assert np.allclose(kron(PAULI["Z"], PAULI["I"]), np.diag([1, 1, -1, -1]))
    assert np.allclose(pauli_word_matrix("IZ"), np.diag([1, -1, 1, -1]))


def test_kron_dimension_cap():
    # the check fires before np.kron allocates anything large
    with pytest.raises(DimensionError):
        kron(np.eye(2**7), np.eye(2**8))
    with pytest.raises(DimensionError):
        kron_all([np.eye(2**5)] * 3)


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    a = random_density(2, rng)
    b = random_density(4, rng)
    part = BipartitePartition(3, (0,))
    full = kron(a, b)
    assert np.allclose(partial_trace(full, part, "B"), a)
    assert np.allclose(partial_trace(full, part, "A"), b)


def test_partial_trace_noncontiguous():
    rng = np.random.default_rng(1)
    a = random_density(2, rng)
    b = random_density(2, rng)
    c = random_density(2, rng)
    full = kron(kron(a, b), c)
    part = BipartitePartition(3, (1,))
    assert np.allclose(partial_trace(full, part, "B"), b)
    assert np.allclose(partial_trace(full, part, "A"), kron(a, c))


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(2)
    m = random_hermitian(8, rng)
    part = BipartitePartition(3, (0, 2))
    assert np.isclose(np.trace(partial_trace(m, part, "B")), np.trace(m))


def test_partial_trace_bell_state():
    phi = np.zeros(4)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    rho = np.outer(phi, phi)
    part = BipartitePartition(2, (0,))
    assert np.allclose(partial_trace(rho, part, "B"), np.eye(2) / 2)


def test_partial_trace_trace_preserved_many():
    rng = np.random.default_rng(42)
    part = BipartitePartition(3, (0,))
    for _ in range(200):
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert abs(np.trace(partial_trace(m, part, "B")) - np.trace(m)) < 1e-10 * 64


def test_permute_qubits_swap():
    # A = qubit 1 leads: the factor on qubit 1 moves to the front
    part = BipartitePartition(2, (1,))
    assert np.allclose(to_a_first(pauli_word_matrix("XZ"), part, operator=True),
                       pauli_word_matrix("ZX"))


def test_permute_qubits_three_cycle():
    # a_first = (2, 0, 1): in that order the factors X, Y, Z sit on qubits 2, 0, 1
    part = BipartitePartition(3, (2,))
    out = to_a_first(pauli_word_matrix("XYZ"), part, operator=True, inverse=True)
    assert np.allclose(out, pauli_word_matrix("YZX"))
    assert np.allclose(to_a_first(out, part, operator=True), pauli_word_matrix("XYZ"))


def test_permute_rejects_bad_order():
    with pytest.raises(ValueError):
        to_a_first(np.eye(4), BipartitePartition(3, (0,)), operator=True)


@pytest.mark.parametrize("a_sites", [(0,), (2,), (1, 3), (3, 0)])
def test_to_a_first_on_state_blocks(a_sites):
    # a product state with its factors in label order, against them listed A first
    rng = np.random.default_rng(len(a_sites) + sum(a_sites))
    part = BipartitePartition(4, a_sites)
    factors = [random_pure_state(2, rng) for _ in range(4)]
    label = reduce(np.kron, factors)
    front = reduce(np.kron, [factors[q] for q in part.a_first])
    assert np.allclose(to_a_first(label, part), front)
    block = np.stack([label, 2 * label, label.conj()], axis=1)
    out = to_a_first(block, part)
    assert np.allclose(out[:, 1], 2 * front)
    assert np.array_equal(to_a_first(out, part, inverse=True), block)


def test_eig_hermitian_sorted_and_validates():
    w, v = eig_hermitian(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(w, [-1, 2, 3])
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]]))


def test_spectral_width():
    assert spectral_width(PAULI["Z"]) == pytest.approx(2.0)
    assert spectral_width(np.eye(4)) == pytest.approx(0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_random_density_is_a_state(seed, n):
    rho = random_density(2**n, np.random.default_rng(seed))
    check_density(rho)  # validates trace, hermiticity, positivity


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_partial_trace_of_density_is_density(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(16, rng)
    part = BipartitePartition(4, (0, 3))
    check_density(partial_trace(rho, part, "B"))
    check_density(partial_trace(rho, part, "A"))


def test_random_pure_state_normalized():
    psi = random_pure_state(8, np.random.default_rng(5))
    assert np.isclose(np.linalg.norm(psi), 1.0)

