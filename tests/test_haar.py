import numpy as np
import pytest

from dense_reference import first_moment_twirl
from localrange.haar import (
    average_reduced_purity,
    haar_random_unitary,
    mc_reduced_purity,
    mc_second_moment,
    second_moment_contracted,
    second_moment_reduced_norm,
)
from localrange.linalg import (
    BipartitePartition,
    DimensionError,
    random_density,
    random_hermitian,
    random_pure_state,
)


class TestHaarSampling:
    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for d in (2, 5, 8):
            u = haar_random_unitary(d, rng)
            assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-10)

    def test_batched(self):
        rng = np.random.default_rng(1)
        us = haar_random_unitary(4, rng, size=7)
        assert us.shape == (7, 4, 4)
        for u in us:
            assert np.allclose(u @ u.conj().T, np.eye(4), atol=1e-10)

    def test_left_invariance_of_first_moment(self):
        # E[U] = 0 for Haar; sample mean of entries should shrink
        rng = np.random.default_rng(2)
        us = haar_random_unitary(3, rng, size=4000)
        assert np.max(np.abs(us.mean(axis=0))) < 0.05

    def test_first_moment_twirl_mc(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(4, rng)
        us = haar_random_unitary(4, rng, size=3000)
        avg = np.einsum("kab,bc,kdc->ad", us, a, us.conj()) / len(us)
        assert np.max(np.abs(avg - first_moment_twirl(a))) < 0.1

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, np.random.default_rng(0))


class TestMomentOperators:
    def test_dim_mismatch(self):
        part = BipartitePartition(3, (0,))
        for moment in (second_moment_reduced_norm, second_moment_contracted):
            with pytest.raises(DimensionError):
                moment(np.eye(4), np.eye(8), part)
        with pytest.raises(DimensionError):
            mc_second_moment(np.eye(8), np.eye(4), part, samples=100, seed=0)


@pytest.mark.parametrize("n,a_sites", [(2, (0,)), (3, (0,)), (4, (0, 1)), (4, (1, 3))])
def test_two_closed_form_paths_agree(n, a_sites):
    rng = np.random.default_rng(10 + n)
    part = BipartitePartition(n, a_sites)
    p, q = random_density(part.d, rng), random_hermitian(part.d, rng)
    closed = second_moment_reduced_norm(p, q, part)
    contracted = second_moment_contracted(p, q, part)
    assert closed == pytest.approx(contracted, abs=1e-12 * max(1.0, abs(closed)))


def test_second_moment_identity_p():
    # P = I makes V P V+ deterministic; the moment reduces to ||tr_B Q||^2
    rng = np.random.default_rng(5)
    part = BipartitePartition(3, (0,))
    q = random_hermitian(8, rng)
    from localrange.linalg import partial_trace

    expected = float(np.linalg.norm(partial_trace(q, part, "B"))) ** 2
    assert second_moment_reduced_norm(np.eye(8), q, part) == pytest.approx(expected, rel=1e-12)


def test_second_moment_vs_mc():
    rng = np.random.default_rng(6)
    part = BipartitePartition(3, (0,))
    p, q = random_density(8, rng), random_hermitian(8, rng)
    closed = second_moment_reduced_norm(p, q, part)
    mean, stderr = mc_second_moment(p, q, part, samples=4000, seed=17)
    assert abs(mean - closed) <= 3 * stderr


def test_second_moment_identity_tensor_z():
    # Q = I (x) Z with a pure input on two qubits gives exactly 2/5
    rng = np.random.default_rng(60)
    part = BipartitePartition(2, (0,))
    psi = random_pure_state(4, rng)
    q = np.kron(np.eye(2), np.diag([1.0, -1.0])).astype(complex)
    assert second_moment_reduced_norm(np.outer(psi, psi.conj()), q, part) == pytest.approx(0.4, abs=1e-12)


def test_second_moment_traceless_product_form():
    # for traceless P and Q = O_A (x) O_B the closed form collapses to
    # |O_A|^2 |P|^2 (d_A |O_B|^2 - |tr O_B|^2 / d) / (d^2 - 1)
    rng = np.random.default_rng(61)
    part = BipartitePartition(3, (0,))
    d = part.d
    p = random_hermitian(d, rng)
    p -= np.trace(p) / d * np.eye(d)
    o_a = random_hermitian(2, rng)
    o_b = random_hermitian(4, rng)
    norm2 = lambda m: np.sum(np.abs(m) ** 2)
    expected = (
        norm2(o_a)
        * norm2(p)
        * (part.d_A * norm2(o_b) - abs(np.trace(o_b)) ** 2 / d)
        / (d**2 - 1)
    )
    assert second_moment_reduced_norm(p, np.kron(o_a, o_b), part) == pytest.approx(expected, abs=1e-12)


def test_mc_zero_observable():
    part = BipartitePartition(2, (0,))
    rho = np.diag([1.0, 0, 0, 0]).astype(complex)
    assert mc_second_moment(rho, np.zeros((4, 4)), part, samples=200, seed=3) == (0.0, 0.0)


def test_haar_entry_second_moment():
    # E[|V_00|^2] = 1/d for a Haar unitary
    rng = np.random.default_rng(62)
    vals = np.abs(haar_random_unitary(4, rng, size=10_000)[:, 0, 0]) ** 2
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 0.25) <= 5 * stderr


class TestReducedPurity:
    def test_pure_two_qubits_exact(self):
        # pure state, d_A = d_B = 2: closed form gives (2+2)/(2*2+1) = 0.8
        psi = random_pure_state(4, np.random.default_rng(7))
        rho = np.outer(psi, psi.conj())
        part = BipartitePartition(2, (0,))
        assert average_reduced_purity(rho, part) == pytest.approx(0.8, abs=1e-12)

    def test_pure_asymmetric_split(self):
        rng = np.random.default_rng(63)
        psi = random_pure_state(16, rng)
        part = BipartitePartition(4, (0,))
        val = average_reduced_purity(np.outer(psi, psi.conj()), part)
        assert val == pytest.approx(10 / 17, abs=1e-12)

    def test_maximally_mixed(self):
        part = BipartitePartition(2, (0,))
        val = average_reduced_purity(np.eye(4) / 4, part)
        # rho_A = I/2 for every V: purity exactly 1/2
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_mc_agreement(self):
        rng = np.random.default_rng(8)
        rho = random_density(8, rng)
        part = BipartitePartition(3, (0,))
        closed = average_reduced_purity(rho, part)
        mean, stderr = mc_reduced_purity(rho, part, samples=2000, seed=23)
        assert abs(mean - closed) <= 3 * stderr

    def test_rejects_non_density(self):
        part = BipartitePartition(2, (0,))
        with pytest.raises(ValueError):
            average_reduced_purity(np.eye(4), part)


def test_mc_estimate_validation():
    part = BipartitePartition(2, (0,))
    with pytest.raises(ValueError):
        mc_second_moment(np.eye(4) / 4, np.eye(4), part, samples=10, seed=0)


def test_mc_deterministic_in_seed():
    rng = np.random.default_rng(9)
    part = BipartitePartition(2, (0,))
    p, q = random_density(4, rng), random_hermitian(4, rng)
    a = mc_second_moment(p, q, part, samples=200, seed=4)
    b = mc_second_moment(p, q, part, samples=200, seed=4)
    assert a == b
