import numpy as np
import pytest

from dense_reference import (
    bures_fidelity,
    fidelity_rank_bound,
    generic_cost,
    lowest_eigenvalue_every_step,
    pauli_word_matrix,
    product_rank,
    projector_zero,
    qae_cost,
    qsl_cost,
)
from localrange import costs
from localrange.costs import Observable, heisenberg, qae_hamiltonian, qsl_hamiltonian
from localrange.haar import haar_random_unitary
from localrange.linalg import (
    MAX_DIM,
    BipartitePartition,
    DimensionError,
    partial_trace,
    random_density,
    random_hermitian,
    random_pure_state,
    spectral_width,
)


def test_generic_cost_basic():
    rho = np.diag([1.0, 0.0]).astype(complex)
    assert generic_cost(pauli_word_matrix("Z"), rho, np.eye(2)) == pytest.approx(1.0)
    assert generic_cost(pauli_word_matrix("Z"), rho, pauli_word_matrix("X")) == pytest.approx(-1.0)


def test_generic_cost_global_phase_invariant():
    rng = np.random.default_rng(8)
    h = random_hermitian(4, rng)
    rho = random_density(4, rng)
    u = haar_random_unitary(4, rng)
    assert generic_cost(h, rho, u) == pytest.approx(
        generic_cost(h, rho, np.exp(0.7j) * u), abs=1e-12
    )


def test_generic_cost_dim_mismatch():
    with pytest.raises(DimensionError):
        generic_cost(np.eye(2), np.eye(4) / 4, np.eye(4))


class TestHeisenberg:
    def test_n2_periodic_double_counts_the_bond(self):
        h = heisenberg(2, periodic=True)
        expected = 2 * (
            pauli_word_matrix("XX") + pauli_word_matrix("YY") + pauli_word_matrix("ZZ")
        )
        assert np.allclose(h, expected)
        assert spectral_width(h) == pytest.approx(8.0)

    def test_n2_open(self):
        h = heisenberg(2, periodic=False)
        expected = pauli_word_matrix("XX") + pauli_word_matrix("YY") + pauli_word_matrix("ZZ")
        assert np.allclose(h, expected)

    def test_traceless_and_hermitian(self):
        h = np.asarray(heisenberg(5))
        assert abs(np.trace(h)) < 1e-10
        assert np.allclose(h, h.conj().T)

    def test_ground_energy_n4_ring(self):
        # 4-site ring ground energy is -8 in these units (coupling 1 per bond)
        h = heisenberg(4, periodic=True)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-8.0, abs=1e-9)

    def test_too_small(self):
        with pytest.raises(ValueError):
            heisenberg(1)


def _observables(n):
    rng = np.random.default_rng(n)
    e0 = np.zeros(2**n)
    e0[0] = 1.0
    return {
        "heisenberg_periodic": heisenberg(n, periodic=True),
        "heisenberg_open": heisenberg(n, periodic=False),
        "qae_last": qae_hamiltonian(n, (n - 1,)),
        "qae_pair": qae_hamiltonian(n, (0, n - 1)),
        "qsl_e0": qsl_hamiltonian(e0),
        "qsl_random": qsl_hamiltonian(random_pure_state(2**n, rng)),
    }


class TestObservable:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_apply_matches_dense_matrix(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=(2**n, 5)) + 1j * rng.normal(size=(2**n, 5))
        for name, h in _observables(n).items():
            assert isinstance(h, Observable)
            dense = np.asarray(h)
            assert dense.shape == (2**n, 2**n)
            assert np.allclose(h.apply(x), dense @ x, rtol=0.0, atol=1e-12), name
            assert np.allclose(h.apply(x[:, 0]), dense @ x[:, 0], rtol=0.0, atol=1e-12), name
            ev = np.linalg.eigvalsh(dense)
            assert spectral_width(h) == pytest.approx(ev[-1] - ev[0], rel=1e-12, abs=0.0), name

    def test_dense_forms_match_pauli_sums(self):
        n = 4
        for periodic in (True, False):
            want = np.zeros((16, 16), dtype=complex)
            bonds = range(n) if periodic else range(n - 1)
            for i in bonds:
                j = (i + 1) % n
                for axis in "XYZ":
                    want += pauli_word_matrix("".join(axis if q in (i, j) else "I" for q in range(n)))
            assert np.allclose(np.asarray(heisenberg(n, periodic)), want, rtol=0.0, atol=1e-14)
        phi = random_pure_state(16, np.random.default_rng(3))
        assert np.allclose(np.asarray(qsl_hamiltonian(phi)), np.eye(16) - np.outer(phi, phi.conj()))

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("periodic", [True, False])
    def test_lanczos_width_matches_dense_eigh(self, n, periodic):
        h = heisenberg(n, periodic)
        ev = np.linalg.eigvalsh(np.asarray(h))
        assert spectral_width(h) == pytest.approx(ev[-1] - ev[0], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [12, 14, 16])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_lanczos_width_matches_arpack(self, n, periodic):
        # above linalg.MAX_DIM no dense oracle exists; ARPACK is the reference
        from scipy.sparse.linalg import LinearOperator, eigsh

        h = heisenberg(n, periodic)
        d = 2**n
        op = LinearOperator((d, d), matvec=h.apply, dtype=float)
        v0 = np.random.default_rng(n).standard_normal(d)
        lam = eigsh(op, k=1, which="SA", tol=0, v0=v0, return_eigenvectors=False)[0]
        assert spectral_width(h) == pytest.approx(len(h.data) - lam, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("periodic", [True, False])
    def test_lanczos_stops_when_the_krylov_space_is_exhausted(self, monkeypatch, periodic):
        # at n = 2, H = k (2 SWAP - I) has two eigenvalues, so beta_2 = 0 up to roundoff
        calls = []
        apply = Observable.apply

        def counted(self, x):
            calls.append(x.shape)
            return apply(self, x)

        monkeypatch.setattr(Observable, "apply", counted)
        h = heisenberg(2, periodic)
        k = len(h.data)
        assert costs._lowest_eigenvalue(h) == pytest.approx(-3.0 * k, rel=1e-14, abs=0.0)
        assert len(calls) == 2
        assert spectral_width(h) == pytest.approx(4.0 * k, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("periodic", [True, False])
    def test_lanczos_matches_the_every_step_oracle(self, monkeypatch, n, periodic):
        # testing convergence every few steps returns theta_0 of the first step the
        # every-step loop accepts, bit for bit, with a quarter of its eigh calls
        h = heisenberg(n, periodic)
        want, steps = lowest_eigenvalue_every_step(h)
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert costs._lowest_eigenvalue(h) == want
        assert len(calls) <= steps // costs.LANCZOS_CHECK_EVERY + 4

    @pytest.mark.parametrize("n,periodic", [(8, True), (6, True), (5, False)])  # 33, 13, 10 steps
    def test_lanczos_tests_the_cap_step(self, monkeypatch, n, periodic):
        # a chain that converges exactly at the step cap still returns, one step
        # fewer raises
        h = heisenberg(n, periodic)
        want, steps = lowest_eigenvalue_every_step(h)
        assert steps % costs.LANCZOS_CHECK_EVERY, "the cap must not be a regular check step"
        monkeypatch.setattr(costs, "LANCZOS_MAX_STEPS", steps)
        assert costs._lowest_eigenvalue(h) == want
        monkeypatch.setattr(costs, "LANCZOS_MAX_STEPS", steps - 1)
        with pytest.raises(costs.ConvergenceError):
            costs._lowest_eigenvalue(h)

    def test_projector_widths_are_exactly_one(self):
        e0 = np.zeros(2**6)
        e0[0] = 1.0
        assert spectral_width(qsl_hamiltonian(e0)) == 1.0
        assert spectral_width(qae_hamiltonian(6, (5,))) == 1.0

    def test_apply_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            heisenberg(3).apply(np.ones(4))
        with pytest.raises(DimensionError):
            qae_hamiltonian(3, (2,)).apply(np.ones((4, 2)))

    def test_dense_form_refused_above_max_dim(self):
        n = MAX_DIM.bit_length()  # 2^n = 2 * MAX_DIM
        with pytest.raises(DimensionError):
            np.asarray(heisenberg(n))

    def test_qsl_target_must_be_a_register_state(self):
        with pytest.raises(DimensionError):
            qsl_hamiltonian(np.ones(3) / np.sqrt(3))


class TestQae:
    def test_hamiltonian_structure(self):
        h = qae_hamiltonian(3, (2,))
        assert np.allclose(h, np.eye(8) - projector_zero(3, (2,)))
        assert spectral_width(h) == pytest.approx(1.0)

    def test_cost_zero_when_already_compressed(self):
        # input with last qubit in |0>: identity circuit compresses perfectly
        psi = np.kron(random_pure_state(4, np.random.default_rng(0)), [1.0, 0.0])
        rho = np.outer(psi, psi.conj())
        assert qae_cost(np.eye(8), rho, (2,)) == pytest.approx(0.0, abs=1e-12)

    def test_cost_is_discard_failure_probability(self):
        rng = np.random.default_rng(1)
        psi = random_pure_state(8, rng)
        rho = np.outer(psi, psi.conj())
        u = haar_random_unitary(8, rng)
        part = BipartitePartition(3, (2,))
        red = partial_trace(u @ rho @ u.conj().T, part, "B")
        assert qae_cost(u, rho, (2,)) == pytest.approx(1.0 - red[0, 0].real, abs=1e-10)

    def test_invalid_register(self):
        with pytest.raises(ValueError):
            qae_hamiltonian(3, ())
        with pytest.raises(ValueError):
            qae_hamiltonian(3, (4,))


class TestQsl:
    def test_perfect_overlap(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        assert qsl_cost(np.eye(4), e0, e0) == pytest.approx(0.0)

    def test_orthogonal(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        x = pauli_word_matrix("XI")
        assert qsl_cost(x, e0, e0) == pytest.approx(1.0)

    def test_hamiltonian_matches_cost(self):
        rng = np.random.default_rng(2)
        psi, phi = random_pure_state(4, rng), random_pure_state(4, rng)
        u = haar_random_unitary(4, rng)
        h = qsl_hamiltonian(phi)
        rho = np.outer(psi, psi.conj())
        assert qsl_cost(u, psi, phi) == pytest.approx(generic_cost(h, rho, u), abs=1e-10)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            qsl_cost(np.eye(2), np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestBuresFidelity:
    def test_identical_states(self):
        rho = random_density(4, np.random.default_rng(3))
        assert bures_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_pure_states_overlap(self):
        rng = np.random.default_rng(4)
        a, b = random_pure_state(4, rng), random_pure_state(4, rng)
        ra, rb = np.outer(a, a.conj()), np.outer(b, b.conj())
        assert bures_fidelity(ra, rb) == pytest.approx(abs(a.conj() @ b) ** 2, abs=1e-7)

    def test_orthogonal_pure(self):
        assert bures_fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(5)
        a, b = random_density(4, rng), random_density(4, rng)
        assert bures_fidelity(a, b) == pytest.approx(bures_fidelity(b, a), abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            bures_fidelity(np.array([[0, 1], [0, 0]]), np.eye(2) / 2)

    def test_rejects_fidelity_above_one(self):
        # unnormalized states: (tr sqrt(sqrt(I) I sqrt(I)))^2 = 4
        with pytest.raises(ValueError, match="exceeds 1"):
            bures_fidelity(np.eye(2), np.eye(2))

    def test_rounding_above_one_is_clipped(self):
        rho = np.diag([1.0 + 1e-12, 0.0])
        assert bures_fidelity(rho, rho) == 1.0


def test_fidelity_rank_bound_100_random_pairs():
    # F(rho, sigma) <= rank(rho sigma) * tr(rho sigma) on random density pairs
    rng = np.random.default_rng(6)
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rank = int(rng.integers(1, d + 1))
        rho = random_density(d, rng, rank=rank)
        sigma = random_density(d, rng)
        f = bures_fidelity(rho, sigma)
        # saturated at rank 1, where the fidelity itself carries ~1e-8 eig noise
        assert f <= fidelity_rank_bound(rho, sigma) + 1e-7


def test_fidelity_partial_trace_monotonicity_100_pairs():
    # tracing out a subsystem never decreases fidelity
    rng = np.random.default_rng(7)
    part = BipartitePartition(2, (0,))
    for _ in range(100):
        rho = random_density(4, rng)
        sigma = random_density(4, rng)
        f_full = bures_fidelity(rho, sigma)
        f_red = bures_fidelity(partial_trace(rho, part, "B"), partial_trace(sigma, part, "B"))
        assert f_red >= f_full - 1e-9


def test_product_rank():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    sigma = np.eye(4) / 4
    assert product_rank(rho, sigma) == 2
    assert product_rank(np.zeros((4, 4)), sigma) == 0
