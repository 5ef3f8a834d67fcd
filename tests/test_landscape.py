import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference
from dense_reference import (
    AdamConfig,
    assemble,
    certificate,
    coupling_rank,
    generic_cost,
    pauli_word_matrix,
    procrustes_range_m1,
    restricted_m1_range,
    tight_bound,
    transfer_tensor_dense,
    variation_range_adam,
)
from localrange import harness, landscape
from localrange.circuits import (
    CircuitEnsemble,
    GateProgram,
    GateSpec,
    euler_zyz,
    local_unitary,
    sample_circuit,
)
from localrange.costs import Observable, heisenberg, qae_hamiltonian, qsl_hamiltonian
from localrange.haar import haar_random_unitary
from localrange.landscape import (
    BoundViolation,
    ParameterizedCircuit,
    coupling_ranks,
    delta_mu,
    markov_tail,
    parameter_shift_derivative,
    qsl_bound,
    quaternion_form,
    task_tight_bound,
    telescoping_bound_check,
    theorem1_bound,
    tight_bound_formula,
    transfer_tensor,
    variance_bound,
    variation_range_exact_m1,
    variation_range_grid,
    variation_range_polar,
)
from localrange.linalg import (
    PAULI,
    BipartitePartition,
    DimensionError,
    random_density,
    random_hermitian,
    random_pure_state,
    spectral_width,
)


def random_instance(n, rng, a_sites=(0,)):
    part = BipartitePartition(n, a_sites)
    h = random_hermitian(part.d, rng)
    rho = random_density(part.d, rng)
    v1 = haar_random_unitary(part.d, rng)
    v2 = haar_random_unitary(part.d, rng)
    return h, rho, v1, v2, part


class TestTransferTensor:
    def test_trivial_x_flip(self):
        # H = Z x I, rho = |00><00|: flipping qubit 0 gives -1
        e0 = np.zeros(4)
        e0[0] = 1.0
        part = BipartitePartition(2, (0,))
        t = transfer_tensor(pauli_word_matrix("ZI"), e0, None, None, part)
        assert t.evaluate(PAULI["X"]) == pytest.approx(-1.0)
        assert t.evaluate(np.eye(2)) == pytest.approx(1.0)

    def test_identity_reproduces_direct_cost(self):
        rng = np.random.default_rng(0)
        h, rho, v1, v2, part = random_instance(3, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        direct = generic_cost(h, rho, v2 @ v1)
        assert t.evaluate(np.eye(2)) == pytest.approx(direct, abs=1e-10)

    def test_matches_direct_cost_for_random_gates(self):
        rng = np.random.default_rng(1)
        h, rho, v1, v2, part = random_instance(4, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        for _ in range(50):
            ua = haar_random_unitary(2, rng)
            direct = generic_cost(h, rho, assemble(v1, ua, v2, part))
            assert t.evaluate(ua) == pytest.approx(direct, abs=1e-9)

    def test_state_vector_input(self):
        rng = np.random.default_rng(2)
        part = BipartitePartition(3, (0,))
        h = random_hermitian(8, rng)
        psi = random_pure_state(8, rng)
        v1 = haar_random_unitary(8, rng)
        t_vec = transfer_tensor(h, psi, v1, None, part)
        t_mat = transfer_tensor(h, np.outer(psi, psi.conj()), v1, None, part)
        assert np.allclose(t_vec.tensor, t_mat.tensor, atol=1e-12)

    def test_noncontiguous_subsystem(self):
        rng = np.random.default_rng(3)
        h, rho, v1, v2, part = random_instance(4, rng, a_sites=(2,))
        t = transfer_tensor(h, rho, v1, v2, part)
        ua = haar_random_unitary(2, rng)
        direct = generic_cost(h, rho, assemble(v1, ua, v2, part))
        assert t.evaluate(ua) == pytest.approx(direct, abs=1e-9)

    def test_two_qubit_subsystem(self):
        rng = np.random.default_rng(4)
        h, rho, v1, v2, part = random_instance(4, rng, a_sites=(0, 1))
        t = transfer_tensor(h, rho, v1, v2, part)
        ua = haar_random_unitary(4, rng)
        direct = generic_cost(h, rho, assemble(v1, ua, v2, part))
        assert t.evaluate(ua) == pytest.approx(direct, abs=1e-9)

    def test_as_matrix_shape(self):
        rng = np.random.default_rng(5)
        h, rho, v1, v2, part = random_instance(3, rng)
        assert transfer_tensor(h, rho, v1, v2, part).matrix.shape == (4, 4)

    @pytest.mark.parametrize("a_sites", [(0,), (0, 1)])
    def test_non_hermitian_form_raises_at_construction(self, a_sites):
        # no solver (exact, grid or polar, m = 1 or 2) can be handed a non-Hermitian form
        rng = np.random.default_rng(18)
        h, rho, v1, v2, part = random_instance(3, rng, a_sites=a_sites)
        with pytest.raises(ValueError, match="not Hermitian"):
            transfer_tensor(h + 1j * random_hermitian(part.d, rng), rho, v1, v2, part)
        m = transfer_tensor(h, rho, v1, v2, part).matrix
        with pytest.raises(ValueError, match="not Hermitian"):
            landscape.TransferTensor(part, m + 1e-6 * max(1.0, np.abs(m).max()) * np.triu(np.ones_like(m), 1))

    def test_matrix_is_read_only_and_tensor_views_it(self):
        rng = np.random.default_rng(19)
        h, rho, v1, v2, part = random_instance(3, rng, a_sites=(1, 2))
        t = transfer_tensor(h, rho, v1, v2, part)
        assert t.matrix.shape == (16, 16) and t.tensor.shape == (4, 4, 4, 4)
        assert np.shares_memory(t.tensor, t.matrix)
        for a in (t.matrix, t.tensor):
            with pytest.raises(ValueError):
                a[0, 0] = 0
        with pytest.raises(DimensionError):
            landscape.TransferTensor(part, t.tensor)

    @pytest.mark.parametrize("a_sites", [(1,), (0, 2)])
    def test_batched_evaluate_matches_per_gate_and_dense(self, a_sites):
        rng = np.random.default_rng(20)
        h, rho, v1, v2, part = random_instance(3, rng, a_sites=a_sites)
        t = transfer_tensor(h, rho, v1, v2, part)
        us = np.stack([haar_random_unitary(part.d_A, rng) for _ in range(6)]).reshape(2, 3, part.d_A, part.d_A)
        vals = t.evaluate(us)
        assert vals.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert isinstance(t.evaluate(us[idx]), float)
            assert vals[idx] == pytest.approx(t.evaluate(us[idx]), abs=1e-12)
            assert vals[idx] == pytest.approx(generic_cost(h, rho, assemble(v1, us[idx], v2, part)), abs=1e-9)
        with pytest.raises(DimensionError):
            t.evaluate(np.eye(2 * part.d_A))

    def test_dim_mismatch(self):
        part = BipartitePartition(3, (0,))
        with pytest.raises(DimensionError):
            transfer_tensor(np.eye(4), np.eye(8) / 8, None, None, part)
        with pytest.raises(DimensionError):
            transfer_tensor(heisenberg(2), np.eye(8) / 8, None, None, part)

    @pytest.mark.parametrize("n,a_sites", [(4, (0,)), (6, (2,)), (6, (1, 3)), (7, (0,))])
    def test_observable_matches_dense_h(self, n, a_sites):
        rng = np.random.default_rng(40 + n)
        part = BipartitePartition(n, a_sites)
        ens = CircuitEnsemble("hardware_efficient", n, layers=3)
        v1, v2 = sample_circuit(ens, rng), sample_circuit(ens, rng)
        open_chain = Observable(n, "swaps", tuple((i, i + 1) for i in range(n - 1)))
        observables = (heisenberg(n), open_chain, qae_hamiltonian(n), qsl_hamiltonian(n))
        for h in observables:
            for rho in (random_pure_state(part.d, rng), random_density(part.d, rng, rank=2)):
                got = transfer_tensor(h, rho, v1, v2, part).tensor
                want = transfer_tensor(np.asarray(h), rho, v1, v2, part).tensor
                assert np.allclose(got, want, rtol=0.0, atol=1e-12), h.kind


class TestExactOracle:
    def test_insensitive_cost_gives_zero(self):
        # H = I x Z is untouched by a gate on qubit 0
        e0 = np.zeros(4)
        e0[0] = 1.0
        part = BipartitePartition(2, (0,))
        t = transfer_tensor(pauli_word_matrix("IZ"), e0, None, None, part)
        res = variation_range_exact_m1(t)
        assert res.delta == pytest.approx(0.0, abs=1e-12)
        assert res.degenerate

    def test_bloch_poles(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        part = BipartitePartition(2, (0,))
        t = transfer_tensor(pauli_word_matrix("ZI"), e0, None, None, part)
        res = variation_range_exact_m1(t)
        assert res.max_value == pytest.approx(1.0, abs=1e-12)
        assert res.min_value == pytest.approx(-1.0, abs=1e-12)
        assert res.delta == pytest.approx(2.0, abs=1e-12)
        # <0|U+ Z U|0> is largest for diagonal U (theta = 0), smallest for antidiagonal U
        assert res.argmax.values[1] == pytest.approx(0.0, abs=1e-12)
        assert res.argmin.values[1] == pytest.approx(np.pi, abs=1e-12)
        assert t.evaluate(euler_zyz(*res.argmax.values)) == pytest.approx(1.0, abs=1e-12)
        assert t.evaluate(euler_zyz(*res.argmin.values)) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("diag,theta_max,theta_min", [
        ((3.0, 1.0, 0.0, -1.0), 0.0, 0.0),  # argmax I, argmin -iZ
        ((0.0, 2.0, 1.0, -1.0), np.pi, 0.0),  # argmax -iX, argmin -iZ
        ((0.5, -1.0, 2.0, 0.0), np.pi, np.pi),  # argmax -iY, argmin -iX
    ])
    def test_unique_extrema_at_poles(self, diag, theta_max, theta_min):
        # T with S = diag(...): B^a are orthogonal with tr(B^a+ B^b) = 2 delta_ab
        basis = np.stack([PAULI["I"]] + [-1j * PAULI[a] for a in "XYZ"])
        tensor = np.einsum("a,aij,akl->ijkl", np.asarray(diag), basis.conj(), basis) / 4
        t = landscape.TransferTensor(BipartitePartition(2, (0,)), tensor.reshape(4, 4))
        assert np.allclose(quaternion_form(t), np.diag(diag), atol=1e-15)
        res = variation_range_exact_m1(t)
        assert res.delta == pytest.approx(max(diag) - min(diag), abs=1e-14)
        assert not res.degenerate
        assert res.argmax.values[1] == pytest.approx(theta_max, abs=1e-14)
        assert res.argmin.values[1] == pytest.approx(theta_min, abs=1e-14)
        assert t.evaluate(euler_zyz(*res.argmax.values)) == pytest.approx(max(diag), abs=1e-14)
        assert t.evaluate(euler_zyz(*res.argmin.values)) == pytest.approx(min(diag), abs=1e-14)

    @pytest.mark.parametrize("q_max,q_min", [
        ((0.6, 0.0, 0.0, -0.8), (0.8, 0.0, 0.0, 0.6)),  # q1 = q2 = 0: theta = 0
        ((0.0, -0.28, 0.96, 0.0), (0.0, -0.96, -0.28, 0.0)),  # q0 = q3 = 0: theta = pi
        ((0.1, -0.7, 0.5, 0.5), (-0.7, -0.1, -0.5, 0.5)),  # largest |q_a| negative
    ])
    def test_zyz_at_poles_and_negative_largest_entry(self, q_max, q_min):
        # S with unique extreme eigenvectors q_max and q_min: the solver's angles and
        # the angles of +-q (and of q with its zeros negated) attain the extremes
        q_max, q_min = np.array(q_max), np.array(q_min)
        r = np.linalg.qr(np.stack([q_max, q_min, *np.eye(4)[:2]], axis=1))[0]
        r[:, :2] = np.stack([q_max, q_min], axis=1)  # qr may flip signs
        s = r @ np.diag([2.0, -1.5, 0.5, -0.25]) @ r.T
        basis = np.stack([PAULI["I"]] + [-1j * PAULI[a] for a in "XYZ"])
        tensor = np.einsum("ab,aij,bkl->ijkl", s, basis.conj(), basis) / 4
        t = landscape.TransferTensor(BipartitePartition(2, (0,)), tensor.reshape(4, 4))
        assert np.allclose(quaternion_form(t), s, atol=1e-15)
        res = variation_range_exact_m1(t)
        assert res.delta == pytest.approx(3.5, abs=1e-14)
        assert abs(t.evaluate(euler_zyz(*res.argmax.values)) - res.max_value) <= 1e-12
        assert abs(t.evaluate(euler_zyz(*res.argmin.values)) - res.min_value) <= 1e-12
        for q, value in ((q_max, 2.0), (q_min, -1.5)):
            for variant in (q, -q, np.where(q == 0, -q, q)):
                angles = landscape._zyz_from_quaternion(variant).values
                assert all(type(a) is float for a in angles)
                sign = np.sign(variant[np.argmax(np.abs(variant))])
                want = np.einsum("a,aij->ij", sign * variant, basis)
                assert np.allclose(euler_zyz(*angles), want, rtol=0.0, atol=1e-15)
                assert abs(t.evaluate(euler_zyz(*angles)) - value) <= 1e-12

    def test_argmax_argmin_achieve_extremes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            h, rho, v1, v2, part = random_instance(3, rng)
            t = transfer_tensor(h, rho, v1, v2, part)
            res = variation_range_exact_m1(t)
            assert t.evaluate(euler_zyz(*res.argmax.values)) == pytest.approx(res.max_value, abs=1e-9)
            assert t.evaluate(euler_zyz(*res.argmin.values)) == pytest.approx(res.min_value, abs=1e-9)

    def test_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            h, rho, v1, v2, part = random_instance(4, rng)
            t = transfer_tensor(h, rho, v1, v2, part)
            w = spectral_width(h)
            exact = variation_range_exact_m1(t)
            grid = variation_range_grid(t, 64)
            assert abs(exact.delta - grid.delta) <= 0.01 * w
            assert grid.delta <= exact.delta + 1e-9  # grid never exceeds the true range

    def test_rejects_two_qubit_subsystem(self):
        rng = np.random.default_rng(8)
        h, rho, v1, v2, part = random_instance(4, rng, a_sites=(0, 1))
        t = transfer_tensor(h, rho, v1, v2, part)
        with pytest.raises(DimensionError):
            variation_range_exact_m1(t)

    def test_quaternion_form_reconstructs_cost(self):
        rng = np.random.default_rng(9)
        h, rho, v1, v2, part = random_instance(3, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        s = quaternion_form(t)
        assert s.dtype == float and np.array_equal(s, s.T)
        for _ in range(20):
            u = haar_random_unitary(2, rng)
            su = u / np.sqrt(np.linalg.det(u))  # the cost ignores the global phase
            # su = q0 I - i(q1 X + q2 Y + q3 Z)
            q = np.array([np.trace(su).real] + [-np.trace(PAULI[a] @ su).imag for a in "XYZ"]) / 2
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
            assert q @ s @ q == pytest.approx(t.evaluate(u), abs=1e-12)

    def test_non_hermitian_h_raises(self):
        rng = np.random.default_rng(16)
        h, rho, v1, v2, part = random_instance(3, rng)
        with pytest.raises(ValueError, match="not Hermitian"):
            transfer_tensor(h + 1j * random_hermitian(part.d, rng), rho, v1, v2, part)

    def test_non_hermitian_rho_raises(self):
        # rho + iK used to be replaced by its Hermitian part, rho, without a word
        rng = np.random.default_rng(20)
        h, rho, v1, v2, part = random_instance(3, rng)
        with pytest.raises(ValueError, match="must be Hermitian"):
            transfer_tensor(h, rho + 1j * random_hermitian(part.d, rng), v1, v2, part)
        with pytest.raises(ValueError, match="must be Hermitian"):
            transfer_tensor(h, [rho, rho + 1e-8j * random_hermitian(part.d, rng)], v1, v2, part)

    def test_matches_procrustes_oracle(self):
        # 240 instances: random A site, mixed rho, V1 and V2 each None or a program
        rng = np.random.default_rng(17)
        for trial in range(240):
            n = 2 + trial % 4
            part = BipartitePartition(n, (int(rng.integers(n)),))
            h = random_hermitian(part.d, rng)
            rho = random_density(part.d, rng)
            ens = CircuitEnsemble("hardware_efficient", n, layers=2)
            v1 = sample_circuit(ens, rng) if trial & 4 else None
            v2 = sample_circuit(ens, rng) if trial & 8 else None
            t = transfer_tensor(h, rho, v1, v2, part)
            got, want = variation_range_exact_m1(t), procrustes_range_m1(t)
            for a, b in ((got.delta, want.delta), (got.max_value, want.max_value),
                         (got.min_value, want.min_value)):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), trial
            assert abs(t.evaluate(euler_zyz(*got.argmax.values)) - want.max_value) <= 1e-12, trial
            assert abs(t.evaluate(euler_zyz(*got.argmin.values)) - want.min_value) <= 1e-12, trial


class TestGrid:
    def test_resolution_floor(self):
        rng = np.random.default_rng(10)
        h, rho, v1, v2, part = random_instance(3, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        with pytest.raises(ValueError):
            variation_range_grid(t, 3)

    @pytest.mark.slow
    def test_refinement_monotone(self):
        rng = np.random.default_rng(11)
        h, rho, v1, v2, part = random_instance(3, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        d32 = variation_range_grid(t, 32).delta
        d128 = variation_range_grid(t, 128).delta
        assert d128 >= d32 - 1e-12

    def test_trivial_z_resolution_64(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        part = BipartitePartition(2, (0,))
        t = transfer_tensor(pauli_word_matrix("ZI"), e0, None, None, part)
        res = variation_range_grid(t, 64)
        assert 1.99 <= res.delta <= 2.0 + 1e-12


class TestAdam:
    def test_trivial_instance(self):
        e0 = np.zeros(4)
        e0[0] = 1.0
        part = BipartitePartition(2, (0,))
        t = transfer_tensor(pauli_word_matrix("ZI"), e0, None, None, part)
        res = variation_range_adam(t)
        assert res.delta == pytest.approx(2.0, abs=1e-4)

    def test_zero_iteration_budget(self):
        rng = np.random.default_rng(13)
        h, rho, v1, v2, part = random_instance(3, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        res = variation_range_adam(t, AdamConfig(iterations=0))
        assert res.delta == 0.0
        assert res.max_value == pytest.approx(t.evaluate(np.eye(2)), abs=1e-12)

    @pytest.mark.parametrize("gate,a_sites", [("_gate_m1", (1,)), ("_gate_m2", (0, 2))])
    def test_cost_and_grad_match_central_differences(self, gate, a_sites):
        rng = np.random.default_rng(15)
        h, rho, v1, v2, part = random_instance(3, rng, a_sites=a_sites)
        t = transfer_tensor(h, rho, v1, v2, part)
        gate = getattr(dense_reference, gate)
        x = rng.uniform(-np.pi, np.pi, size=3 if part.m == 1 else 15)
        val, grad = dense_reference._cost_and_grad(t, gate, x)
        assert val == pytest.approx(t.evaluate(gate(x)[0]), abs=1e-12)
        eps = 1e-6
        for k in range(x.size):
            e = np.zeros_like(x)
            e[k] = eps
            fd = (t.evaluate(gate(x + e)[0]) - t.evaluate(gate(x - e)[0])) / (2 * eps)
            assert grad[k] == pytest.approx(fd, abs=1e-6 * max(1.0, np.abs(t.matrix).max())), k

    @pytest.mark.slow
    def test_m2_stays_below_width_and_above_m1(self):
        rng = np.random.default_rng(14)
        h, rho, v1, v2, _ = random_instance(4, rng)
        part2 = BipartitePartition(4, (0, 1))
        t2 = transfer_tensor(h, rho, v1, v2, part2)
        res = variation_range_adam(t2, AdamConfig(iterations=200, seed=3))
        w = spectral_width(h)
        assert 0.0 <= res.delta <= w + 1e-9
        assert t2.evaluate(local_unitary(res.argmax)) == pytest.approx(res.max_value, abs=1e-9)


def trivial_z_tensor(part):
    """H = Z on A's first qubit, rho = |0...0>: C ranges over [-1, 1] for any gate size."""
    e0 = np.zeros(part.d)
    e0[0] = 1.0
    return transfer_tensor(pauli_word_matrix("Z" + "I" * (part.n - 1)), e0, None, None, part)


class TestPolar:
    @pytest.mark.parametrize("a_sites", [(0,), (0, 1)])
    def test_trivial_instance(self, a_sites):
        res = variation_range_polar(trivial_z_tensor(BipartitePartition(3, a_sites)),
                                    np.random.default_rng(0))
        assert res.method == "polar" and res.converged
        assert res.max_value == pytest.approx(1.0, abs=1e-12)
        assert res.min_value == pytest.approx(-1.0, abs=1e-12)
        assert res.delta == res.max_value - res.min_value

    def test_m1_matches_exact(self):
        rng = np.random.default_rng(22)
        for trial in range(20):
            h, rho, v1, v2, part = random_instance(3, rng)
            t = transfer_tensor(h, rho, v1, v2, part)
            res = variation_range_polar(t, rng)
            assert res.converged, trial
            assert abs(res.delta - variation_range_exact_m1(t).delta) <= 1e-9 * spectral_width(h), trial

    @pytest.mark.parametrize("d", [2, 4])
    def test_parameters_name_the_gate(self, d):
        # local_unitary(params) is the gate up to a global phase: |tr(U^+ V)| = d
        rng = np.random.default_rng(23)
        gates = list(haar_random_unitary(d, rng, size=50))
        gates += [np.diag(np.exp(1j * rng.uniform(-np.pi, np.pi, d))), -np.eye(d), 1j * np.eye(d)]
        for u in gates:
            v = local_unitary(landscape._local_params(u))
            assert abs(np.trace(u.conj().T @ v)) == pytest.approx(d, abs=1e-10)

    def test_restarts_come_from_the_rng(self):
        rng = np.random.default_rng(24)
        h, rho, v1, v2, _ = random_instance(4, rng)
        t = transfer_tensor(h, rho, v1, v2, BipartitePartition(4, (0, 1)))
        a, b = (variation_range_polar(t, np.random.default_rng(5)) for _ in range(2))
        assert a == b

    def test_m3_rejected(self):
        with pytest.raises(DimensionError):
            variation_range_polar(trivial_z_tensor(BipartitePartition(4, (0, 1, 2))),
                                  np.random.default_rng(0))

    def test_converged_means_near_the_limit(self, monkeypatch):
        # vqe n = 3 instances whose gains shrink by about 0.986 a step: stopping on the
        # last gain alone left these ranges 1.2e-9 to 1.6e-9 short of the limit
        inst = harness.setup_task("vqe", 3, 2)
        for seed in (5, 15, 23):
            rng = np.random.default_rng(seed)
            rho = random_pure_state(8, rng)
            v2 = sample_circuit(CircuitEnsemble("hardware_efficient", 3, 3), rng)
            t = transfer_tensor(inst.h, rho, None, v2, inst.part)
            res = variation_range_polar(t, np.random.default_rng(0))
            with monkeypatch.context() as mp:  # run every restart until a step gains nothing
                mp.setattr(landscape, "POLAR_GAIN_RTOL", 0.0)
                mp.setattr(landscape, "POLAR_MAX_STEPS", 100_000)
                limit = variation_range_polar(t, np.random.default_rng(0))
            assert res.converged, seed
            assert abs(res.delta - limit.delta) <= 1e-9, seed

    @pytest.mark.slow
    def test_m2_not_below_adam(self):
        # time budget about 20 s on 2 shared cores: the Adam oracle takes 5-7 s per
        # instance, polar about 0.2 s
        rng = np.random.default_rng(25)
        for task, n in (("vqe", 4), ("qae", 5), ("qsl", 6)):
            inst = harness.setup_task(task, n, 2)
            ens = CircuitEnsemble("hardware_efficient", n, layers=n)
            t = transfer_tensor(inst.h, random_pure_state(2**n, rng), sample_circuit(ens, rng),
                                sample_circuit(ens, rng), inst.part)
            polar = variation_range_polar(t, rng)
            adam = variation_range_adam(t, AdamConfig(seed=n))
            assert polar.delta >= adam.delta - 1e-9, (task, n, polar.delta, adam.delta)


@pytest.mark.slow
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(harness.TASK_IDS)), st.integers(3, 6),
       st.booleans(), st.booleans(), st.booleans())
def test_polar_m2_bracketed_attained_and_unbeaten(seed, task, n, pure, with_v1, with_v2):
    rng = np.random.default_rng(seed)
    inst = harness.setup_task(task, n, 2)
    rho = random_pure_state(2**n, rng) if pure else random_density(2**n, rng)
    ens = CircuitEnsemble("hardware_efficient", n, layers=int(rng.integers(1, 2 * n + 1)))
    v1, v2 = (sample_circuit(ens, rng) if side else None for side in (with_v1, with_v2))
    t = transfer_tensor(inst.h, rho, v1, v2, inst.part)
    res = variation_range_polar(t, rng)
    assert restricted_m1_range(t) - 1e-9 <= res.delta <= certificate(t) + 1e-9
    assert abs(t.evaluate(local_unitary(res.argmax)) - res.max_value) <= 1e-9
    assert abs(t.evaluate(local_unitary(res.argmin)) - res.min_value) <= 1e-9
    vals = t.evaluate(haar_random_unitary(4, rng, size=300))
    assert vals.max() <= res.max_value + 1e-9
    assert vals.min() >= res.min_value - 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_delta_bounded_by_spectral_width(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    part = BipartitePartition(n, (0,))
    h = random_hermitian(part.d, rng)
    rho = random_density(part.d, rng)
    t = transfer_tensor(h, rho, None, None, part)
    res = variation_range_exact_m1(t)
    assert -1e-9 <= res.delta <= spectral_width(h) + 1e-9
    assert res.delta == pytest.approx(res.max_value - res.min_value, abs=1e-9)


def test_argmax_invariant_under_identity_shift():
    rng = np.random.default_rng(15)
    h, rho, v1, v2, part = random_instance(3, rng)
    t1 = transfer_tensor(h, rho, v1, v2, part)
    c = 2.7
    t2 = transfer_tensor(h + c * np.eye(8), rho, v1, v2, part)
    r1 = variation_range_exact_m1(t1)
    r2 = variation_range_exact_m1(t2)
    if not r1.degenerate:
        assert np.allclose(r1.argmax.values, r2.argmax.values, atol=1e-9)
        assert np.allclose(r1.argmin.values, r2.argmin.values, atol=1e-9)
    assert r2.max_value == pytest.approx(r1.max_value + c, abs=1e-9)
    assert r2.min_value == pytest.approx(r1.min_value + c, abs=1e-9)
    assert r2.delta == pytest.approx(r1.delta, abs=1e-9)


class TestBounds:
    def test_theorem_values(self):
        assert theorem1_bound(1.0, 10, 1) == pytest.approx(1.0)
        assert theorem1_bound(1.0, 20, 1) == pytest.approx(1.0 / 32)

    def test_general_form_coincides(self):
        # the dimension-explicit form 4 w d_A^2 sqrt(d_A / d_B)
        for n in range(4, 12):
            for m in (1, 2):
                d_a, d_b = 2**m, 2 ** (n - m)
                a = theorem1_bound(1.0, n, m)
                b = 4.0 * d_a**2 * np.sqrt(d_a / d_b)
                assert a == pytest.approx(b, abs=1e-12 * max(1.0, a))

    def test_variance_is_width_times_mean_bound(self):
        assert variance_bound(3.0, 8, 1) == pytest.approx(3.0 * theorem1_bound(3.0, 8, 1))

    def test_markov_saturation(self):
        w, n, m = 2.0, 12, 1
        eps = theorem1_bound(w, n, m)
        assert markov_tail(w, n, m, eps) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            markov_tail(w, n, m, 0.0)

    def test_qsl_value(self):
        assert qsl_bound(4, 1) == pytest.approx(0.25)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            theorem1_bound(-1.0, 4, 1)


def _assert_closed_form_equals_dense(task, n, m):
    """The (N_A, N_AB) table and the tight-bound formula against the dense oracle."""
    inst = harness.setup_task(task, n, m)
    assert coupling_ranks(task, m) == coupling_rank(inst.h, inst.part)
    dense = tight_bound(inst.h, inst.part)
    assert tight_bound_formula(task, n, inst.w, m) == pytest.approx(dense, rel=1e-12, abs=0.0)
    if m == 2 or task == "qsl":
        assert task_tight_bound(task, n, inst.w, m) == tight_bound_formula(task, n, inst.w, m)


class TestCouplingRank:
    def test_heisenberg(self):
        for n in (4, 6):
            h = heisenberg(n)
            assert coupling_rank(h, BipartitePartition(n, (0,))) == (0, 3)

    def test_qae(self):
        h = qae_hamiltonian(5)
        assert coupling_rank(h, BipartitePartition(5, (0,))) == (1, 0)

    def test_purely_local(self):
        assert coupling_rank(pauli_word_matrix("ZI"), BipartitePartition(2, (0,))) == (1, 0)

    def test_three_qubit_subsystem_rejected(self):
        with pytest.raises(DimensionError):
            coupling_rank(np.eye(16), BipartitePartition(4, (0, 1, 2)))

    def test_identity_tight_bound_vanishes(self):
        part = BipartitePartition(3, (0,))
        assert tight_bound(np.eye(8), part) == pytest.approx(0.0, abs=1e-12)

    def test_tight_below_published_constants(self):
        for n in (4, 6, 8):
            part = BipartitePartition(n, (0,))
            h = heisenberg(n)
            assert tight_bound(h, part) <= task_tight_bound("vqe", n, spectral_width(h)) + 1e-9
            hq = qae_hamiltonian(n)
            assert tight_bound(hq, part) <= task_tight_bound("qae", n, 1.0) + 1e-9

    # Together these cover every task and m at n = m+1..10.
    @pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2) for n in range(m + 1, 11)])
    def test_qsl_closed_form_equals_dense(self, m, n):
        _assert_closed_form_equals_dense("qsl", n, m)

    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("task", ["vqe", "qae"])
    def test_m2_closed_form_equals_dense(self, task, n):
        _assert_closed_form_equals_dense(task, n, 2)

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("task", ["vqe", "qae"])
    def test_m1_closed_form_equals_dense(self, task, n):
        _assert_closed_form_equals_dense(task, n, 1)

    def test_qsl_closed_form_m1(self):
        for n in (4, 14, 16):
            want = 3.0 * (1 - 2.0**-n) * 2.0 ** (1 - n / 2)
            assert task_tight_bound("qsl", n, 1.0) == pytest.approx(want, rel=1e-14)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            task_tight_bound("qft", 4, 1.0)
        for task in ("vqe", "qae", "qsl"):
            with pytest.raises(ValueError):
                task_tight_bound(task, 6, 1.0, m=3)


@pytest.mark.parametrize("task", ["vqe", "qae", "qsl"])
def test_bound_report_tight_formula_is_not_the_row_bound(task):
    # `localrange bounds` reports both: a row's bound_tight is task_tight_bound, not the
    # formula; they differ for m = 1 vqe and qae (vqe n = 7: 12.11 against 39.08)
    n = 7
    inst = harness.setup_task(task, n, 1)
    cfg = harness.ExperimentConfig(task=task, n_min=n, n_max=n, design_kind="one_design", samples=2)
    row = harness.run_scaling(cfg)[0]
    assert row.bound_tight == task_tight_bound(task, n, inst.w, 1)
    assert (row.bound_tight == tight_bound_formula(task, n, inst.w, 1)) == (task == "qsl")


def _ry_z_circuit():
    # C(theta) = <00| Ry(theta)+ (Z x I) Ry(theta) |00> = cos(theta)
    pc = ParameterizedCircuit(2, [GateSpec("ry", 0)])
    h = pauli_word_matrix("ZI")
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return pc, h, rho


class TestParameterShift:
    def test_cosine_extremum(self):
        pc, h, rho = _ry_z_circuit()
        assert parameter_shift_derivative(pc, h, rho, [0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_slope(self):
        pc, h, rho = _ry_z_circuit()
        d = parameter_shift_derivative(pc, h, rho, [np.pi / 2], 0)
        assert d == pytest.approx(-1.0, abs=1e-12)

    def test_index_out_of_range(self):
        pc, h, rho = _ry_z_circuit()
        with pytest.raises(ValueError):
            parameter_shift_derivative(pc, h, rho, [0.0], 1)


def _random_circuit(n, rng, layers=2):
    gates = []
    for _ in range(layers):
        for q in range(n):
            gates.append(GateSpec(["rx", "ry", "rz"][rng.integers(3)], q))
        for q in range(n - 1):
            gates.append(GateSpec("cz", q + 1, control=q))
    return ParameterizedCircuit(n, gates)


def test_shift_rule_matches_finite_difference():
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 6))
        pc = _random_circuit(n, rng)
        h = random_hermitian(2**n, rng)
        rho = random_density(2**n, rng)
        theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        mu = int(rng.integers(pc.num_parameters))
        exact = parameter_shift_derivative(pc, h, rho, theta, mu)
        eps = 1e-5
        e = np.zeros_like(theta)
        e[mu] = eps
        fd = (pc.cost(h, rho, theta + e) - pc.cost(h, rho, theta - e)) / (2 * eps)
        assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))
        checked += 1


def test_shift_rule_bounded_by_gate_range():
    rng = np.random.default_rng(17)
    for _ in range(10):
        pc = _random_circuit(3, rng)
        h = random_hermitian(8, rng)
        rho = random_density(8, rng)
        theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        mu = int(rng.integers(pc.num_parameters))
        d = parameter_shift_derivative(pc, h, rho, theta, mu)
        rng_mu = delta_mu(pc, h, rho, theta, mu)
        assert abs(d) <= rng_mu.delta + 1e-9


class TestTelescoping:
    def test_equal_points(self):
        rng = np.random.default_rng(18)
        pc = _random_circuit(3, rng)
        h = random_hermitian(8, rng)
        rho = random_density(8, rng)
        theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        lhs, rhs = telescoping_bound_check(pc, h, rho, theta, theta)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs >= 0.0

    def test_single_parameter(self):
        pc, h, rho = _ry_z_circuit()
        lhs, rhs = telescoping_bound_check(pc, h, rho, [0.3], [2.9])
        assert lhs <= rhs + 1e-9
        # one-step telescope: the bound is exactly the gate's range
        assert rhs == pytest.approx(delta_mu(pc, h, rho, [0.3], 0).delta, abs=1e-9)

    def test_random_instances(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            pc = _random_circuit(4, rng, layers=2)  # 8 free params per layer pair
            h = random_hermitian(16, rng)
            rho = random_density(16, rng)
            a = rng.uniform(0, 2 * np.pi, pc.num_parameters)
            b = rng.uniform(0, 2 * np.pi, pc.num_parameters)
            lhs, rhs = telescoping_bound_check(pc, h, rho, a, b)
            assert lhs <= rhs + 1e-9

    def test_length_mismatch(self):
        pc, h, rho = _ry_z_circuit()
        with pytest.raises(ValueError):
            telescoping_bound_check(pc, h, rho, [0.1], [0.1, 0.2])

    def test_violation_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(landscape, "delta_mu", lambda *args: SimpleNamespace(delta=0.0))
        pc, h, rho = _ry_z_circuit()
        with pytest.raises(BoundViolation, match="telescoping"):
            telescoping_bound_check(pc, h, rho, [0.3], [2.9])


def test_cost_matches_dense_oracle():
    # criterion 3's inputs, replayed from its seed: the shift rule and the
    # finite-difference costs against tr(H U rho U+) with U the dense unitary
    rng = np.random.default_rng(303)

    def dense_cost(pc, h, rho, theta):
        return generic_cost(h, rho, np.asarray(GateProgram.from_gates(pc.n, pc.bind(theta))))

    for _ in range(50):
        n = int(rng.integers(2, 7))
        pc = _random_circuit(n, rng)
        h = random_hermitian(2**n, rng)
        rho = random_density(2**n, rng)
        theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        mu = int(rng.integers(pc.num_parameters))
        for shift in (np.pi / 2, 1e-5):
            e = np.zeros_like(theta)
            e[mu] = shift
            for point in (theta + e, theta - e):
                want = dense_cost(pc, h, rho, point)
                assert abs(pc.cost(h, rho, point) - want) <= 1e-12 * max(1.0, abs(want))
        psi = random_pure_state(2**n, rng)
        want = dense_cost(pc, h, np.outer(psi, psi.conj()), theta)
        assert abs(pc.cost(h, psi, theta) - want) <= 1e-12 * max(1.0, abs(want))
    # criterion 7's telescoping shape: 4 qubits, 8 parameters
    for _ in range(20):
        pc = _random_circuit(4, rng)
        h, rho = random_hermitian(16, rng), random_density(16, rng)
        a, b = rng.uniform(0, 2 * np.pi, (2, pc.num_parameters))
        lhs, _ = telescoping_bound_check(pc, h, rho, a, b)
        want = abs(dense_cost(pc, h, rho, b) - dense_cost(pc, h, rho, a))
        assert abs(lhs - want) <= 1e-12 * max(1.0, want)


def test_expectation_rejects_bad_input():
    # gate-free circuits: the cost is tr(H rho), read off the transfer form
    pc2, pc3 = ParameterizedCircuit(2, []), ParameterizedCircuit(3, [])
    with pytest.raises(DimensionError):
        pc2.cost(pauli_word_matrix("ZI"), np.ones(8) / np.sqrt(8), [])
    with pytest.raises(DimensionError):
        pc3.cost(heisenberg(3), np.ones(4) / 2, [])
    with pytest.raises(ValueError, match="not Hermitian"):
        pc2.cost(np.kron([[0, 1], [0, 0]], np.eye(2)), np.kron(np.array([1, 1j]) / np.sqrt(2), [1, 0]), [])
    nan_state = np.full(8, np.sqrt(1 / 8), dtype=complex)
    nan_state[3] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):  # NaN fails M's Hermiticity test
        pc3.cost(heisenberg(3), nan_state, [])


def test_expectation_rejects_non_hermitian_rho():
    rng = np.random.default_rng(21)
    rho = random_density(8, rng)
    with pytest.raises(ValueError, match="must be Hermitian"):
        ParameterizedCircuit(3, []).cost(heisenberg(3), rho + 1j * random_hermitian(8, rng), [])


def test_parameterized_circuit_forms_no_dense_matrix(monkeypatch):
    def refuse(self, dtype=None, copy=None):
        raise AssertionError(f"dense form of a {type(self).__name__} requested")

    monkeypatch.setattr(GateProgram, "__array__", refuse)
    monkeypatch.setattr(Observable, "__array__", refuse)
    rng = np.random.default_rng(20)
    n = 6
    pc = _random_circuit(n, rng)
    h = heisenberg(n)
    psi = random_pure_state(2**n, rng)
    a, b = rng.uniform(0, 2 * np.pi, (2, pc.num_parameters))
    assert -2 * n <= pc.cost(h, psi, a) <= n
    d = parameter_shift_derivative(pc, h, psi, a, 3)
    assert abs(d) <= delta_mu(pc, h, psi, a, 3).delta + 1e-9
    lhs, rhs = telescoping_bound_check(pc, h, psi, a, b)
    assert lhs <= rhs + 1e-9


def test_shift_rule_and_gate_range_at_n14():
    # a dense unitary at n = 14 is 4 GiB; one state vector is 256 KiB
    n = 14
    rng = np.random.default_rng(21)
    pc = _random_circuit(n, rng)
    h = heisenberg(n)
    psi = random_pure_state(2**n, rng)
    theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
    eps = 1e-5
    results = []
    tracemalloc.start()
    try:
        for mu in (0, n + 3, pc.num_parameters - 1):
            exact = parameter_shift_derivative(pc, h, psi, theta, mu)
            e = np.zeros_like(theta)
            e[mu] = eps
            fd = (pc.cost(h, psi, theta + e) - pc.cost(h, psi, theta - e)) / (2 * eps)
            results.append((exact, fd, delta_mu(pc, h, psi, theta, mu).delta))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for exact, fd, delta in results:
        assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))
        assert abs(exact) <= delta + 1e-9
    assert max(abs(r[0]) for r in results) > 1e-3  # the comparison is not between zeros


def with_rank_one(h, d, seed):
    """h, then the rank-one observables I - |e0><e0| and I - |phi><phi| on its
    register, phi random with norm 1.3: the latter two take the V2+ phi branch
    of transfer_tensor whenever V2 is None or gate programs."""
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=d) + 1j * rng.normal(size=d)
    n = d.bit_length() - 1
    return [h, qsl_hamiltonian(n), Observable(n, "rank_one", 1.3 * phi / np.linalg.norm(phi))]


@pytest.mark.parametrize("a_sites", [(0,), (2,), (0, 1), (1, 3)])
@pytest.mark.parametrize("state", ["pure", "mixed"])
@pytest.mark.parametrize("circuit", ["none", "matrix", "program"])
def test_statevector_transfer_matches_dense_oracle(a_sites, state, circuit):
    rng = np.random.default_rng(sum(a_sites) + 10 * len(a_sites) + 100 * len(state) + len(circuit))
    for n in (4, 6, 8):
        part = BipartitePartition(n, a_sites)
        h = random_hermitian(part.d, rng)
        if state == "pure":
            rho = random_pure_state(part.d, rng)
        else:
            rho = random_density(part.d, rng, rank=None if n < 8 else 3)
        if circuit == "none":
            v1 = v2 = None
        elif circuit == "matrix":
            v1, v2 = haar_random_unitary(part.d, rng), haar_random_unitary(part.d, rng)
        else:
            ens = CircuitEnsemble("hardware_efficient", n, layers=4)
            v1, v2 = sample_circuit(ens, rng), sample_circuit(ens, rng)
        for hk in with_rank_one(h, part.d, seed=n):
            got = transfer_tensor(hk, rho, v1, v2, part).tensor
            ref = transfer_tensor_dense(hk, rho, v1, v2, part)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("state", ["pure", "mixed", "shared"])
@pytest.mark.parametrize("sides", ["none", "v1", "v2", "both"])
def test_stacked_transfer_matches_dense_oracle(m, state, sides):
    # a stack of three samples: per-sample programs on the random sides, and
    # per-sample pure states, per-sample density matrices (rank 3 at n = 8,
    # full below), or one density matrix shared by the stack
    rng = np.random.default_rng(7 * m + len(state) + 3 * len(sides))
    for n in (m + 2, 5, 8):
        part = BipartitePartition(n, tuple(range(m)))
        h = random_hermitian(part.d, rng)
        ens = CircuitEnsemble("hardware_efficient", n, layers=3)
        draw = {"none": (False, False), "v1": (True, False), "v2": (False, True),
                "both": (True, True)}[sides]
        v1s, v2s = ([sample_circuit(ens, rng) for _ in range(3)] if on else None for on in draw)
        rhos = {
            "pure": lambda: [random_pure_state(part.d, rng) for _ in range(3)],
            "mixed": lambda: [random_density(part.d, rng, rank=None if n < 8 else 3) for _ in range(3)],
            "shared": lambda: [random_density(part.d, rng)] * 3,
        }[state]()
        # a shared state is passed once; with no program list the stack is the rhos
        rho = rhos[0] if state == "shared" and sides != "none" else rhos
        for hk in with_rank_one(h, part.d, seed=n):
            got = transfer_tensor(hk, rho, v1s, v2s, part)
            assert len(got) == 3
            for s, t in enumerate(got):
                ref = transfer_tensor_dense(hk, rhos[s], v1s and v1s[s], v2s and v2s[s], part)
                assert np.max(np.abs(t.tensor - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("rank", [1, 2])
def test_stacked_transfer_independent_of_stack(m, rank):
    # a sample's tensor is bitwise the same alone as inside a stack
    rng = np.random.default_rng(m + 2 * rank)
    n = 7
    part = BipartitePartition(n, tuple(range(m)))
    ens = CircuitEnsemble("hardware_efficient", n, layers=5)
    v1s = [sample_circuit(ens, rng) for _ in range(4)]
    v2s = [sample_circuit(ens, rng) for _ in range(4)]
    rhos = [random_pure_state(part.d, rng) if rank == 1 else random_density(part.d, rng, rank=rank)
            for _ in range(4)]
    for h in with_rank_one(heisenberg(n), part.d, seed=n)[::2]:
        full = transfer_tensor(h, rhos, v1s, v2s, part)
        for s in range(4):
            alone = transfer_tensor(h, rhos[s:s + 1], v1s[s:s + 1], v2s[s:s + 1], part)
            assert np.array_equal(alone[0].tensor, full[s].tensor)


@pytest.mark.parametrize("v2_kind", ["none", "program", "programs", "matrix"])
def test_rank_one_branch_taken_exactly_when_v2_is_programs(monkeypatch, v2_kind):
    # the V2+ phi branch needs V2 unitary and applied as programs; a dense V2
    # takes the general path, and both agree with the dense oracle
    rng = np.random.default_rng(len(v2_kind))
    n = 6
    part = BipartitePartition(n, (0,))
    ens = CircuitEnsemble("hardware_efficient", n, layers=4)
    h = with_rank_one(None, part.d, seed=0)[2]
    rhos = [random_pure_state(part.d, rng) for _ in range(2)]
    v2s = [sample_circuit(ens, rng) for _ in range(2)]
    v2 = {"none": None, "program": v2s[0], "programs": v2s, "matrix": np.asarray(v2s[0])}[v2_kind]
    calls = []
    branch = landscape._rank_one_matrices
    monkeypatch.setattr(landscape, "_rank_one_matrices", lambda *a: calls.append(1) or branch(*a))
    got = transfer_tensor(h, rhos, None, v2, part)
    assert len(calls) == (v2_kind != "matrix")
    for s, t in enumerate(got):
        v2_s = v2s[s] if v2_kind == "programs" else v2
        ref = transfer_tensor_dense(h, rhos[s], None, v2_s, part)
        assert np.max(np.abs(t.tensor - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_stacked_transfer_input_checks():
    part = BipartitePartition(3, (0,))
    ens = CircuitEnsemble("hardware_efficient", 3, layers=2)
    rng = np.random.default_rng(0)
    rho = random_pure_state(8, rng)
    with pytest.raises(DimensionError, match="differ in length"):
        transfer_tensor(heisenberg(3), [rho, rho], [sample_circuit(ens, rng)] * 3, None, part)
    # programs of one stack share their CZ runs
    other = sample_circuit(CircuitEnsemble("hardware_efficient", 3, layers=3), rng)
    with pytest.raises(ValueError, match="share n and their CZ runs"):
        transfer_tensor(heisenberg(3), rho, [sample_circuit(ens, rng), other], None, part)
    # a single sample gives one TransferTensor, a stack of one a list of one
    assert isinstance(transfer_tensor(heisenberg(3), rho, None, None, part), landscape.TransferTensor)
    assert len(transfer_tensor(heisenberg(3), [rho], None, None, part)) == 1
    with pytest.raises(DimensionError, match="one rank"):
        transfer_tensor(heisenberg(3), [rho, np.eye(8) / 8], None, None, part)
