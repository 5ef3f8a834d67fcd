import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    apply_gatewise,
    apply_single_qubit,
    assemble,
    cz_diag,
    embed_local,
    kron,
    pauli_word_matrix,
    sample_circuit_dense,
    sample_gates,
)
from localrange.circuits import (
    CircuitEnsemble,
    GateProgram,
    GateSpec,
    LocalUnitaryParams,
    _qubit_blocks,
    apply_stack,
    euler_zyz,
    local_unitary,
    rotation,
    sample_circuit,
    su4_generators,
)
from localrange.haar import haar_random_unitary
from localrange.landscape import _euler_grid
from localrange.linalg import PAULI, BipartitePartition, DimensionError


def is_unitary(u):
    return np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-10)


class TestGateSpec:
    def test_kinds(self):
        GateSpec("RX", 0)  # case-insensitive
        with pytest.raises(ValueError):
            GateSpec("hadamard", 0)

    def test_cz_needs_control(self):
        with pytest.raises(ValueError):
            GateSpec("cz", 1)

    def test_cz_needs_two_qubits(self):
        # a CZ of a qubit with itself would act as Z on it
        with pytest.raises(ValueError, match="two qubits"):
            GateSpec("cz", 1, control=1)

    def test_cz_takes_no_angle(self):
        with pytest.raises(ValueError, match="no angle"):
            GateSpec("cz", 1, control=0, angle=0.3)

    def test_rotation_takes_no_control(self):
        for kind in ("rx", "RY", "rz"):
            with pytest.raises(ValueError, match="no control"):
                GateSpec(kind, 1, control=0, angle=0.3)


def test_rotation_convention():
    # R_P(theta) = exp(-i theta P / 2); at theta=pi this is -iP
    for axis in "xyz":
        assert np.allclose(rotation(axis, np.pi), -1j * PAULI[axis.upper()])
    assert np.allclose(rotation("y", 0), np.eye(2))


def test_rotation_composition():
    a, b = 0.3, 1.1
    assert np.allclose(rotation("x", a) @ rotation("x", b), rotation("x", a + b))


def test_euler_zyz_covers_su2():
    rng = np.random.default_rng(0)
    u = haar_random_unitary(2, rng)
    # any 2x2 unitary equals a global phase times some ZYZ product
    phase = np.sqrt(np.linalg.det(u))
    su = u / phase
    # decompose: theta from |su[0,0]|, phases from the off-diagonal structure
    theta = 2 * np.arccos(np.clip(abs(su[0, 0]), 0, 1))
    phi = -np.angle(su[0, 0]) + np.angle(su[1, 0])
    alpha = -np.angle(su[0, 0]) - np.angle(su[1, 0]) + np.pi
    rebuilt = euler_zyz(phi, theta, alpha)
    assert np.allclose(np.abs(rebuilt), np.abs(su), atol=1e-9)


def test_gate_matrix_cz():
    # symmetric in control/target
    for g in (GateSpec("cz", 1, control=0), GateSpec("cz", 0, control=1)):
        assert np.allclose(np.asarray(GateProgram.from_gates(2, (g,))), np.diag([1, 1, 1, -1]))


def test_gate_matrix_rotation_placement():
    g = GateSpec("rz", 1, angle=np.pi)
    expected = kron(np.eye(2), rotation("z", np.pi))
    assert np.allclose(np.asarray(GateProgram.from_gates(2, (g,))), expected)


def test_gate_matrix_errors():
    with pytest.raises(ValueError):
        GateProgram.from_gates(2, (GateSpec("rx", 5, angle=0.1),))
    with pytest.raises(ValueError):
        GateProgram.from_gates(2, (GateSpec("cz", 2, control=0),))
    with pytest.raises(ValueError):
        GateProgram.from_gates(2, (GateSpec("rx", 0),))  # unbound angle


def test_program_input_checks():
    eye = np.broadcast_to(np.eye(2), (1, 3, 2, 2))
    for factors in (np.ones((1, 3, 2)), np.ones((2, 3, 2, 2)), np.ones((1, 2, 2, 2))):
        with pytest.raises(ValueError, match="factors shape"):
            GateProgram(3, factors, ((),))
    for pair in ((0, 3), (-1, 1), (2, 2)):
        with pytest.raises(ValueError, match="two different qubits"):
            GateProgram(3, eye, (((0, 1), pair),))
    source = np.array(eye)
    program = GateProgram(3, source, (((0, 1), (1, 2)),))
    source[0, 0] = 0  # the program keeps its own copy
    assert np.array_equal(program.factors, eye)
    assert not program.factors.flags.writeable
    with pytest.raises(ValueError):
        program.factors[0, 0] = 0
    # a factor off unitary by more than UNITARY_ATOL is named; roundoff passes
    for scale, bad in ((1.0 + 1e-9, True), (1.0 + 1e-13, False)):
        factors = np.array(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
        factors[1, 2] *= scale
        if bad:
            with pytest.raises(ValueError, match="segment 1, qubit 2 is not unitary"):
                GateProgram(3, factors, ((), ()))
        else:
            GateProgram(3, factors, ((), ()))
    with pytest.raises(ValueError, match="segment 0, qubit 0 is not unitary"):
        GateProgram(2, np.ones((1, 2, 2, 2)), ((),))
    # NaN fails the tolerance test too: a NaN factor, and the factor of an infinite angle
    factors = np.array(np.broadcast_to(np.eye(2), (2, 3, 2, 2)))
    factors[1, 2, 0, 0] = np.nan
    with pytest.raises(ValueError, match="segment 1, qubit 2 is not unitary"):
        GateProgram(3, factors, ((), ()))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="segment 0, qubit 1 is not unitary"):
        GateProgram.from_gates(2, (GateSpec("rx", 1, angle=np.inf),))


def test_from_gates_factors_are_the_gate_by_gate_products():
    # bitwise: factors[s, q] is the product, in list order, of the rotation
    # matrices of segment s on qubit q, and a segment ends after each CZ run
    rng = np.random.default_rng(16)
    lists = [(2, []), (2, [GateSpec("cz", 1, control=0)]), (1, [GateSpec("rz", 0, angle=0.3)] * 3)]
    for _ in range(40):
        n = int(rng.integers(2, 5))
        gates = []
        for _ in range(int(rng.integers(1, 25))):
            if rng.random() < 0.3:
                a, b = rng.choice(n, 2, replace=False)
                gates.append(GateSpec("cz", int(b), control=int(a)))
            else:  # few qubits, so a qubit often repeats within a segment
                gates.append(GateSpec(("rx", "ry", "rz")[rng.integers(3)], int(rng.integers(2)),
                                      angle=float(rng.normal(scale=3.0))))
        lists.append((n, gates + [GateSpec("cz", n - 1, control=0)] * int(rng.integers(2))))
    for n, gates in lists:
        segments, runs, pairs = [[[] for _ in range(n)]], [], []
        for g in gates:
            if g.kind == "cz":
                pairs.append((g.control, g.target))
                continue
            if pairs:
                segments.append([[] for _ in range(n)])
                runs.append(tuple(pairs))
                pairs = []
            segments[-1][g.target].append(rotation(g.kind[1], g.angle))
        if gates:
            runs.append(tuple(pairs))
        else:
            segments = []
        want = np.zeros((len(segments), n, 2, 2), dtype=complex)
        for s, segment in enumerate(segments):
            for q, mats in enumerate(segment):
                want[s, q] = np.eye(2) if not mats else mats[0]
                for m in mats[1:]:
                    want[s, q] = m @ want[s, q]
        program = GateProgram.from_gates(n, gates)
        assert program.factors.tobytes() == want.tobytes()
        assert program.cz_runs == tuple(runs)


def test_built_programs_pass_the_unitarity_check():
    # the check runs in __post_init__, so building is the test: a long product
    # of rotations on one qubit, and the largest sampled circuit
    spin = [GateSpec(("rx", "ry", "rz")[k % 3], 0, angle=0.1 + k) for k in range(2000)]
    want = apply_gatewise(1, spin, np.eye(2, dtype=complex))
    assert np.allclose(np.asarray(GateProgram.from_gates(1, spin)), want, atol=1e-11)
    program = sample_circuit(CircuitEnsemble("hardware_efficient", 16, layers=160),
                             np.random.default_rng(3))
    err = np.abs(program.factors.conj().swapaxes(-1, -2) @ program.factors - np.eye(2)).max()
    assert err < 1e-14


def test_dense_form_refused_above_max_dim():
    # 2^13 = 2 MAX_DIM: refused before the 1 GiB identity is allocated
    program = sample_circuit(CircuitEnsemble("hardware_efficient", 13, layers=2),
                             np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError, match="exceeds max"):
            np.asarray(program)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cz_matches_basis_loop():
    for control, target in ((0, 1), (1, 0), (0, 3), (3, 1), (2, 3)):
        gate = GateSpec("cz", target, control=control)
        got = np.diag(np.asarray(GateProgram.from_gates(4, (gate,))))
        assert np.array_equal(got, cz_diag(4, control, target))


def test_program_apply_on_columns():
    rng = np.random.default_rng(5)
    ens = CircuitEnsemble("hardware_efficient", 4, layers=3)
    prog = sample_circuit(ens, rng)
    block = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
    assert np.allclose(prog.apply(block), np.asarray(prog) @ block, atol=1e-12)
    assert np.allclose(prog.apply(block[:, 0]), np.asarray(prog) @ block[:, 0], atol=1e-12)
    assert np.array_equal(GateProgram.from_gates(4, ()).apply(block), block)


def test_apply_single_qubit_matches_kron():
    rng = np.random.default_rng(1)
    u = haar_random_unitary(8, rng)
    g = haar_random_unitary(2, rng)
    for q, words in ((0, (g, np.eye(4))), (2, (np.eye(4), g))):
        expected = np.kron(words[0], words[1]) @ u
        assert np.allclose(apply_single_qubit(u, g, q, 3), expected)


@st.composite
def programs(draw, max_gates=40):
    """Random (n, gate list) pairs on 1..11 qubits: rotations of every kind,
    repeated rotations on one qubit, and CZ gates anywhere, including first and last."""
    n = draw(st.integers(1, 11))
    rotation_gate = st.builds(
        GateSpec, st.sampled_from(["rx", "ry", "rz"]), st.integers(0, n - 1),
        angle=st.floats(-10.0, 10.0, allow_nan=False),
    )
    gate = rotation_gate
    if n > 1:
        pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        gate = rotation_gate | pair.map(lambda p: GateSpec("cz", p[1], control=p[0]))
    return n, draw(st.lists(gate, max_size=max_gates))


def random_states(n, columns, seed):
    rng = np.random.default_rng(seed)
    shape = (2**n,) if columns is None else (2**n, columns)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def assert_close(got, want, x):
    assert got.shape == want.shape == x.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(x)


def assert_matches_gatewise(n, gates, x):
    assert_close(GateProgram.from_gates(n, gates).apply(x), apply_gatewise(n, gates, x), x)


@settings(max_examples=80, deadline=None)
@given(programs(), st.sampled_from([None, 1, 3]), st.integers(0, 2**32 - 1))
def test_fused_apply_matches_gatewise(program, columns, seed):
    n, gates = program
    assert_matches_gatewise(n, gates, random_states(n, columns, seed))


@pytest.mark.parametrize("n", [2, 5, 6, 11])
@pytest.mark.parametrize("layout", ["cz_first", "cz_last", "cz_only", "empty"])
def test_fused_apply_edge_programs(n, layout):
    chain = [GateSpec("cz", q + 1, control=q) for q in range(n - 1)]
    rots = [GateSpec("rx", q, angle=0.3 + q) for q in range(n)] + [GateSpec("rz", 0, angle=1.7)]
    gates = {"cz_first": chain + rots, "cz_last": rots + chain, "cz_only": chain + chain[:1],
             "empty": []}[layout]
    for columns in (None, 4):
        assert_matches_gatewise(n, gates, random_states(n, columns, seed=n))


@st.composite
def program_stacks(draw, max_segments=5):
    """(n, S gate lists) on 1..11 qubits whose programs share their CZ runs:
    every list has the same CZ runs, and when it has rotations, at least one
    before each run, so that the lists cut into the same segments. Odd and
    even segment counts, one-segment, CZ-only and empty programs all occur."""
    n = draw(st.integers(1, 11))
    stack = draw(st.integers(1, 3))
    rotation_gate = st.builds(
        GateSpec, st.sampled_from(["rx", "ry", "rz"]), st.integers(0, n - 1),
        angle=st.floats(-10.0, 10.0, allow_nan=False),
    )
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    runs = [draw(st.lists(pair, min_size=1, max_size=3)) if n > 1 else []
            for _ in range(draw(st.integers(0, max_segments)))]
    rotations = draw(st.booleans())
    tail = rotations and draw(st.booleans())  # rotations after the last run
    lists = []
    for _ in range(stack):
        gates = []
        for run in runs + [[]] * tail:
            if rotations:
                gates += draw(st.lists(rotation_gate, min_size=1, max_size=6))
            gates += [GateSpec("cz", b, control=a) for a, b in run]
        lists.append(gates)
    return n, lists


def assert_stack_matches_gatewise(n, lists, columns, seed):
    x = random_states(n, columns, seed)
    xs = np.stack([x * (s + 1) + 1j * s for s in range(len(lists))])
    programs = [GateProgram.from_gates(n, gates) for gates in lists]
    got = apply_stack(programs, xs)
    assert got.shape == xs.shape and got.flags.c_contiguous
    for s, gates in enumerate(lists):
        assert_close(got[s], apply_gatewise(n, gates, xs[s]), xs[s])


@settings(max_examples=80, deadline=None)
@given(program_stacks(), st.sampled_from([1, 3, 4]), st.integers(0, 2**32 - 1))
def test_stacked_apply_matches_gatewise(stack, columns, seed):
    assert_stack_matches_gatewise(*stack, columns, seed)


@pytest.mark.parametrize("n", [2, 6, 11])
@pytest.mark.parametrize("segments", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("rotations", [True, False])
def test_stacked_apply_edge_programs(n, segments, rotations):
    # empty (0 segments), one-segment and CZ-only programs, and odd and even
    # segment counts, whose final layouts differ; a stack of 3 builds its
    # blocks 5 segments at a time, so at 7 the second chunk starts on an odd one
    rng = np.random.default_rng(10 * n + segments)
    chain = [GateSpec("cz", q + 1, control=q) for q in range(n - 1)]
    lists = []
    for _ in range(3):
        gates = []
        for s in range(segments):
            if rotations:
                gates += [GateSpec(("rx", "ry", "rz")[rng.integers(3)], q, angle=rng.uniform(0, 7))
                          for q in rng.permutation(n)]
            if s < segments - 1 or not rotations:
                gates += chain
        lists.append(gates)
    for columns in (1, 3, 4):
        assert_stack_matches_gatewise(n, lists, columns, seed=n + columns)


def test_stack_input_checks():
    ens = CircuitEnsemble("hardware_efficient", 3, layers=2)
    a, b = (sample_circuit(ens, np.random.default_rng(k)) for k in (0, 1))
    with pytest.raises(DimensionError):
        apply_stack([a, b], np.zeros((3, 8, 2)))
    with pytest.raises(DimensionError):
        apply_stack([a], np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match="CZ runs"):
        apply_stack([a, GateProgram.from_gates(3, ())], np.zeros((2, 8, 1)))


@st.composite
def any_programs(draw):
    """(n, program) on 1..11 qubits: every ensemble kind, hardware_efficient with
    0..4 layers, and parsed gate lists, which end on a rotation or on a CZ."""
    source = draw(st.sampled_from(["hardware_efficient", "one_design_layer", "identity", "gates"]))
    if source == "gates":
        n, gates = draw(programs())
        return n, GateProgram.from_gates(n, gates)
    n = draw(st.integers(1, 11))
    layers = draw(st.integers(0, 4)) if source == "hardware_efficient" else None
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, sample_circuit(CircuitEnsemble(source, n, layers=layers), rng)


def assert_adjoint_inverts(n, program, seed):
    adjoint = program.adjoint()
    assert adjoint.n == n and not adjoint.factors.flags.writeable
    # a leading identity segment carries the last CZ run, when there is one
    extra = int(bool(program.cz_runs) and bool(program.cz_runs[-1]))
    assert len(adjoint.cz_runs) == len(program.cz_runs) + extra
    x = random_states(n, 2, seed)
    assert np.max(np.abs(adjoint.apply(program.apply(x)) - x)) <= 1e-12 * np.max(np.abs(x))
    if n <= 6:
        assert np.max(np.abs(np.asarray(adjoint) - np.asarray(program).conj().T)) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(any_programs(), st.integers(0, 2**32 - 1))
def test_adjoint_inverts_the_program(program, seed):
    assert_adjoint_inverts(*program, seed)


@pytest.mark.parametrize("n", [1, 2, 6, 11])
@pytest.mark.parametrize("layout", ["cz_first", "cz_last", "cz_only", "rotations_only", "empty"])
def test_adjoint_edge_programs(n, layout):
    chain = [GateSpec("cz", q + 1, control=q) for q in range(n - 1)]
    rots = [GateSpec("ry", q, angle=0.4 + q) for q in range(n)] + [GateSpec("rx", 0, angle=2.1)]
    gates = {"cz_first": chain + rots, "cz_last": rots + chain + rots + chain,
             "cz_only": chain + chain[:1], "rotations_only": rots, "empty": []}[layout]
    assert_adjoint_inverts(n, GateProgram.from_gates(n, gates), seed=n)


def test_adjoints_of_a_stack_form_a_stack():
    rng = np.random.default_rng(4)
    ens = CircuitEnsemble("hardware_efficient", 7, layers=5)
    programs_ = [sample_circuit(ens, rng) for _ in range(3)]
    xs = rng.normal(size=(3, 2**7, 2)) + 0j
    back = apply_stack([p.adjoint() for p in programs_], apply_stack(programs_, xs))
    assert np.max(np.abs(back - xs)) <= 1e-12 * np.max(np.abs(xs))


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40 + 3])
@pytest.mark.parametrize("shape", [1, 5, 9, (1, 3), (16, 3)])
def test_angle_draws_match_uniform(seed, shape):
    # rng.random(k) * 2 pi is numpy's uniform(0, 2 pi, k), 0.0 + 2 pi d,
    # value for value, and leaves the generator in the same state
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(a.random(shape) * (2 * np.pi), b.uniform(0.0, 2 * np.pi, shape))
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("n,blocks", [(1, 1), (5, 1), (6, 2), (11, 3), (16, 4)])
def test_qubit_blocks_balanced(n, blocks):
    edges = _qubit_blocks(n)
    assert len(edges) == blocks
    assert edges[0][0] == 0 and edges[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    sizes = [q1 - q0 for q0, q1 in edges]
    assert max(sizes) <= 5 and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("n", [1, 2, 5, 6, 11])
@pytest.mark.parametrize("kind,layers", [
    ("identity", None), ("one_design_layer", None), ("hardware_efficient", 0),
    ("hardware_efficient", 1), ("hardware_efficient", 40),
])
def test_fused_apply_matches_gatewise_on_ensembles(kind, layers, n):
    # the sampled factors against the sampled gate list applied gate by gate:
    # n = 5, 6 and 11 fuse each segment into 1, 2 and 3 blocks; 40 layers are
    # 40 segments, whose blocks are built in three chunks; n = 1 has no CZ chain
    ens = CircuitEnsemble(kind, n, layers=layers)
    rng_a, rng_b = np.random.default_rng(n), np.random.default_rng(n)
    program, gates = sample_circuit(ens, rng_a), sample_gates(ens, rng_b)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    for columns in (None, 4):
        x = random_states(n, columns, seed=n + 1)
        assert_close(program.apply(x), apply_gatewise(n, gates, x), x)


@pytest.mark.parametrize("kind,layers", [
    ("identity", None), ("one_design_layer", None), ("hardware_efficient", 90),
])
def test_sampling_builds_no_gate_specs(kind, layers, monkeypatch):
    def refuse(self):
        raise AssertionError("GateSpec built while sampling")

    monkeypatch.setattr(GateSpec, "__post_init__", refuse)
    program = sample_circuit(CircuitEnsemble(kind, 9, layers=layers), np.random.default_rng(9))
    assert program.factors.shape[1:] == (9, 2, 2)


class TestSampleCircuit:
    def test_identity(self):
        ens = CircuitEnsemble("identity", 3)
        assert np.allclose(sample_circuit(ens, np.random.default_rng(0)), np.eye(8))

    @pytest.mark.parametrize("kind", ["one_design_layer", "hardware_efficient"])
    def test_unitarity(self, kind):
        ens = CircuitEnsemble(kind, 3, layers=4 if kind == "hardware_efficient" else None)
        u = np.asarray(sample_circuit(ens, np.random.default_rng(2)))
        assert u.shape == (8, 8)
        assert is_unitary(u)

    def test_layers_required(self):
        with pytest.raises(ValueError, match="layer count"):
            CircuitEnsemble("hardware_efficient", 4)
        assert CircuitEnsemble("hardware_efficient", 4, layers=7).layers == 7
        assert CircuitEnsemble("one_design_layer", 4).layers is None

    def test_zero_layers_is_initial_wall(self):
        ens = CircuitEnsemble("hardware_efficient", 2, layers=0)
        u = sample_circuit(ens, np.random.default_rng(3))
        ry = rotation("y", np.pi / 4)
        assert np.allclose(u, np.kron(ry, ry))

    def test_deterministic_given_rng_state(self):
        ens = CircuitEnsemble("hardware_efficient", 3, layers=5)
        a = sample_circuit(ens, np.random.default_rng(7))
        b = sample_circuit(ens, np.random.default_rng(7))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind,n,layers", [
        ("identity", 3, None),
        ("one_design_layer", 1, None),
        ("one_design_layer", 5, None),
        ("hardware_efficient", 1, 3),
        ("hardware_efficient", 4, 40),
        ("hardware_efficient", 6, 7),
    ])
    def test_matches_dense_construction(self, kind, n, layers):
        # same draws from the rng, same circuit as the dense 2^n x 2^n build
        ens = CircuitEnsemble(kind, n, layers=layers)
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
        u = np.asarray(sample_circuit(ens, rng_a))
        assert np.allclose(u, sample_circuit_dense(ens, rng_b), atol=1e-12)
        assert rng_a.random() == rng_b.random()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CircuitEnsemble("clifford", 3)


def test_one_design_layer_first_moment():
    # E[V A V+] should approach tr(A)/d I for the per-qubit random-axis layer
    rng = np.random.default_rng(11)
    ens = CircuitEnsemble("one_design_layer", 2)
    a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    acc = np.zeros((4, 4), dtype=complex)
    n_samples = 10_000
    for _ in range(n_samples):
        v = np.asarray(sample_circuit(ens, rng))
        acc += v @ a @ v.conj().T
    acc /= n_samples
    assert np.max(np.abs(acc - np.eye(4) / 4)) < 0.02


def test_hardware_efficient_frame_potential():
    # second frame potential E|tr(U+W)|^4 approaches the 2-design value 2
    rng = np.random.default_rng(13)
    ens = CircuitEnsemble("hardware_efficient", 4, layers=40)
    pairs = 2000
    us = [np.asarray(sample_circuit(ens, rng)) for _ in range(2 * pairs)]
    vals = [abs(np.trace(us[2 * i].conj().T @ us[2 * i + 1])) ** 4 for i in range(pairs)]
    est = np.mean(vals)
    assert abs(est - 2.0) < 0.4  # within 20% of the Haar value


class TestLocalUnitary:
    def test_m1(self):
        p = LocalUnitaryParams((0.1, 0.2, 0.3))
        assert p.m == 1
        assert np.allclose(local_unitary(p), euler_zyz(0.1, 0.2, 0.3))

    def test_m1_half_turn_about_y(self):
        u = local_unitary(LocalUnitaryParams((0.0, np.pi, 0.0)))
        assert np.allclose(u, np.array([[0, -1], [1, 0]], dtype=complex))

    def test_m1_zero_is_identity(self):
        assert np.allclose(local_unitary(LocalUnitaryParams((0.0, 0.0, 0.0))), np.eye(2))

    def test_m2_unitary(self):
        rng = np.random.default_rng(4)
        p = LocalUnitaryParams(tuple(rng.normal(size=15)))
        assert p.m == 2
        assert is_unitary(local_unitary(p))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            LocalUnitaryParams((0.1, 0.2))


def test_su4_generators():
    gens = su4_generators()
    assert len(gens) == 15
    assert np.allclose(gens[0], pauli_word_matrix("IX"))
    assert np.allclose(gens[-1], pauli_word_matrix("ZZ"))
    for g in gens:
        assert abs(np.trace(g)) < 1e-12


def test_cached_arrays_are_read_only():
    # every caller shares the cached arrays, so none may write into them
    gens = su4_generators()
    assert isinstance(gens, tuple)
    assert su4_generators() is gens
    us, angs = _euler_grid(8)
    for a in gens + (us, angs):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


class TestEmbedLocal:
    def test_leading_site(self):
        part = BipartitePartition(3, (0,))
        assert np.allclose(embed_local(PAULI["X"], part), pauli_word_matrix("XII"))

    def test_interior_site(self):
        part = BipartitePartition(3, (1,))
        assert np.allclose(embed_local(PAULI["Y"], part), pauli_word_matrix("IYI"))

    def test_two_site_noncontiguous(self):
        part = BipartitePartition(3, (0, 2))
        ua = kron(PAULI["X"], PAULI["Z"])
        assert np.allclose(embed_local(ua, part), pauli_word_matrix("XIZ"))

    def test_dimension_check(self):
        with pytest.raises(Exception):
            embed_local(np.eye(4), BipartitePartition(3, (0,)))


def test_assemble_order():
    part = BipartitePartition(2, (0,))
    v1 = pauli_word_matrix("IX")
    v2 = pauli_word_matrix("ZI")
    out = assemble(v1, PAULI["Y"], v2, part)
    assert np.allclose(out, v2 @ pauli_word_matrix("YI") @ v1)
