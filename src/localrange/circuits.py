"""Parameterized gates, the layered hardware-efficient ansatz, and gate programs.

Rotation convention: R_P(theta) = exp(-i theta P / 2). A sampled circuit is a
``GateProgram``: its fused segments, each one 2 x 2 factor per qubit then a CZ
run, drawn directly by ``sample_circuit``; a ``GateSpec`` list is an input
format, parsed once by ``GateProgram.from_gates``. ``apply_stack`` runs a
stack of programs sharing their CZ runs (``GateProgram.apply``: a stack of one)
segment by segment: ceil(n / 5) Kronecker blocks of at most 5 qubits, each one
gemm per program whatever the column count, then the CZ run as one diagonal.
Ping-pong layout: an even segment contracts the leading qubit block and moves
it to the end (Y^T K^T, a transposed view), an odd one the trailing block to
the front (K Y^T), so the column axis goes to the front and back with no copy.
Only ``np.asarray`` (small-n checks) forms the 2^n x 2^n matrix.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import MAX_DIM, PAULI, DimensionError

ROTATION_KINDS = ("rx", "ry", "rz")
GATE_KINDS = ROTATION_KINDS + ("cz",)


@dataclass(frozen=True)
class GateSpec:
    """One gate: a single-qubit rotation or a CZ between two qubits.

    ``angle=None`` marks a free parameter (filled in by a parameterized
    circuit). CZ has a control distinct from its target and no angle; a
    rotation has no control.
    """

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if not self.kind.islower():
            object.__setattr__(self, "kind", self.kind.lower())
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cz":
            if self.control is None:
                raise ValueError("cz gate needs a control qubit")
            if self.control == self.target:
                raise ValueError(f"cz gate needs two qubits, got control = target = {self.target}")
            if self.angle is not None:
                raise ValueError("cz gate takes no angle")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control qubit")


@dataclass(frozen=True)
class CircuitEnsemble:
    """Recipe for sampling V1 or V2.

    kind: 'identity' | 'one_design_layer' | 'hardware_efficient'.
    ``layers`` applies to hardware_efficient only, which requires it.
    """

    kind: str
    n: int
    layers: int | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "one_design_layer", "hardware_efficient"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.kind == "hardware_efficient" and self.layers is None:
            raise ValueError("hardware_efficient needs a layer count")
        if self.layers is not None and self.layers < 0:
            raise ValueError("layer count must be nonnegative")


@dataclass(frozen=True)
class LocalUnitaryParams:
    """Parameters of the tunable local gate.

    Three Euler angles (phi, theta, alpha) for one qubit, or 15 generator
    coefficients for a two-qubit gate.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) not in (3, 15):
            raise ValueError("expected 3 Euler angles (m=1) or 15 coefficients (m=2)")

    @property
    def m(self) -> int:
        return 1 if len(self.values) == 3 else 2


_PAULI_XYZ = np.stack([PAULI[a] for a in "XYZ"])


def _rotation_matrices(axes, angles) -> np.ndarray:
    """exp(-i theta P / 2), P = (X, Y, Z)[axis], over arrays of axes and angles."""
    half = np.asarray(angles, dtype=float)[..., None, None] / 2
    return np.cos(half) * PAULI["I"] - 1j * np.sin(half) * _PAULI_XYZ[axes]


def rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta P / 2) for P in {X, Y, Z}."""
    return _rotation_matrices("XYZ".index(axis.upper()), theta)


def euler_zyz(phi: float, theta: float, alpha: float) -> np.ndarray:
    """Rz(phi) Ry(theta) Rz(alpha)."""
    return rotation("z", phi) @ rotation("y", theta) @ rotation("z", alpha)


# Qubits per fused block: a run of rotations acts as one 2^b x 2^b matrix per
# block of at most this many contiguous qubits. At 5 a block matrix is 32 x 32,
# cheap to build per segment and large enough that a layer of n rotations costs
# ceil(n / 5) matmuls instead of n small products.
FUSION_BLOCK_QUBITS = 5
# Block matrices built at once per qubit block, over a stack's programs and segments.
_FUSION_CHUNK = 16
# Largest max |F+ F - I| accepted for a program's 2 x 2 factors; a product of
# k exact rotations is off by about k * 1e-16.
UNITARY_ATOL = 1e-10


def _qubit_blocks(n: int) -> list[tuple[int, int]]:
    """Qubits 0..n-1 as balanced contiguous [q0, q1) blocks of at most
    FUSION_BLOCK_QUBITS qubits."""
    count = -(-n // FUSION_BLOCK_QUBITS)
    edges = [n * i // count for i in range(count + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _kron_qubits(factors: np.ndarray) -> np.ndarray:
    """Kronecker product over axis 1 of (S, b, 2, 2) factors, the first qubit most
    significant: shape (S, 2^b, 2^b).

    Built from the last qubit up, so that each outer product runs its innermost
    loop over the grown matrix rather than over a 2 x 2 factor.
    """
    out = factors[:, -1]
    for j in range(factors.shape[1] - 2, -1, -1):
        dim = 2 * out.shape[1]
        out = (factors[:, j, :, None, :, None] * out[:, None, :, None, :]).reshape(-1, dim, dim)
    return out


@lru_cache(maxsize=64)
def _cz_signs(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Diagonal of the product of CZ gates on the qubit pairs: -1 where an odd
    number of pairs has both qubits set."""
    idx = np.arange(2**n)
    parity = np.zeros(2**n, dtype=int)
    for a, b in pairs:
        parity ^= (idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1
    signs = 1.0 - 2.0 * parity
    signs.flags.writeable = False  # shared by every caller through the cache
    return signs


@dataclass(frozen=True, eq=False)
class GateProgram:
    """A circuit on n qubits as its fused segments, first segment first.

    Segment s is the tensor product over qubits q of ``factors[s, q]`` (kept as
    a read-only (segments, n, 2, 2) copy, each factor unitary within
    ``UNITARY_ATOL``), then CZ on each pair in ``cz_runs[s]``. ``from_gates``
    parses a gate list into this form and ``adjoint`` gives the program of U+.
    ``np.asarray(program)`` is the dense unitary, up to ``linalg.MAX_DIM``.
    """

    n: int
    factors: np.ndarray
    cz_runs: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        factors = np.array(self.factors, dtype=complex)
        cz_runs = tuple(map(tuple, self.cz_runs))
        if factors.shape != (len(cz_runs), self.n, 2, 2):
            raise ValueError(f"factors shape {factors.shape} != ({len(cz_runs)}, {self.n}, 2, 2)")
        # each distinct pair once: a CZ chain shared by every segment is one run
        for a, b in {pair for run in set(cz_runs) for pair in run}:
            if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
                raise ValueError(f"cz pair ({a}, {b}) needs two different qubits below n={self.n}")
        # max |F+ F - I| of each F = [[a, b], [c, d]]: its column norms and their overlap
        a, b, c, d = factors.reshape(-1, 4).T
        err = np.maximum.reduce([abs(abs(a) ** 2 + abs(c) ** 2 - 1), abs(abs(b) ** 2 + abs(d) ** 2 - 1),
                                 abs(a.conj() * b + c.conj() * d)])
        if err.size and not err.max() <= UNITARY_ATOL:  # NaN fails too
            s, q = divmod(int(err.argmax()), self.n)
            raise ValueError(f"factor of segment {s}, qubit {q} is not unitary: "
                             f"max |F+ F - I| = {err.max():.3e} > {UNITARY_ATOL}")
        factors.flags.writeable = False
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "cz_runs", cz_runs)

    @classmethod
    def from_gates(cls, n: int, gates) -> GateProgram:
        """Parse an ordered gate list, first gate first, into its segments.

        The list is cut after each run of CZ gates. Within a segment the
        rotations on different qubits commute, so factors[s, q] is the ordered
        product of segment s's rotations on qubit q (the identity if none).
        Every rotation needs a bound angle.
        """
        gates = tuple(gates)
        if not gates:
            return cls(n, np.zeros((0, n, 2, 2)), ())
        segments, cz_runs, pairs = [{}], [], []  # segments[s][q]: the product so far
        for g in gates:
            if g.kind == "cz":
                pairs.append((g.control, g.target))
                continue
            if not 0 <= g.target < n:
                raise ValueError(f"qubit {g.target} out of range for n={n}")
            if g.angle is None:
                raise ValueError("rotation gate has no angle bound")
            if pairs:
                cz_runs.append(tuple(pairs))
                segments.append({})
                pairs = []
            segment = segments[-1]
            r = rotation(g.kind[1], g.angle)
            segment[g.target] = r @ segment[g.target] if g.target in segment else r
        cz_runs.append(tuple(pairs))
        eye = np.eye(2)
        return cls(n, [[segment.get(q, eye) for q in range(n)] for segment in segments], cz_runs)

    def adjoint(self) -> GateProgram:
        """The program of U+: the factors conjugate-transposed in reverse order, each
        segment closed by the CZ run that preceded it in U (CZ is its own inverse).

        U+ starts with U's last CZ run, so a leading identity-factor segment carries it
        when that run is non-empty. The adjoints of a stack share their CZ runs. The
        factors were checked unitary when U was built, so U+ is not checked again.
        """
        factors = self.factors[::-1].conj().swapaxes(-1, -2)
        cz_runs = self.cz_runs[-2::-1] + ((),) if self.cz_runs else ()
        if self.cz_runs and self.cz_runs[-1]:
            factors = np.concatenate([np.broadcast_to(np.eye(2), (1, self.n, 2, 2)), factors])
            cz_runs = (self.cz_runs[-1],) + cz_runs
        factors.flags.writeable = False
        adjoint = copy.copy(self)
        object.__setattr__(adjoint, "factors", factors)
        object.__setattr__(adjoint, "cz_runs", cz_runs)
        return adjoint

    def apply(self, states) -> np.ndarray:
        """U applied to a (2^n,) vector or to each column of a (2^n, k) block."""
        x = np.asarray(states)
        return apply_stack((self,), x.reshape(1, x.shape[0], -1))[0].reshape(x.shape)

    def __array__(self, dtype=None, copy=None):
        if 2**self.n > MAX_DIM:
            raise DimensionError(f"dense program dimension 2^{self.n} exceeds max {MAX_DIM}")
        u = self.apply(np.eye(2**self.n, dtype=complex))
        return u if dtype is None else u.astype(dtype, copy=False)


def apply_stack(programs, states) -> np.ndarray:
    """Program s of ``programs`` applied to each column of ``states[s]``, in the
    ping-pong layout; ``states`` is an (S, 2^n, k) stack and the S programs
    share n and their CZ runs. Returns a new C-contiguous stack."""
    n, cz_runs = programs[0].n, programs[0].cz_runs
    if any(p.n != n or p.cz_runs != cz_runs for p in programs):
        raise ValueError("the programs of a stack must share n and their CZ runs")
    x = np.array(states, dtype=complex)
    stack, d, columns = x.shape
    if (stack, d) != (len(programs), 2**n):
        raise DimensionError(f"states of shape {x.shape} for {len(programs)} programs on 2^{n}")
    factors = np.stack([p.factors for p in programs], axis=1)  # (segments, S, n, 2, 2)
    blocks = _qubit_blocks(n)
    chunk = max(1, _FUSION_CHUNK // stack)
    for start in range(0, len(cz_runs), chunk):
        seg = factors[start:start + chunk]
        krons = [_kron_qubits(seg[:, :, q0:q1].reshape(-1, q1 - q0, 2, 2))
                 .reshape(len(seg), stack, 2 ** (q1 - q0), 2 ** (q1 - q0)) for q0, q1 in blocks]
        for s, pairs in enumerate(cz_runs[start:start + chunk]):
            if (start + s) % 2 == 0:  # (blocks, columns) -> (columns, blocks)
                for (q0, q1), kron in zip(blocks, krons):
                    x = np.matmul(x.reshape(stack, 2 ** (q1 - q0), -1).transpose(0, 2, 1),
                                  kron[s].transpose(0, 2, 1))
                x = x.reshape(stack, columns, d)
                if pairs:
                    x *= _cz_signs(n, pairs)
            else:  # (columns, blocks) -> (blocks, columns)
                for (q0, q1), kron in zip(reversed(blocks), reversed(krons)):
                    x = np.matmul(kron[s], x.reshape(stack, -1, 2 ** (q1 - q0)).transpose(0, 2, 1))
                x = x.reshape(stack, d, columns)
                if pairs:
                    x *= _cz_signs(n, pairs)[:, None]
    if len(cz_runs) % 2:
        x = x.transpose(0, 2, 1)
    return np.ascontiguousarray(x)


def sample_circuit(ensemble: CircuitEnsemble, rng: np.random.Generator) -> GateProgram:
    """Draw one circuit from the ensemble, straight into its segments."""
    n = ensemble.n
    if ensemble.kind == "identity":
        return GateProgram.from_gates(n, ())
    if ensemble.kind == "one_design_layer":
        # a row (phi, theta, alpha) per qubit, axes (z, y, z): Rz(phi) (Ry(theta) Rz(alpha))
        m = _rotation_matrices([2, 1, 2], rng.random((n, 3)) * (2 * np.pi))
        return GateProgram(n, [m[:, 0] @ (m[:, 1] @ m[:, 2])], ((),))
    # hardware_efficient: Ry(pi/4) on every qubit, then `layers` random layers of
    # uniform-axis rotations, each ended by the nearest-neighbor CZ chain.
    wall = rotation("y", np.pi / 4)
    if ensemble.layers == 0:
        return GateProgram(n, np.broadcast_to(wall, (1, n, 2, 2)), ((),))
    draws = [(rng.integers(0, 3, size=n), rng.random(n) * (2 * np.pi))
             for _ in range(ensemble.layers)]
    factors = _rotation_matrices(*map(np.array, zip(*draws)))  # (axes, angles), each (layers, n)
    factors[0] = factors[0] @ wall
    chain = tuple((q, q + 1) for q in range(n - 1))
    return GateProgram(n, factors, (chain,) * ensemble.layers)


@lru_cache(maxsize=1)
def su4_generators() -> tuple[np.ndarray, ...]:
    """The 15 nonidentity two-qubit Pauli words, in lexicographic order, read-only."""
    gens = tuple(np.kron(PAULI[a], PAULI[b]) for a in "IXYZ" for b in "IXYZ" if a + b != "II")
    for g in gens:
        g.flags.writeable = False  # shared by every caller through the cache
    return gens


def local_unitary(params: LocalUnitaryParams) -> np.ndarray:
    """The tunable local gate: ZYZ Euler angles (m=1) or exp(-i sum c_k G_k) (m=2)."""
    if params.m == 1:
        return euler_zyz(*params.values)
    from scipy.linalg import expm  # loaded on first m = 2 use only

    gen = sum(c * g for c, g in zip(params.values, su4_generators()))
    return expm(-1j * gen)
