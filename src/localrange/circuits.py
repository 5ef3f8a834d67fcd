"""Parameterized gates, the layered hardware-efficient ansatz, and gate programs.

Rotation convention: R_P(theta) = exp(-i theta P / 2). A sampled circuit is a
``GateProgram``: an ordered gate list applied to a block of state vectors, so
no 2^n x 2^n matrix is formed. The rotations between two runs of CZ gates are
fused: they act as ceil(n / 5) Kronecker blocks of at most 5 qubits, each one
matmul at O(2^n 2^b) per column for a b-qubit block, and a CZ run is one
diagonal at O(2^n). Its dense unitary is available through ``np.asarray`` for
small-n checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .linalg import PAULI, DimensionError

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

    kind: 'identity' | 'one_design_layer' | 'hardware_efficient' | 'haar'.
    ``layers`` applies to hardware_efficient only, which requires it.
    """

    kind: str
    n: int
    layers: int | None = None

    def __post_init__(self):
        if self.kind not in ("identity", "one_design_layer", "hardware_efficient", "haar"):
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


def rotation(axis: str, theta: float) -> np.ndarray:
    """exp(-i theta P / 2) for P in {X, Y, Z}."""
    p = PAULI[axis.upper()]
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return c * PAULI["I"] - 1j * s * p


def euler_zyz(phi: float, theta: float, alpha: float) -> np.ndarray:
    """Rz(phi) Ry(theta) Rz(alpha)."""
    return rotation("z", phi) @ rotation("y", theta) @ rotation("z", alpha)


_PAULI_XYZ = np.stack([PAULI[a] for a in "XYZ"])


def _rotation_matrices(gates: list[GateSpec]) -> np.ndarray:
    """rotation(g.kind[1], g.angle) for every gate at once, shape (len(gates), 2, 2)."""
    theta = np.array([g.angle for g in gates], dtype=float)[:, None, None]
    p = _PAULI_XYZ[[ROTATION_KINDS.index(g.kind) for g in gates]]
    return np.cos(theta / 2) * PAULI["I"] - 1j * np.sin(theta / 2) * p


# Qubits per fused block: a run of rotations acts as one 2^b x 2^b matrix per
# block of at most this many contiguous qubits. At 5 a block matrix is 32 x 32,
# cheap to build per segment and large enough that a layer of n rotations costs
# ceil(n / 5) matmuls instead of n small products.
FUSION_BLOCK_QUBITS = 5
# Segments whose block matrices are built together; bounds their memory.
_FUSION_CHUNK = 16


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


@dataclass(frozen=True)
class GateProgram:
    """A circuit on n qubits as an ordered list of bound gates, first gate first.

    ``apply`` acts on state vectors; ``np.asarray(program)`` gives the dense
    unitary, built by applying the program to the identity.
    """

    n: int
    gates: tuple[GateSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            for q in (g.target,) + (() if g.control is None else (g.control,)):
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")
            if g.kind != "cz" and g.angle is None:
                raise ValueError("rotation gate has no angle bound")

    def _segments(self) -> tuple[np.ndarray, list[tuple[tuple[int, int], ...]]]:
        """The gate list cut after each run of CZ gates, in one pass.

        Within a segment the rotations on different qubits commute, so the
        segment is one tensor product of per-qubit factors followed by its CZ
        run. Returns (factors, cz_runs): factors[s, q] is the ordered product of
        segment s's rotations on qubit q (the identity if none), shape
        (segments, n, 2, 2), and cz_runs[s] the CZ pairs that end segment s,
        empty for a last segment that has none.
        """
        rots, where, cz_runs, pairs, count = [], [], [], [], {}
        for g in self.gates:
            if g.kind == "cz":
                pairs.append((g.control, g.target))
                continue
            if pairs:
                cz_runs.append(tuple(pairs))
                pairs, count = [], {}
            rank = count.get(g.target, 0)
            count[g.target] = rank + 1
            rots.append(g)
            where.append((len(cz_runs), g.target, rank))
        if self.gates:
            cz_runs.append(tuple(pairs))
        factors = np.zeros((len(cz_runs), self.n, 2, 2), dtype=complex)
        factors[:, :, 0, 0] = factors[:, :, 1, 1] = 1.0
        if rots:
            mats = _rotation_matrices(rots)
            seg, qubit, rank = np.array(where).T
            # the k-th rotation on each (segment, qubit), for all of them at once
            for k in range(rank.max() + 1):
                at = rank == k
                s, q = seg[at], qubit[at]
                factors[s, q] = mats[at] if k == 0 else mats[at] @ factors[s, q]
        return factors, cz_runs

    def apply(self, states) -> np.ndarray:
        """U applied to a (2^n,) vector or to each column of a (2^n, k) block.

        Each segment (see ``_segments``) acts as one 2^b x 2^b matmul per block
        of b qubits (``_qubit_blocks``), then its CZ run as one diagonal.
        """
        out = np.array(states, dtype=complex)
        if out.shape[0] != 2**self.n:
            raise DimensionError(f"state dim {out.shape[0]} != 2^{self.n}")
        shape, column = out.shape, (-1,) + (1,) * (out.ndim - 1)
        factors, cz_runs = self._segments()
        blocks = _qubit_blocks(self.n)
        for start in range(0, len(cz_runs), _FUSION_CHUNK):
            chunk = slice(start, start + _FUSION_CHUNK)
            krons = [_kron_qubits(factors[chunk, q0:q1]) for q0, q1 in blocks]
            for s, pairs in enumerate(cz_runs[chunk]):
                for (q0, q1), kron in zip(blocks, krons):
                    out = np.matmul(kron[s], out.reshape(2**q0, 2 ** (q1 - q0), -1)).reshape(shape)
                if pairs:
                    out *= _cz_signs(self.n, pairs).reshape(column)
        return out

    def __array__(self, dtype=None, copy=None):
        u = self.apply(np.eye(2**self.n, dtype=complex))
        return u if dtype is None else u.astype(dtype, copy=False)


def sample_circuit(ensemble: CircuitEnsemble, rng: np.random.Generator) -> GateProgram | np.ndarray:
    """Draw one circuit from the ensemble.

    Every kind but ``haar`` gives a GateProgram; a Haar unitary has no gate
    form and comes back as a dense matrix.
    """
    n = ensemble.n
    if ensemble.kind == "identity":
        return GateProgram(n)
    if ensemble.kind == "haar":
        from .haar import haar_random_unitary

        return haar_random_unitary(2**n, rng)
    if ensemble.kind == "one_design_layer":
        gates = []
        # euler_zyz(phi, theta, alpha) = Rz(phi) Ry(theta) Rz(alpha) on each qubit
        for q in range(n):
            phi, theta, alpha = rng.uniform(0.0, 2 * np.pi, size=3)
            gates += [GateSpec("rz", q, angle=alpha), GateSpec("ry", q, angle=theta),
                      GateSpec("rz", q, angle=phi)]
        return GateProgram(n, gates)
    # hardware_efficient: Ry(pi/4) on every qubit, then `layers` random layers of
    # uniform-axis rotations plus the nearest-neighbor CZ chain.
    gates = [GateSpec("ry", q, angle=np.pi / 4) for q in range(n)]
    chain = [GateSpec("cz", q + 1, control=q) for q in range(n - 1)]
    for _ in range(ensemble.layers):
        axes = rng.integers(0, 3, size=n)
        angles = rng.uniform(0.0, 2 * np.pi, size=n)
        gates += [GateSpec(ROTATION_KINDS[a], q, angle=t)
                  for q, (a, t) in enumerate(zip(axes.tolist(), angles.tolist()))]
        gates += chain
    return GateProgram(n, gates)


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
    gen = sum(c * g for c, g in zip(params.values, su4_generators()))
    return expm(-1j * gen)
