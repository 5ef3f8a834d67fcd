"""Parameterized gates, the layered hardware-efficient ansatz, and gate programs.

Rotation convention: R_P(theta) = exp(-i theta P / 2). A sampled circuit is a
``GateProgram``: an ordered gate list applied to a block of state vectors at
O(2^n) per gate and column, so no 2^n x 2^n matrix is formed. Its dense
unitary is available through ``np.asarray`` for small-n checks.
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
    circuit); CZ has no angle.
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
        if self.kind == "cz" and self.control is None:
            raise ValueError("cz gate needs a control qubit")


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


def apply_single_qubit(states: np.ndarray, gate2: np.ndarray, q: int, n: int) -> np.ndarray:
    """Left-multiply a single-qubit gate on qubit q into a (2^n, ...) array.

    The array is a state vector, a block of column states, or a dense matrix.
    """
    if states.shape[0] != 2**n:
        raise DimensionError(f"state dim {states.shape[0]} != 2^{n}")
    view = states.reshape(2**q, 2, -1)
    if view.shape[0] <= view.shape[2]:
        # few, wide blocks: one batched matrix product
        return np.matmul(gate2, view).reshape(states.shape)
    # many narrow blocks, where matmul loops over the batch:
    # out[:, a] = gate2[a, 0] view[:, 0] + gate2[a, 1] view[:, 1], broadcast over a
    out = gate2[:, :1] * view[:, :1] + gate2[:, 1:] * view[:, 1:]
    return out.reshape(states.shape)


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

    def _steps(self) -> list[tuple[int | None, np.ndarray]]:
        """(qubit, 2x2 matrix) per rotation and (None, diagonal) per run of CZ gates."""
        mats = iter(_rotation_matrices([g for g in self.gates if g.kind != "cz"]))
        steps, pairs = [], []
        for g in self.gates:
            if g.kind == "cz":
                pairs.append((g.control, g.target))
                continue
            if pairs:
                steps.append((None, _cz_signs(self.n, tuple(pairs))))
                pairs = []
            steps.append((g.target, next(mats)))
        if pairs:
            steps.append((None, _cz_signs(self.n, tuple(pairs))))
        return steps

    def apply(self, states) -> np.ndarray:
        """U applied to a (2^n,) vector or to each column of a (2^n, k) block."""
        out = np.array(states, dtype=complex)
        if out.shape[0] != 2**self.n:
            raise DimensionError(f"state dim {out.shape[0]} != 2^{self.n}")
        column = (-1,) + (1,) * (out.ndim - 1)
        for q, op in self._steps():
            if q is None:
                out = out * op.reshape(column)
            else:
                out = apply_single_qubit(out, op, q, self.n)
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
