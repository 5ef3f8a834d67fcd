"""Register bipartitions, qubit reorders, partial traces, density checks and spectral widths.

Everything operates on plain numpy arrays (complex128); ``check_density``
validates a density matrix at an API boundary.

Basis-ordering convention: qubit 0 is the most significant tensor factor, so
``np.kron(A, B)`` puts A on the lower-numbered qubits; ``BipartitePartition.a_first``
is the one order in which subsystem A leads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dimension of a dense operator: it guards the dense forms of an
# observable and of a gate program and the test oracles, not the statevector
# harness or `bounds`, whose n cap is harness.MAX_QUBITS. At 2^14 one dense
# complex matrix alone is 4 GiB.
MAX_DIM = 2**12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10


class DimensionError(ValueError):
    """Operand dimensions are incompatible or out of range."""


def as_matrix(a) -> np.ndarray:
    """Coerce an array-like to a square complex ndarray."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(m: np.ndarray, atol: float) -> bool:
    """max |m - m+| <= atol * max(1, max |m|)."""
    scale = max(1.0, max_abs(m))
    return max_abs(m - m.conj().T) <= atol * scale


def check_density(rho) -> np.ndarray:
    """rho as a square complex ndarray, after checking that it is Hermitian, of unit
    trace and has no eigenvalue below DENSITY_EIG_FLOOR; ValueError if not."""
    m = as_matrix(rho)
    if not is_hermitian(m, atol=1e-10):
        raise ValueError("density matrix must be Hermitian")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise ValueError(f"density matrix trace {tr} != 1")
    if float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) < DENSITY_EIG_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue")
    return m


@dataclass(frozen=True)
class BipartitePartition:
    """Split of an n-qubit register into subsystem A (a_sites) and the rest B."""

    n: int
    a_sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a_sites", tuple(int(q) for q in self.a_sites))
        if self.n < 2:
            raise ValueError("need at least two qubits to bipartition")
        m = len(self.a_sites)
        if not 1 <= m < self.n:
            raise ValueError(f"subsystem A must satisfy 1 <= m < n, got m={m}, n={self.n}")
        if len(set(self.a_sites)) != m:
            raise ValueError("a_sites contains duplicates")
        if any(q < 0 or q >= self.n for q in self.a_sites):
            raise ValueError(f"a_sites {self.a_sites} out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.a_sites)

    @property
    def d_A(self) -> int:
        return 2**self.m

    @property
    def d_B(self) -> int:
        return 2 ** (self.n - self.m)

    @property
    def d(self) -> int:
        return 2**self.n

    @property
    def b_sites(self) -> tuple[int, ...]:
        return tuple(q for q in range(self.n) if q not in self.a_sites)

    @property
    def a_first(self) -> tuple[int, ...]:
        """Qubit labels with subsystem A leading: the order of every d_A x d_B split."""
        return self.a_sites + self.b_sites


def partial_trace(mat, part: BipartitePartition, traced: str) -> np.ndarray:
    """Trace out subsystem A or B of an operator on the full register.

    traced='B' returns a d_A x d_A matrix ordered like part.a_sites; traced='A'
    returns d_B x d_B ordered by ascending b_sites.
    """
    if traced not in ("A", "B"):
        raise ValueError("traced must be 'A' or 'B'")
    t = to_a_first(as_matrix(mat), part, operator=True).reshape(part.d_A, part.d_B, part.d_A, part.d_B)
    return np.einsum("aibi->ab" if traced == "B" else "iaib->ab", t)


def to_a_first(x: np.ndarray, part: BipartitePartition, operator: bool = False,
               inverse: bool = False) -> np.ndarray:
    """Reorder the qubit factors of x from ascending labels to ``part.a_first``.

    x is a (2^n,) vector or a (2^n, k) block, whose rows are reordered, or with
    ``operator`` a 2^n x 2^n matrix, whose rows and columns both are.
    ``inverse`` reorders from ``part.a_first`` back to ascending labels.
    """
    n = part.n
    if x.shape[0] != part.d or (operator and x.shape[1] != part.d):
        raise DimensionError(f"array shape {x.shape} does not match 2^{n}")
    perm = list(part.a_first)
    if inverse:
        perm = [perm.index(q) for q in range(n)]
    k = 2 if operator else 1
    t = x.reshape((2,) * (k * n) + x.shape[k:])
    axes = perm + [n + p for p in perm] * (k - 1) + list(range(k * n, t.ndim))
    return t.transpose(axes).reshape(x.shape)


def spectral_width(h) -> float:
    """w(H): spread between the largest and smallest eigenvalue.

    An observable with its own ``width`` (the matrix-free task Hamiltonians)
    answers itself; anything else is diagonalized densely.
    """
    width = getattr(h, "width", None)
    if callable(width):
        return width()
    m = as_matrix(h)
    if not is_hermitian(m, atol=1e-10):
        raise ValueError("spectral_width requires a Hermitian matrix")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return float(w[-1] - w[0])


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a normalized Wishart factor."""
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)
