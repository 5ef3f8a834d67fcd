"""Dense complex linear algebra kernel.

Everything operates on plain numpy arrays (complex128, square). The
``Operator`` wrapper only adds dimension metadata and invariant checks at API
boundaries; the math functions accept either an ``Operator`` or a raw ndarray.

Basis-ordering convention: qubit 0 is the most significant tensor factor, so
``kron(A, B)`` puts A on the lower-numbered qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dimension of a dense operator: it guards the dense paths (kron, the
# dense form of an observable, the oracles and the `bounds` subcommand), not
# the statevector harness, whose n cap is set by ExperimentConfig.
MAX_DIM = 2**14

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_AXES = "XYZ"

HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10
DENSITY_TRACE_ATOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
PAULI_COEFF_CUTOFF = 1e-12


class DimensionError(ValueError):
    """Operand dimensions are incompatible or out of range."""


def as_matrix(a) -> np.ndarray:
    """Coerce an Operator or array-like to a square complex ndarray."""
    if isinstance(a, Operator):
        return a.matrix
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def is_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    scale = max(1.0, max_abs(m))
    return max_abs(m - m.conj().T) <= atol * scale


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with an advisory kind tag.

    kind is one of 'generic', 'hermitian', 'unitary', 'density'; construction
    validates the corresponding invariant.
    """

    matrix: np.ndarray
    kind: str = "generic"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator must be square, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.kind == "generic":
            return
        if self.kind == "hermitian":
            if not is_hermitian(m):
                raise ValueError("matrix is not Hermitian within tolerance")
        elif self.kind == "unitary":
            err = max_abs(m @ m.conj().T - np.eye(m.shape[0]))
            if err > UNITARY_ATOL:
                raise ValueError(f"matrix is not unitary (max deviation {err:.3e})")
        elif self.kind == "density":
            if not is_hermitian(m, atol=1e-10):
                raise ValueError("density matrix must be Hermitian")
            tr = complex(np.trace(m))
            if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
                raise ValueError(f"density matrix trace {tr} != 1")
            if float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) < DENSITY_EIG_FLOOR:
                raise ValueError("density matrix has a negative eigenvalue")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli word, e.g. 1.0 * 'XXI'."""

    coefficient: complex
    word: str

    def matrix(self) -> np.ndarray:
        return pauli_word_matrix(self.word)


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor sits on the more significant qubits."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] * mb.shape[0] > MAX_DIM:
        raise DimensionError(
            f"kron result dimension {ma.shape[0] * mb.shape[0]} exceeds max {MAX_DIM}"
        )
    return np.kron(ma, mb)


def kron_aligned(op_a: np.ndarray, op_b: np.ndarray, part: BipartitePartition) -> np.ndarray:
    """op_a on part.a_sites tensored with op_b on part.b_sites, in label order."""
    full = kron(op_a, op_b)
    order = list(part.a_sites) + list(part.b_sites)
    if order == list(range(part.n)):
        return full
    return permute_qubits(full, order)


def kron_all(factors) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = kron(out, f)
    return out


def pauli_word_matrix(word: str) -> np.ndarray:
    return kron_all(PAULI[c] for c in word)


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def partial_trace(mat, part: BipartitePartition, traced: str) -> np.ndarray:
    """Trace out subsystem A or B of an operator on the full register.

    traced='B' returns a d_A x d_A matrix ordered like part.a_sites; traced='A'
    returns d_B x d_B ordered by ascending b_sites.
    """
    m = as_matrix(mat)
    n = part.n
    if m.shape[0] != 2**n:
        raise DimensionError(f"operator dim {m.shape[0]} != 2^{n}")
    if traced not in ("A", "B"):
        raise ValueError("traced must be 'A' or 'B'")
    keep = part.a_sites if traced == "B" else part.b_sites
    drop = part.b_sites if traced == "B" else part.a_sites
    t = m.reshape((2,) * (2 * n))
    row = list(keep) + list(drop)
    col = [n + q for q in row]
    t = t.transpose(row + col)
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    t = t.reshape(dk, dd, dk, dd)
    return np.einsum("aibi->ab", t)


def permute_qubits(mat, order) -> np.ndarray:
    """Reorder tensor factors of an operator.

    ``order[pos] = q`` means the factor currently at position ``pos`` carries
    qubit label ``q``; the result has factors in ascending label order.
    """
    m = as_matrix(mat)
    n = len(order)
    if m.shape[0] != 2**n:
        raise DimensionError(f"operator dim {m.shape[0]} != 2^{len(order)}")
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    # inverse permutation: where does label q currently live
    inv = [0] * n
    for pos, q in enumerate(order):
        inv[q] = pos
    t = m.reshape((2,) * (2 * n))
    t = t.transpose(inv + [n + p for p in inv])
    return t.reshape(2**n, 2**n)


def eig_hermitian(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    m = as_matrix(h)
    if not is_hermitian(m, atol=1e-10):
        raise ValueError("eig_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return w, v


def spectral_width(h) -> float:
    """w(H): spread between the largest and smallest eigenvalue.

    An observable with its own ``width`` (the matrix-free task Hamiltonians)
    answers itself; anything else is diagonalized densely.
    """
    width = getattr(h, "width", None)
    if callable(width):
        return width()
    w, _ = eig_hermitian(h)
    return float(w[-1] - w[0])


def schatten_norm(mat, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}."""
    m = as_matrix(mat)
    if p == 2 or p == 2.0:
        return float(np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    if p == 1:
        return float(np.sum(s))
    if p in (np.inf, float("inf"), "inf"):
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unsupported Schatten order {p!r}")


def pauli_decompose(h, n: int) -> list[PauliTerm]:
    """Expand an operator in the n-qubit Pauli basis.

    Coefficients are tr(P_w H) / 2^n; terms with |c| <= 1e-12 are dropped.
    """
    m = as_matrix(h)
    if m.shape[0] != 2**n:
        raise DimensionError(f"operator dim {m.shape[0]} != 2^{n}")
    _qubit_count(m.shape[0])
    # Per-qubit change of basis from the (row, col) index pair to a Pauli label:
    # c_w = prod_q (1/2) tr(sigma_{w_q} H_q).
    basis = np.empty((4, 4), dtype=complex)
    for p, name in enumerate("IXYZ"):
        s = PAULI[name]
        for i in range(2):
            for j in range(2):
                basis[p, 2 * i + j] = s[j, i] / 2
    t = m.reshape((2,) * (2 * n))
    t = t.transpose([ax for q in range(n) for ax in (q, n + q)])
    t = t.reshape((4,) * n)
    for q in range(n):
        t = np.moveaxis(np.tensordot(basis, t, axes=(1, q)), 0, q)
    terms = []
    for idx in np.argwhere(np.abs(t) > PAULI_COEFF_CUTOFF):
        word = "".join("IXYZ"[p] for p in idx)
        terms.append(PauliTerm(complex(t[tuple(idx)]), word))
    return terms


def pauli_reconstruct(terms, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in terms:
        out += t.coefficient * pauli_word_matrix(t.word)
    return out


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
