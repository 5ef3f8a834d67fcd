"""Task observables (Heisenberg VQE, autoencoder, state learning) and Bures fidelity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import MAX_DIM, DimensionError, as_matrix, eig_hermitian, is_hermitian

PSD_EIG_FLOOR = -1e-10
FIDELITY_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class Observable:
    """A task Hamiltonian on n qubits, applied to state vectors without a 2^n x 2^n matrix.

    ``kind`` selects the form and what ``data`` holds:

    - 'swaps': the bond pairs (i, j) of sum_bonds (2 SWAP_ij - I), each SWAP
      applied as an axis swap of the state tensor;
    - 'diagonal': the real diagonal of H;
    - 'rank_one': a vector phi, with H = I - |phi><phi|.

    ``np.asarray(observable)`` gives the dense matrix for test oracles; it
    refuses dimensions above ``linalg.MAX_DIM``.
    """

    n: int
    kind: str
    data: Any

    def apply(self, states) -> np.ndarray:
        """H applied to a (2^n,) vector or to each column of a (2^n, k) block."""
        x = np.asarray(states)
        if x.shape[0] != 2**self.n:
            raise DimensionError(f"state dim {x.shape[0]} != 2^{self.n}")
        if self.kind == "diagonal":
            return self.data.reshape((-1,) + (1,) * (x.ndim - 1)) * x
        if self.kind == "rank_one":
            return x - np.multiply.outer(self.data, self.data.conj() @ x)
        t = x.reshape((2,) * self.n + x.shape[1:])
        swapped = np.zeros_like(t)
        for i, j in self.data:
            swapped += t.swapaxes(i, j)
        return 2.0 * swapped.reshape(x.shape) - len(self.data) * x

    def width(self) -> float:
        """w(H) = lambda_max - lambda_min."""
        if self.kind == "diagonal":
            return float(self.data.max() - self.data.min())
        if self.kind == "rank_one":
            # eigenvalues 1 - |phi|^2 (on phi) and 1 (on its complement)
            return float(np.vdot(self.data, self.data).real)
        # each bond term is at most 1, and |0...0> attains that on every bond
        return float(len(self.data)) - _lowest_eigenvalue(self)

    def __array__(self, dtype=None, copy=None):
        if 2**self.n > MAX_DIM:
            raise DimensionError(f"dense observable dimension 2^{self.n} exceeds max {MAX_DIM}")
        h = self.apply(np.eye(2**self.n, dtype=complex))
        return h if dtype is None else h.astype(dtype, copy=False)


def _lowest_eigenvalue(h: Observable) -> float:
    """Smallest eigenvalue of a real symmetric observable by Lanczos from a seeded start."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    d = 2**h.n
    op = LinearOperator((d, d), matvec=h.apply, dtype=float)
    v0 = np.random.default_rng(h.n).standard_normal(d)
    return float(eigsh(op, k=1, which="SA", tol=0, v0=v0, return_eigenvectors=False)[0])


def heisenberg(n: int, periodic: bool = True) -> Observable:
    """1-D spin-1/2 antiferromagnetic Heisenberg Hamiltonian.

    Sum over bonds of XX + YY + ZZ = 2 SWAP - I; the periodic sum runs
    i = 0..n-1 with site n identified with site 0, so n=2 counts the single
    bond twice.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    bonds = range(n) if periodic else range(n - 1)
    return Observable(n, "swaps", tuple((i, (i + 1) % n) for i in bonds))


def qae_hamiltonian(n: int, r_sites) -> Observable:
    """H = I - |0><0|_R x I_Q for the autoencoder cost; spectral width 1."""
    r = tuple(r_sites)
    if not r or any(q < 0 or q >= n for q in r) or len(set(r)) != len(r):
        raise ValueError(f"invalid discard register {r_sites!r} for n={n}")
    idx = np.arange(2**n)
    set_in_r = np.zeros(2**n, dtype=bool)
    for q in r:
        set_in_r |= ((idx >> (n - 1 - q)) & 1).astype(bool)
    return Observable(n, "diagonal", set_in_r.astype(float))


def qsl_hamiltonian(phi: np.ndarray) -> Observable:
    """H = I - |phi><phi| for the state-learning cost."""
    phi = np.array(phi, dtype=complex)
    n = phi.size.bit_length() - 1
    if phi.ndim != 1 or phi.size != 2**n:
        raise DimensionError(f"target state must be a vector of length 2^n, got shape {phi.shape}")
    return Observable(n, "rank_one", phi)


def _psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = eig_hermitian(rho)
    if float(w[0]) < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite (min eig {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def bures_fidelity(rho, sigma) -> float:
    """F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rm, sm = as_matrix(rho), as_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionError("states must share one dimension")
    if not (is_hermitian(rm, atol=1e-9) and is_hermitian(sm, atol=1e-9)):
        raise ValueError("states must be Hermitian")
    root = _psd_sqrt(rm)
    inner = root @ sm @ root
    w, _ = eig_hermitian((inner + inner.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    val = float(np.sum(np.sqrt(w))) ** 2
    if val > 1.0 + FIDELITY_ATOL:
        raise ValueError(f"fidelity {val!r} exceeds 1; are both states normalized?")
    return min(val, 1.0)


def product_rank(rho, sigma, rel_cutoff: float = 1e-10) -> int:
    """Numerical rank of rho @ sigma: singular values above rel_cutoff * s_max."""
    s = np.linalg.svd(as_matrix(rho) @ as_matrix(sigma), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_cutoff * s[0]))


def fidelity_rank_bound(rho, sigma) -> float:
    """rank(rho sigma) * tr(rho sigma), the upper bound on the Bures fidelity."""
    rm, sm = as_matrix(rho), as_matrix(sigma)
    return product_rank(rm, sm) * float(np.trace(rm @ sm).real)
