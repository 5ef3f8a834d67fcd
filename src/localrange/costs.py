"""Task observables: Heisenberg VQE, autoencoder and state learning, applied matrix-free."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .linalg import MAX_DIM, DimensionError

# Lanczos stops once the lowest Ritz pair's residual is below this, relative to
# max(1, |theta_0|); the Heisenberg chains of n = 2..16 take 2 to 79 steps.
LANCZOS_RTOL = 1e-14
LANCZOS_MAX_STEPS = 1000


class ConvergenceError(ArithmeticError):
    """An iterative eigensolver stopped at its step limit without converging."""


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
        """w(H) = lambda_max - lambda_min.

        Closed forms for 'diagonal' and 'rank_one'; for 'swaps' lambda_max is the
        bond count and lambda_min comes from the numpy Lanczos in
        ``_lowest_eigenvalue``, so no dense matrix and no scipy are needed.
        """
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
    """Smallest eigenvalue of a real symmetric observable by Lanczos from a seeded start.

    Plain three-term Lanczos without reorthogonalization: it holds three vectors
    (the current, the previous and H applied to the current) and the tridiagonal
    T in ``alpha``/``beta``. Lost orthogonality only adds copies of Ritz values
    that have already converged (Paige 1976), so the lowest Ritz value is still
    the eigenvalue. It stops when the residual beta_k |s_k0| of the lowest Ritz
    pair is at most ``LANCZOS_RTOL`` max(1, |theta_0|), which also covers a
    Krylov space that is exhausted (beta = 0, as at n = 2).
    """
    v = np.random.default_rng(h.n).standard_normal(2**h.n)
    v /= np.linalg.norm(v)
    v_prev, b = np.zeros_like(v), 0.0
    alpha, beta = [], []
    for _ in range(LANCZOS_MAX_STEPS):
        w = h.apply(v)
        w -= b * v_prev
        a = float(v @ w)
        w -= a * v
        b = float(np.linalg.norm(w))
        alpha.append(a)
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if b * abs(s[-1, 0]) <= LANCZOS_RTOL * max(1.0, abs(theta[0])):
            return float(theta[0])
        beta.append(b)
        v_prev, v = v, w / b
    raise ConvergenceError(f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps")


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
