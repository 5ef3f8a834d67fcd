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
# T is diagonalized every this many steps, and when beta collapses below
# LANCZOS_COLLAPSE times the step's scale, or at the cap: an eigh at every step
# would be most of the width's time for n <= 12.
LANCZOS_CHECK_EVERY = 4
LANCZOS_COLLAPSE = 1e-6


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
    the eigenvalue. Step j has converged when the residual beta_j |s_j0| of the
    lowest Ritz pair of T_j is at most ``LANCZOS_RTOL`` max(1, |theta_0|), which
    also covers a Krylov space that is exhausted (beta = 0, as at n = 2).

    T is diagonalized only every ``LANCZOS_CHECK_EVERY`` steps, at once when beta
    collapses (at most ``LANCZOS_COLLAPSE`` max(|alpha_j|, beta_{j-1})) and at
    the step cap. When such a check passes, the steps since the previous check
    are tested in order, so the result is theta_0 of T_j at the first tested
    step j that has converged, as testing every step gives for every chain
    ``heisenberg`` builds at n = 2..16.
    """
    v = np.random.default_rng(h.n).standard_normal(2**h.n)
    v /= np.linalg.norm(v)
    v_prev, b = np.zeros_like(v), 0.0
    alpha, beta = [], []  # beta[j - 1]: beta_j, the norm of step j's residual
    checked = 0  # the last step tested
    for j in range(1, LANCZOS_MAX_STEPS + 1):
        w = h.apply(v)
        w -= b * v_prev
        a = float(v @ w)
        w -= a * v
        b_prev, b = b, float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        if j % LANCZOS_CHECK_EVERY == 0 or b <= LANCZOS_COLLAPSE * max(abs(a), b_prev) \
                or j == LANCZOS_MAX_STEPS:
            theta = _converged_ritz_value(alpha, beta, j)
            if theta is not None:
                for i in range(checked + 1, j):
                    if (earlier := _converged_ritz_value(alpha, beta, i)) is not None:
                        return earlier
                return theta
            checked = j
        v_prev, v = v, w / b
    raise ConvergenceError(f"Lanczos did not converge in {LANCZOS_MAX_STEPS} steps")


def _converged_ritz_value(alpha: list[float], beta: list[float], j: int) -> float | None:
    """theta_0 of T_j if step j's lowest Ritz pair has converged, else None."""
    off = beta[:j - 1]
    theta, s = np.linalg.eigh(np.diag(alpha[:j]) + np.diag(off, 1) + np.diag(off, -1))
    if beta[j - 1] * abs(s[-1, 0]) <= LANCZOS_RTOL * max(1.0, abs(theta[0])):
        return float(theta[0])
    return None


def heisenberg(n: int) -> Observable:
    """1-D spin-1/2 antiferromagnetic Heisenberg Hamiltonian on the periodic ring.

    Sum over bonds of XX + YY + ZZ = 2 SWAP - I for i = 0..n-1, with site n
    identified with site 0, so n=2 counts the single bond twice.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    return Observable(n, "swaps", tuple((i, (i + 1) % n) for i in range(n)))


def qae_hamiltonian(n: int) -> Observable:
    """H = I - |0><0|_R x I_Q with R the last qubit, for the autoencoder cost; width 1."""
    return Observable(n, "diagonal", (np.arange(2**n) & 1).astype(float))


def qsl_hamiltonian(n: int) -> Observable:
    """H = I - |0...0><0...0| for the state-learning cost."""
    e0 = np.zeros(2**n, dtype=complex)
    e0[0] = 1.0
    return Observable(n, "rank_one", e0)
