"""Task cost functions: generic expectation, Heisenberg VQE, autoencoder, state learning."""

from __future__ import annotations

import numpy as np

from .linalg import (
    PAULI,
    DimensionError,
    as_matrix,
    eig_hermitian,
    is_hermitian,
    kron_all,
)

IMAG_RESIDUE_ATOL = 1e-10
PSD_EIG_FLOOR = -1e-10


def generic_cost(h, rho, u) -> float:
    """C = tr(H U rho U+)."""
    hm, rm, um = as_matrix(h), as_matrix(rho), as_matrix(u)
    if not hm.shape == rm.shape == um.shape:
        raise DimensionError("H, rho, U must share one dimension")
    evolved = um @ rm @ um.conj().T
    val = complex(np.trace(hm @ evolved))
    scale = max(1.0, float(np.abs(val)))
    if abs(val.imag) > IMAG_RESIDUE_ATOL * scale:
        raise ValueError(f"cost has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def heisenberg(n: int, periodic: bool = True) -> np.ndarray:
    """1-D spin-1/2 antiferromagnetic Heisenberg Hamiltonian.

    Sum over bonds of XX + YY + ZZ; the periodic sum runs i = 0..n-1 with
    site n identified with site 0, so n=2 counts the single bond twice.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    d = 2**n
    h = np.zeros((d, d), dtype=complex)
    bonds = range(n) if periodic else range(n - 1)
    for i in bonds:
        j = (i + 1) % n
        for axis in "XYZ":
            factors = [PAULI[axis] if q in (i, j) else PAULI["I"] for q in range(n)]
            h += kron_all(factors)
    return h


def projector_zero(n: int, sites) -> np.ndarray:
    """|0..0><0..0| on the given qubits, identity elsewhere."""
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    return kron_all(ket0 if q in set(sites) else PAULI["I"] for q in range(n))


def qae_hamiltonian(n: int, r_sites) -> np.ndarray:
    """H = I - |0><0|_R x I_Q for the autoencoder cost; spectral width 1."""
    r = tuple(r_sites)
    if not r or any(q < 0 or q >= n for q in r) or len(set(r)) != len(r):
        raise ValueError(f"invalid discard register {r_sites!r} for n={n}")
    return np.eye(2**n, dtype=complex) - projector_zero(n, r)


def qae_cost(u, rho_qr, r_sites) -> float:
    """1 - tr((|0><0|_R x I_Q) U rho U+): failure probability of the compression."""
    um, rm = as_matrix(u), as_matrix(rho_qr)
    n = um.shape[0].bit_length() - 1
    return generic_cost(qae_hamiltonian(n, r_sites), rm, um)


def qsl_hamiltonian(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=complex)
    return np.eye(phi.size, dtype=complex) - np.outer(phi, phi.conj())


def qsl_cost(u, psi, phi) -> float:
    """1 - |<phi| U |psi>|^2 for unit vectors psi, phi."""
    um = as_matrix(u)
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    for v in (psi, phi):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("state vectors must be normalized")
    amp = phi.conj() @ (um @ psi)
    return float(1.0 - abs(amp) ** 2)


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
    return min(val, 1.0) if val <= 1.0 + 1e-9 else val


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
