"""Dense 2^n x 2^n reference implementations the statevector code is checked against.

These are the matrix forms of circuit sampling and of the transfer-tensor
contraction: every circuit is built as a full unitary and the contraction is
one einsum over the conjugated observable and state. They cost O(L n 4^n) and
O(d^2 d_A^2) and serve only as test oracles at small n.
"""

import numpy as np

from localrange.circuits import apply_single_qubit, euler_zyz, rotation
from localrange.linalg import as_matrix, permute_qubits


def cz_diag(n, control, target):
    """Diagonal of CZ(control, target), one basis state at a time."""
    diag = np.ones(2**n)
    for idx in range(2**n):
        if (idx >> (n - 1 - control)) & 1 and (idx >> (n - 1 - target)) & 1:
            diag[idx] = -1.0
    return diag


def cz_chain_diag(n):
    """Diagonal of the nearest-neighbor CZ chain on qubits 0..n-1."""
    diag = np.ones(2**n)
    for q in range(n - 1):
        diag *= cz_diag(n, q, q + 1)
    return diag


def sample_circuit_dense(ensemble, rng):
    """The dense unitary of `sample_circuit`, drawing from rng in the same order."""
    n = ensemble.n
    if ensemble.kind == "identity":
        return np.eye(2**n, dtype=complex)
    if ensemble.kind == "haar":
        from localrange.haar import haar_random_unitary

        return haar_random_unitary(2**n, rng)
    u = np.eye(1, dtype=complex)
    if ensemble.kind == "one_design_layer":
        for _ in range(n):
            phi, theta, alpha = rng.uniform(0.0, 2 * np.pi, size=3)
            u = np.kron(u, euler_zyz(phi, theta, alpha))
        return u
    ry8 = rotation("y", np.pi / 4)
    for _ in range(n):
        u = np.kron(u, ry8)
    cz = cz_chain_diag(n)
    for _ in range(ensemble.effective_layers):
        axes = rng.integers(0, 3, size=n)
        angles = rng.uniform(0.0, 2 * np.pi, size=n)
        for q in range(n):
            u = apply_single_qubit(u, rotation("xyz"[axes[q]], angles[q]), q, n)
        u = cz[:, None] * u
    return u


def gather_a_front(mat, part):
    """Reorder tensor factors so subsystem A occupies the leading positions."""
    sigma = list(part.a_sites) + list(part.b_sites)
    if sigma == list(range(part.n)):
        return mat
    order = [0] * part.n
    for pos, q in enumerate(sigma):
        order[q] = pos
    return permute_qubits(mat, order)


def transfer_tensor_dense(h, rho, v1, v2, part):
    """T[ijkl] from Q = V2+ H V2 and R = V1 rho V1+ as dense matrices."""
    d, d_a, d_b = part.d, part.d_A, part.d_B
    hm = as_matrix(h)
    q = hm if v2 is None else as_matrix(v2).conj().T @ hm @ as_matrix(v2)
    rho_arr = np.asarray(rho, dtype=complex)
    if rho_arr.ndim == 1:
        psi = rho_arr if v1 is None else as_matrix(v1) @ rho_arr
        r = np.outer(psi, psi.conj())
    else:
        r = rho_arr if v1 is None else as_matrix(v1) @ rho_arr @ as_matrix(v1).conj().T
    assert q.shape == r.shape == (d, d)
    qr = gather_a_front(q, part).reshape(d_a, d_b, d_a, d_b)
    rr = gather_a_front(r, part).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("kaib,jbla->ijkl", qr, rr, optimize=True)
