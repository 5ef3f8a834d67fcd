"""Dense 2^n x 2^n reference implementations the statevector code is checked against.

These are the matrix forms of circuit sampling, of the costs and of the
transfer-tensor contraction: every circuit is built as a full unitary, a cost is
a trace of matrix products, and the contraction is one einsum over the
conjugated observable and state. They cost O(L n 4^n) and O(d^2 d_A^2) and
serve only as test oracles at small n.
"""

import numpy as np

from localrange.circuits import apply_single_qubit, euler_zyz, rotation
from localrange.costs import qae_hamiltonian
from localrange.landscape import IMAG_RESIDUE_ATOL
from localrange.linalg import MAX_DIM, PAULI, DimensionError, as_matrix, to_a_first


def kron(a, b):
    """Kronecker product; the first factor sits on the more significant qubits."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape[0] * mb.shape[0] > MAX_DIM:
        raise DimensionError(
            f"kron result dimension {ma.shape[0] * mb.shape[0]} exceeds max {MAX_DIM}"
        )
    return np.kron(ma, mb)


def kron_all(factors):
    out = np.eye(1, dtype=complex)
    for f in factors:
        out = kron(out, f)
    return out


def pauli_word_matrix(word):
    return kron_all(PAULI[c] for c in word)


def kron_aligned(op_a, op_b, part):
    """op_a on part.a_sites tensored with op_b on part.b_sites, in label order."""
    return to_a_first(kron(op_a, op_b), part, operator=True, inverse=True)


def embed_local(ua, part):
    """Embed a d_A x d_A gate at part.a_sites, identity elsewhere."""
    if ua.shape[0] != part.d_A:
        raise DimensionError(f"local gate dim {ua.shape[0]} != d_A={part.d_A}")
    return kron_aligned(ua, np.eye(part.d_B, dtype=complex), part)


def assemble(v1, ua, v2, part):
    """The full circuit V2 (U_A x I_B) V1."""
    m1, m2, ma = as_matrix(v1), as_matrix(v2), np.asarray(ua, dtype=complex)
    d = part.d
    if m1.shape[0] != d or m2.shape[0] != d:
        raise DimensionError("V1/V2 dimension does not match the partition")
    return m2 @ embed_local(ma, part) @ m1


def generic_cost(h, rho, u):
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


def projector_zero(n, sites):
    """|0..0><0..0| on the given qubits, identity elsewhere."""
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    return kron_all(ket0 if q in set(sites) else PAULI["I"] for q in range(n))


def qae_cost(u, rho_qr, r_sites):
    """1 - tr((|0><0|_R x I_Q) U rho U+): failure probability of the compression."""
    um, rm = as_matrix(u), as_matrix(rho_qr)
    n = um.shape[0].bit_length() - 1
    return generic_cost(qae_hamiltonian(n, r_sites), rm, um)


def qsl_cost(u, psi, phi):
    """1 - |<phi| U |psi>|^2 for unit vectors psi, phi."""
    um = as_matrix(u)
    psi = np.asarray(psi, dtype=complex)
    phi = np.asarray(phi, dtype=complex)
    for v in (psi, phi):
        if abs(np.linalg.norm(v) - 1.0) > 1e-8:
            raise ValueError("state vectors must be normalized")
    amp = phi.conj() @ (um @ psi)
    return float(1.0 - abs(amp) ** 2)


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
    for _ in range(ensemble.layers):
        axes = rng.integers(0, 3, size=n)
        angles = rng.uniform(0.0, 2 * np.pi, size=n)
        for q in range(n):
            u = apply_single_qubit(u, rotation("xyz"[axes[q]], angles[q]), q, n)
        u = cz[:, None] * u
    return u


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
    qr = to_a_first(q, part, operator=True).reshape(d_a, d_b, d_a, d_b)
    rr = to_a_first(r, part, operator=True).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("kaib,jbla->ijkl", qr, rr, optimize=True)
