"""Reference implementations the statevector code and the solvers are checked against.

These are the matrix forms of circuit sampling, of the costs and of the
transfer-tensor contraction: every circuit is built as a full unitary, a cost is
a trace of matrix products, and the contraction is one einsum over the
conjugated observable and state. They cost O(L n 4^n) and O(d^2 d_A^2) and
serve only as test oracles at small n. The single-qubit range also has a
second closed form here, a constrained orthogonal Procrustes problem on the
Bloch-sphere rotation, as the oracle for the quaternion solver. The coupling
ranks and the tight bound are computed from the dense H, as the oracle for
their closed forms.
"""

import numpy as np

from localrange.circuits import (
    LocalUnitaryParams,
    apply_single_qubit,
    euler_zyz,
    rotation,
    su4_generators,
)
from localrange.costs import qae_hamiltonian
from localrange.landscape import DEGENERACY_RTOL, IMAG_RESIDUE_ATOL, VariationResult
from localrange.linalg import MAX_DIM, PAULI, DimensionError, as_matrix, max_abs, to_a_first


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


_PAULI_VEC = [PAULI[a] for a in "XYZ"]


def pauli_reduction_m1(t):
    """Rewrite a single-qubit cost as c0 + tr(M^T R(U)) over Bloch rotations R."""
    if t.part.m != 1:
        raise DimensionError("Bloch reduction requires a single-qubit subsystem")
    sig = [PAULI["I"]] + _PAULI_VEC
    a = np.empty((4, 4), dtype=complex)
    for p in range(4):
        for q in range(4):
            a[p, q] = 0.5 * np.einsum("ijkl,ik,lj->", t.tensor, sig[p], sig[q])
    if max_abs(a.imag) > 1e-9 * max(1.0, max_abs(a.real)):
        raise ValueError("cost quadratic form is not real; H or rho not Hermitian?")
    return float(a[0, 0].real), a[1:, 1:].real.copy()


def _zyz_angles(r):
    """Euler angles (phi, theta, alpha) with Rz(phi) Ry(theta) Rz(alpha) = r."""
    c = float(np.clip(r[2, 2], -1.0, 1.0))
    if c > 1.0 - 1e-12:
        return float(np.arctan2(r[1, 0], r[0, 0])), 0.0, 0.0
    if c < -1.0 + 1e-12:
        return float(np.arctan2(-r[1, 0], -r[0, 0])), np.pi, 0.0
    theta = float(np.arccos(c))
    phi = float(np.arctan2(r[1, 2], r[0, 2]))
    alpha = float(np.arctan2(r[2, 1], -r[2, 0]))
    return phi, theta, alpha


def procrustes_range_m1(t):
    """Closed-form range via constrained Procrustes on the Bloch-transfer matrix."""
    c0, m = pauli_reduction_m1(t)
    u, s, vt = np.linalg.svd(m)
    det_sign = 1.0 if np.linalg.det(u @ vt) >= 0 else -1.0
    r_max = u @ np.diag([1.0, 1.0, det_sign]) @ vt
    # minimizing tr(M^T R) is maximizing for -M
    r_min = (-u) @ np.diag([1.0, 1.0, -det_sign]) @ vt
    max_val = c0 + s[0] + s[1] + det_sign * s[2]
    min_val = c0 - (s[0] + s[1] - det_sign * s[2])
    degenerate = bool(s[2] < DEGENERACY_RTOL * s[0]) if s[0] > 0 else True
    return VariationResult(
        max_value=max_val,
        min_value=min_val,
        delta=2.0 * (s[0] + s[1]),
        argmax=LocalUnitaryParams(_zyz_angles(r_max)),
        argmin=LocalUnitaryParams(_zyz_angles(r_min)),
        method="procrustes",
        iterations=0,
        converged=True,
        degenerate=degenerate,
    )


COUPLING_CUTOFF = 1e-12


def _a_words(m):
    if m == 1:
        return tuple(PAULI[a] for a in "XYZ")
    if m == 2:
        return su4_generators()
    raise DimensionError(f"Pauli words are tabulated for m = 1 or 2 only, got m={m}")


def coupling_rank(h, part):
    """(N_A, N_AB): presence of an A-local part and the interaction coupling rank.

    N_A is 1 when tr_B(H) is nonzero. N_AB counts non-identity Pauli words
    sigma on A that pair with a nonzero B-operator in H with both marginals
    removed. For traceless sigma that B-operator is tr_A((sigma x I_B) H) / d_A
    with its trace part removed, since only the A marginal contributes to it.
    """
    hm = as_matrix(h)
    if hm.shape[0] != part.d:
        raise DimensionError(f"H dim {hm.shape[0]} != 2^{part.n}")
    d_a, d_b = part.d_A, part.d_B
    scale = max(1.0, max_abs(hm))
    # H as t[a, x, b, y] with the A qubits leading
    t = to_a_first(hm, part, operator=True).reshape(d_a, d_b, d_a, d_b)
    n_a = 1 if max_abs(np.einsum("axbx->ab", t)) > COUPLING_CUTOFF * scale else 0
    n_ab = 0
    for sigma in _a_words(part.m):
        o = np.einsum("ab,bxay->xy", sigma, t) / d_a
        o -= (np.trace(o) / d_b) * np.eye(d_b)
        if max_abs(o) > COUPLING_CUTOFF * scale:
            n_ab += 1
    return n_a, n_ab


def tight_bound(h, part):
    """max{N_A + 2 N_AB, d_A sqrt(d/(d-1))} * ||H - tr(H) I/d||_inf * sqrt(d_A/d_B)."""
    hm = as_matrix(h)
    n_a, n_ab = coupling_rank(hm, part)
    d = part.d
    # H is Hermitian, so the norm is the largest |eigenvalue - tr(H)/d|
    ev = np.linalg.eigvalsh((hm + hm.conj().T) / 2)
    norm = float(np.abs(ev - np.trace(hm).real / d).max())
    factor = max(n_a + 2 * n_ab, part.d_A * np.sqrt(d / (d - 1)))
    return float(factor * norm * np.sqrt(part.d_A / part.d_B))
