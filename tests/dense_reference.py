"""Reference implementations the statevector code and the solvers are checked against.

These are the matrix forms of circuit sampling, of the costs and of the
transfer-tensor contraction: every circuit is built as a full unitary, a cost is
a trace of matrix products, and the contraction is one einsum over the
conjugated observable and state. They cost O(L n 4^n) and O(d^2 d_A^2) and
serve only as test oracles at small n. The single-qubit range also has a
second closed form here, a constrained orthogonal Procrustes problem on the
Bloch-sphere rotation, as the oracle for the quaternion solver. The coupling
ranks and the tight bound are computed from the dense H, as the oracle for
their closed forms. ``apply_gatewise`` applies a gate list one gate at a
time, as the oracle for the layer-fused ``GateProgram.apply``, and
``sample_gates`` draws each circuit ensemble as a gate list, as the oracle for
``sample_circuit``, which draws the fused factors directly;
``draw_layers_per_layer`` reads a generator layer by layer, as the oracle for
the one-read decode of a hardware-efficient draw. ``lowest_eigenvalue_every_step``
is the Lanczos diagonalizing T after every step, as the oracle for the one that
checks every few steps. ``variation_range_adam``,
gradient ascent in the ZYZ angles (m = 1) or the 15 su(4) coefficients (m = 2)
with analytic gradients through ``expm_frechet``, is the oracle for the polar
solver. The Bures fidelity with its rank bound, and the first-moment Haar
twirl, are dense checks of the lemmas the bounds rest on; no run computes them.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, expm_frechet

from localrange import costs
from localrange.circuits import (
    ROTATION_KINDS,
    GateSpec,
    LocalUnitaryParams,
    _cz_signs,
    _rotation_matrices,
    euler_zyz,
    rotation,
    su4_generators,
)
from localrange.costs import qae_hamiltonian
from localrange.landscape import DEGENERACY_RTOL, TransferTensor, VariationResult
from localrange.linalg import MAX_DIM, PAULI, DimensionError, as_matrix, is_hermitian, max_abs, to_a_first

# largest |Im C| / max(1, |C|) that ``generic_cost`` takes for rounding
IMAG_RESIDUE_ATOL = 1e-10


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


def apply_single_qubit(states, gate2, q, n):
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


def apply_gatewise(n, gates, states):
    """The gate list on n qubits applied one gate at a time: each rotation as a
    2 x 2 matmul on its qubit, each run of CZ gates as one diagonal."""
    out = np.array(states, dtype=complex)
    if out.shape[0] != 2**n:
        raise DimensionError(f"state dim {out.shape[0]} != 2^{n}")
    column = (-1,) + (1,) * (out.ndim - 1)
    rots = [g for g in gates if g.kind != "cz"]
    mats = iter(_rotation_matrices([ROTATION_KINDS.index(g.kind) for g in rots],
                                   [g.angle for g in rots]))
    pairs = []
    for g in gates:
        if g.kind == "cz":
            pairs.append((g.control, g.target))
            continue
        if pairs:
            out = out * _cz_signs(n, tuple(pairs)).reshape(column)
            pairs = []
        out = apply_single_qubit(out, next(mats), g.target, n)
    if pairs:
        out = out * _cz_signs(n, tuple(pairs)).reshape(column)
    return out


def sample_gates(ensemble, rng):
    """`sample_circuit` as an ordered gate list, drawing from rng in the same order."""
    n = ensemble.n
    if ensemble.kind == "identity":
        return []
    if ensemble.kind == "one_design_layer":
        gates = []
        # euler_zyz(phi, theta, alpha) = Rz(phi) Ry(theta) Rz(alpha) on each qubit
        for q in range(n):
            phi, theta, alpha = rng.uniform(0.0, 2 * np.pi, size=3)
            gates += [GateSpec("rz", q, angle=alpha), GateSpec("ry", q, angle=theta),
                      GateSpec("rz", q, angle=phi)]
        return gates
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
    return gates


def draw_layers_per_layer(rng, axes, angles):
    """Fill (layers, n) ``axes`` and ``angles`` with numpy's own per-layer draws,
    ``integers(0, 3, size=n)`` then ``random(n)``: the oracle for the one-read
    decode of ``circuits._draw_layers``, with its signature."""
    for layer in range(len(axes)):
        axes[layer] = rng.integers(0, 3, size=axes.shape[1])
        rng.random(out=angles[layer])


def sample_circuit_dense(ensemble, rng):
    """The dense unitary of `sample_circuit`, drawing from rng in the same order."""
    n = ensemble.n
    if ensemble.kind == "identity":
        return np.eye(2**n, dtype=complex)
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


def lowest_eigenvalue_every_step(h):
    """``costs._lowest_eigenvalue`` testing every step: (theta_0, the step it returned at).

    The same Lanczos, with T diagonalized after each step, as the oracle for the
    solver that tests only every few steps.
    """
    v = np.random.default_rng(h.n).standard_normal(2**h.n)
    v /= np.linalg.norm(v)
    v_prev, b = np.zeros_like(v), 0.0
    alpha, beta = [], []
    for step in range(1, costs.LANCZOS_MAX_STEPS + 1):
        w = h.apply(v)
        w -= b * v_prev
        a = float(v @ w)
        w -= a * v
        b = float(np.linalg.norm(w))
        alpha.append(a)
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        if b * abs(s[-1, 0]) <= costs.LANCZOS_RTOL * max(1.0, abs(theta[0])):
            return float(theta[0]), step
        beta.append(b)
        v_prev, v = v, w / b
    raise costs.ConvergenceError(f"Lanczos did not converge in {costs.LANCZOS_MAX_STEPS} steps")


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


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    iterations: int = 300
    restarts: int = 3
    grad_tol: float = 1e-6
    seed: int = 0


def _gate_m1(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """U = Rz(phi) Ry(theta) Rz(alpha) and its derivatives in the three angles."""
    phi, theta, alpha = x
    rz1, ry, rz2 = rotation("z", phi), rotation("y", theta), rotation("z", alpha)
    u = rz1 @ ry @ rz2
    return u, (
        -0.5j * PAULI["Z"] @ u,
        rz1 @ (-0.5j * PAULI["Y"]) @ ry @ rz2,
        u @ (-0.5j * PAULI["Z"]),
    )


def _gate_m2(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """U = exp(-i sum_k x_k G_k) and its derivatives in the 15 coefficients."""
    gens = su4_generators()
    a = -1j * sum(c * g for c, g in zip(x, gens))
    return expm(a), tuple(expm_frechet(a, -1j * g)[1] for g in gens)


def _cost_and_grad(t: TransferTensor, gate, x: np.ndarray) -> tuple[float, np.ndarray]:
    """C(U(x)) and its gradient, dC = 2 Re(vec(dU)^T M vec(U)*), for the gate map ``gate``."""
    u, dus = gate(x)
    mu = t.matrix @ u.conj().ravel()
    grad = np.array([2.0 * (du.ravel() @ mu).real for du in dus])
    return float((u.ravel() @ mu).real), grad


def _adam_run(fg, x0: np.ndarray, sign: float, cfg: AdamConfig) -> tuple[np.ndarray, float, int, bool]:
    """Maximize sign * cost starting from x0. Returns (x, best value, iters, converged)."""
    x = x0.astype(float).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    val, grad = fg(x)
    best_x, best_val = x.copy(), sign * val
    it, converged = 0, False
    for it in range(1, cfg.iterations + 1):
        g = sign * grad
        if float(np.linalg.norm(g)) < cfg.grad_tol:
            converged = True
            it -= 1
            break
        m = cfg.beta1 * m + (1 - cfg.beta1) * g
        v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1**it)
        vhat = v / (1 - cfg.beta2**it)
        x = x + cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)
        val, grad = fg(x)
        if sign * val > best_val:
            best_val, best_x = sign * val, x.copy()
    else:
        converged = float(np.linalg.norm(sign * grad)) < cfg.grad_tol
    return best_x, best_val, it, converged


def variation_range_adam(t: TransferTensor, cfg: AdamConfig = AdamConfig()) -> VariationResult:
    """Gradient-ascent/descent estimate of the range, best of several restarts.

    Restart 0 starts at the zero parameter vector (U = I); subsequent restarts
    are drawn uniformly. Never raises on non-convergence; the flag reports it.
    """
    m = t.part.m
    if m not in (1, 2):
        raise DimensionError("gradient optimizer supports one- or two-qubit subsystems")
    gate = _gate_m1 if m == 1 else _gate_m2

    def fg(x):
        return _cost_and_grad(t, gate, x)

    dim = 3 if m == 1 else 15
    rng = np.random.default_rng(cfg.seed)
    inits = [np.zeros(dim)]
    inits += [rng.uniform(-np.pi, np.pi, size=dim) for _ in range(max(0, cfg.restarts - 1))]
    total_iters = 0
    best = {}
    all_converged = True
    for sign, key in ((1.0, "max"), (-1.0, "min")):
        results = []
        for x0 in inits:
            x, sval, iters, conv = _adam_run(fg, x0, sign, cfg)
            total_iters += iters
            results.append((sval, x, conv))
        sval, x, conv = max(results, key=lambda r: r[0])
        best[key] = (sign * sval, x)
        all_converged = all_converged and conv
    max_val, x_max = best["max"]
    min_val, x_min = best["min"]
    if cfg.iterations == 0:
        max_val = min_val = fg(np.zeros(dim))[0]
        x_max = x_min = np.zeros(dim)
    return VariationResult(
        max_value=max_val,
        min_value=min_val,
        delta=max_val - min_val,
        argmax=LocalUnitaryParams(x_max),
        argmin=LocalUnitaryParams(x_min),
        method="adam",
        iterations=total_iters,
        converged=all_converged,
    )


def restricted_m1_range(t):
    """Exact range of an m = 2 form over the gates u x I: the quaternion form of u
    on A's first qubit, S_ab = vec(B_a x I)^T M vec(B_b x I)*, a lower bound on the range."""
    quat = [PAULI["I"]] + [-1j * PAULI[a] for a in "XYZ"]
    basis = np.stack([np.kron(b, np.eye(2)).ravel() for b in quat])
    ev = np.linalg.eigvalsh((basis @ t.matrix @ basis.conj().T).real)
    return float(ev[-1] - ev[0])


def certificate(t):
    """d_A (lambda_max - lambda_min) of M: C = vec(U)^T M vec(U)* with |vec U|^2 = d_A
    bounds every range."""
    ev = np.linalg.eigvalsh(t.matrix)
    return float(t.part.d_A * (ev[-1] - ev[0]))


PSD_EIG_FLOOR = -1e-10
FIDELITY_ATOL = 1e-9


def _psd_sqrt(rho):
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    if float(w[0]) < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not positive semidefinite (min eig {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def bures_fidelity(rho, sigma):
    """F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rm, sm = as_matrix(rho), as_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionError("states must share one dimension")
    if not (is_hermitian(rm, atol=1e-9) and is_hermitian(sm, atol=1e-9)):
        raise ValueError("states must be Hermitian")
    root = _psd_sqrt(rm)
    inner = root @ sm @ root
    w = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    val = float(np.sum(np.sqrt(w))) ** 2
    if val > 1.0 + FIDELITY_ATOL:
        raise ValueError(f"fidelity {val!r} exceeds 1; are both states normalized?")
    return min(val, 1.0)


def product_rank(rho, sigma, rel_cutoff=1e-10):
    """Numerical rank of rho @ sigma: singular values above rel_cutoff * s_max."""
    s = np.linalg.svd(as_matrix(rho) @ as_matrix(sigma), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_cutoff * s[0]))


def fidelity_rank_bound(rho, sigma):
    """rank(rho sigma) * tr(rho sigma), the upper bound on the Bures fidelity."""
    rm, sm = as_matrix(rho), as_matrix(sigma)
    return product_rank(rm, sm) * float(np.trace(rm @ sm).real)


def first_moment_twirl(a):
    """E_V[V A V+] = tr(A)/d I over Haar V, exactly."""
    m = as_matrix(a)
    d = m.shape[0]
    return (np.trace(m) / d) * np.eye(d, dtype=complex)
