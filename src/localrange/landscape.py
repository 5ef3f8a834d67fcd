"""Variation range of the cost over one local gate, and the bounds it obeys.

The cost C(U_A) = tr(H V2 (U_A x I_B) V1 rho V1+ (U_A+ x I_B) V2+) is the
Hermitian form C(U) = vec(U)^T M vec(U)*: everything outside subsystem A is
contracted once into the d_A^2 x d_A^2 matrix M, and each candidate local gate
then costs O(d_A^4) to evaluate. For a single-qubit gate U = q0 I - i(q1 X + q2 Y + q3 Z),
q a unit quaternion, the cost is a quadratic form q^T S q with S real
symmetric 4 x 4, so the range max C - min C is lambda_max(S) - lambda_min(S).
For any gate size the range is also found by polar ascent on M: shifted by a
multiple of the identity, M is positive semidefinite, so each step
U <- polar(reshape(vec(U)^T M')) never lowers the cost and needs no step size.
That is the solver for two-qubit gates; the closed form and a grid scan cover
one qubit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .circuits import (
    GateProgram,
    GateSpec,
    LocalUnitaryParams,
    apply_stack,
    euler_zyz,
    local_unitary,
    su4_generators,
)
from .costs import Observable
from .haar import haar_random_unitary
from .linalg import PAULI, BipartitePartition, DimensionError, as_matrix, is_hermitian, max_abs, to_a_first

IMAG_RESIDUE_ATOL = 1e-10
DEGENERACY_RTOL = 1e-10
GRID_DEFAULT_RESOLUTION = 64


# ---------------------------------------------------------------------------
# transfer tensor


@dataclass(frozen=True)
class TransferTensor:
    """The cost as a Hermitian form in the local gate: C(U) = vec(U)^T M vec(U)*.

    ``matrix`` is M[(i, j), (k, l)] = T_ijkl, a read-only copy checked Hermitian here, once.
    """

    part: BipartitePartition
    matrix: np.ndarray

    def __post_init__(self):
        d2 = self.part.d_A ** 2
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d2, d2):
            raise DimensionError(f"matrix shape {m.shape} != (d_A^2,)*2 with d_A^2={d2}")
        if not is_hermitian(m, atol=1e-9):
            raise ValueError("cost quadratic form is not Hermitian; H or rho not Hermitian?")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def tensor(self) -> np.ndarray:
        """T_ijkl, the read-only (d_A, d_A, d_A, d_A) view of M."""
        return self.matrix.reshape((self.part.d_A,) * 4)

    def evaluate(self, u):
        """C(U) of one gate (a float) or of each gate in a (..., d_A, d_A) stack."""
        u = np.asarray(u, dtype=complex)
        d_a = self.part.d_A
        if u.shape[-2:] != (d_a, d_a):
            raise DimensionError(f"gate shape {u.shape} does not end in ({d_a}, {d_a})")
        x = u.reshape(u.shape[:-2] + (d_a * d_a,))
        vals = ((x @ self.matrix) * x.conj()).sum(-1).real
        return float(vals) if u.ndim == 2 else vals


def _state_columns(rho, d: int) -> tuple[np.ndarray, np.ndarray]:
    """rho = sum_r w_r |c_r><c_r| as (columns c, weights w); a vector is its own column."""
    rho_arr = np.asarray(rho, dtype=complex)
    if rho_arr.ndim == 1:
        if rho_arr.size != d:
            raise DimensionError(f"state dim {rho_arr.size} != {d}")
        return rho_arr[:, None], np.ones(1)
    rm = as_matrix(rho_arr)
    if rm.shape[0] != d:
        raise DimensionError(f"rho dim {rm.shape[0]} != {d}")
    if not is_hermitian(rm, atol=1e-10):
        raise ValueError("density matrix must be Hermitian")
    w, v = np.linalg.eigh((rm + rm.conj().T) / 2)
    keep = np.abs(w) > d * np.finfo(float).eps * max_abs(w)  # numerical rank
    return v[:, keep], w[keep]


def _apply_operator(op, states: np.ndarray) -> np.ndarray:
    """op applied to each sample's columns in the (S, 2^n, k) stack ``states``: op is
    None (identity), a list of S GatePrograms, or one GateProgram, Observable or
    matrix, which acts on all samples' columns side by side."""
    if op is None:
        return states
    if isinstance(op, list):
        return apply_stack(op, states)
    stack, d, k = states.shape
    cols = states.transpose(1, 0, 2).reshape(d, stack * k)
    if isinstance(op, (GateProgram, Observable)):
        out = op.apply(cols)
    else:
        m = as_matrix(op)
        if m.shape[0] != d:
            raise DimensionError(f"operator dim {m.shape[0]} != {d}")
        out = m @ cols
    return out.reshape(d, stack, k).transpose(1, 0, 2)


def expectation(h, rho, v) -> float:
    """C = tr(H V rho V+) = sum_r w_r <psi_r|H|psi_r> with psi_r = V c_r.

    Only state vectors are formed: ``rho`` is a density matrix (its weighted
    columns c_r) or a pure-state vector; ``v`` is None (identity), a
    GateProgram or a dense matrix; ``h`` an Observable or a dense matrix.
    """
    cols, weights = _state_columns(rho, np.shape(rho)[0])
    psi = _apply_operator(v, cols[None])
    val = complex(np.einsum("sxr,sxr,r->", psi.conj(), _apply_operator(h, psi), weights))
    scale = max(1.0, abs(val))
    if not abs(val.imag) <= IMAG_RESIDUE_ATOL * scale:  # NaN fails too
        raise ValueError(f"cost has non-negligible imaginary part {val.imag:.3e}")
    return val.real


def transfer_tensor(h, rho, v1, v2, part: BipartitePartition):
    """Contract H, rho, V1, V2 into the quadratic form over the local gate.

    With rho = sum_r w_r |c_r><c_r| and psi_r = V1 c_r, write psi_r[j] for the
    B-block of psi_r at A-index j. Then

        T_ijkl = sum_r w_r <e_k x psi_r[l]| V2+ H V2 |e_i x psi_r[j]>,

    so V1 acts on rank(rho) vectors and V2 and H on d_A^2 rank(rho) vectors.
    A rank-one ``Observable`` (H = I - |phi><phi|) with V2 None or gate programs
    instead sends one vector, chi = V2+ phi, through the adjoint programs, and

        T_ijkl = sum_r w_r (delta_ik <psi_r[l]|psi_r[j]> - <chi[i]|psi_r[j]> conj<chi[k]|psi_r[l]>).

    ``rho`` is a density matrix or a pure-state vector, ``v1``/``v2`` None
    (identity), a GateProgram or a dense matrix, ``h`` an Observable or a dense
    matrix. Lists of S states of one rank or S GatePrograms sharing their CZ
    runs make a stack, items outside a list being shared: V1, V2 and H run once
    over it, and the S tensors come back as a list. A sample's gemms have the
    same shapes in any stack.
    """
    d, d_a, d_b = part.d, part.d_A, part.d_B
    sizes = {len(a) for a in (rho, v1, v2) if isinstance(a, list)}
    if len(sizes) > 1:
        raise DimensionError(f"stacked rho, v1 and v2 differ in length: {sorted(sizes)}")
    stack = max(sizes, default=1)
    states = [_state_columns(r, d) for r in (rho if isinstance(rho, list) else [rho])]
    if len({w.size for _, w in states}) > 1:
        raise DimensionError("the states of a stack must share one rank")
    cols, weights = (np.stack(side) for side in zip(*states))
    rank = weights.shape[1]
    # psi[j, b, s, r] with the A qubits leading
    psi = _apply_operator(v1, np.broadcast_to(cols, (stack, d, rank)))
    psi = to_a_first(psi.transpose(1, 0, 2), part).reshape(d_a, d_b, stack, rank)
    rank_one = (isinstance(h, Observable) and h.kind == "rank_one"
                and (v2 is None or isinstance(v2, (GateProgram, list))))
    m = (_rank_one_matrices if rank_one else _general_matrices)(h, psi, weights, v2, part)
    if not sizes:
        return TransferTensor(part, matrix=m[0])
    return [TransferTensor(part, matrix=mk) for mk in m]


def _general_matrices(h, psi, weights, v2, part: BipartitePartition) -> np.ndarray:
    """The (S, d_A^2, d_A^2) stack of M from psi[j, b, s, r]: V2 and H act on the
    d_A^2 rank vectors e_i x psi_sr[j] of each sample."""
    d, (d_a, d_b, stack, rank) = part.d, psi.shape
    # x[a, b, s, r, i, j] = delta_ai psi[j, b, s, r]: the vectors e_i x psi_sr[j]
    x = np.zeros((d_a, d_b, stack, rank, d_a, d_a), dtype=complex)
    for i in range(d_a):
        x[i, :, :, :, i] = psi.transpose(1, 2, 3, 0)
    x = to_a_first(x.reshape(d, stack, -1), part, inverse=True)
    y = _apply_operator(v2, x.transpose(1, 0, 2))
    hy = _apply_operator(h, y).reshape(stack, d, rank, d_a**2) * weights[:, None, :, None]
    # M_s[ij, kl] = sum_xr w_sr (H y_s)[x, r, ij] conj(y_s[x, r, kl]): one gemm per sample
    return np.matmul(hy.reshape(stack, d * rank, -1).transpose(0, 2, 1),
                     y.conj().reshape(stack, d * rank, -1))


def _rank_one_matrices(h, psi, weights, v2, part: BipartitePartition) -> np.ndarray:
    """The (S, d_A^2, d_A^2) stack of M for H = I - |phi><phi|, from psi[j, b, s, r]:
    M_s = I_A x Gram_s - sum_r w_sr a_sr a_sr+, with a_sr[ij] = <chi_s[i]|psi_sr[j]>
    and chi_s = V2_s+ phi. V2 must be unitary, which ``GateProgram`` checks.
    Each product is one np.matmul over the samples, of the same shapes in any stack.
    """
    d_a, d_b, stack, rank = psi.shape
    phi = h.data[None, :, None]
    if isinstance(v2, list):
        chi = apply_stack([p.adjoint() for p in v2], np.broadcast_to(phi, (stack, part.d, 1)))
    else:
        chi = phi if v2 is None else v2.adjoint().apply(phi[0])[None]
    chi = np.ascontiguousarray(to_a_first(chi[:, :, 0].T, part).T).reshape(-1, 1, d_a, d_b)
    x = np.ascontiguousarray(psi.transpose(2, 3, 0, 1))  # x[s, r, j, b] = psi_sr[j, b]
    a = np.matmul(chi.conj(), x.transpose(0, 1, 3, 2)).reshape(stack, rank, d_a * d_a)
    # gram[s, j, l] = sum_r w_sr <psi_sr[l]|psi_sr[j]>, one gemm over (r, b)
    y = x.transpose(0, 2, 1, 3).reshape(stack, d_a, rank * d_b)
    yw = (x * weights[:, :, None, None]).transpose(0, 2, 1, 3).reshape(stack, d_a, rank * d_b)
    gram = np.matmul(yw, y.conj().transpose(0, 2, 1))
    m = -np.matmul(a.transpose(0, 2, 1) * weights[:, None, :], a.conj())
    blocks = m.reshape(stack, d_a, d_a, d_a, d_a)
    for i in range(d_a):
        blocks[:, i, :, i] += gram
    return m


# ---------------------------------------------------------------------------
# optimizers


@dataclass(frozen=True)
class VariationResult:
    """Extrema of the cost over the local gate and where they are attained.

    ``degenerate`` (exact solver): the top or bottom eigenvalue of S is within
    DEGENERACY_RTOL * delta of its neighbour, so the argmax or argmin is not unique.
    """

    max_value: float
    min_value: float
    delta: float
    argmax: LocalUnitaryParams
    argmin: LocalUnitaryParams
    method: str
    iterations: int
    converged: bool
    degenerate: bool = False


# U = q0 I - i(q1 X + q2 Y + q3 Z) = sum_a q_a B^a for a unit quaternion q
_QUATERNION_BASIS = np.stack([PAULI["I"]] + [-1j * PAULI[a] for a in "XYZ"])


def quaternion_form(t: TransferTensor) -> np.ndarray:
    """Real symmetric S with C(U) = q^T S q, from S_ab = sum T_ijkl B^a_ij conj(B^b_kl).

    S is Hermitian because M is; its antisymmetric imaginary part is roundoff and drops out.
    """
    if t.part.m != 1:
        raise DimensionError("the quaternion form requires a single-qubit subsystem")
    s = np.einsum("ijkl,aij,bkl->ab", t.tensor, _QUATERNION_BASIS, _QUATERNION_BASIS.conj())
    return ((s + s.conj().T) / 2).real


def _zyz_from_quaternion(q: np.ndarray) -> LocalUnitaryParams:
    """ZYZ angles of +-sum_a q_a B^a, the sign making the largest |q_a| positive.

    Rz(phi) Ry(theta) Rz(alpha) has q0 - i q3 = cos(theta/2) e^{-i(phi+alpha)/2}
    and q2 - i q1 = sin(theta/2) e^{i(phi-alpha)/2}, the poles included.
    """
    q = q.tolist()
    if max(q, key=abs) < 0:
        q = [-x for x in q]
    q0, q1, q2, q3 = q
    plus, minus = 2.0 * math.atan2(q3, q0), 2.0 * math.atan2(-q1, q2)
    theta = 2.0 * math.atan2(math.hypot(q1, q2), math.hypot(q0, q3))
    return LocalUnitaryParams(((plus + minus) / 2, theta, (plus - minus) / 2))


def variation_range_exact_m1(t: TransferTensor) -> VariationResult:
    """Closed-form range: the extreme eigenpairs of S, centred on tr(S)/4 for accuracy."""
    s = quaternion_form(t)
    c0 = float(s.trace()) / 4
    w, v = np.linalg.eigh(s - c0 * np.eye(4))
    lo, w1, w2, hi = w.tolist()
    delta = hi - lo
    return VariationResult(
        max_value=c0 + hi,
        min_value=c0 + lo,
        delta=delta,
        argmax=_zyz_from_quaternion(v[:, 3]),
        argmin=_zyz_from_quaternion(v[:, 0]),
        method="exact",
        iterations=0,
        converged=True,
        degenerate=min(w1 - lo, hi - w2) <= DEGENERACY_RTOL * delta,
    )


@lru_cache(maxsize=8)
def _euler_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """All resolution^3 ZYZ unitaries on the uniform [0, 2pi)^3 grid, read-only."""
    angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    angs = np.stack([a.ravel() for a in np.meshgrid(angles, angles, angles, indexing="ij")], axis=1)
    us = euler_zyz(*angs.T)
    us.flags.writeable = angs.flags.writeable = False  # shared through the cache
    return us, angs


def variation_range_grid(t: TransferTensor, resolution: int = GRID_DEFAULT_RESOLUTION) -> VariationResult:
    """Exhaustive scan of the Euler-angle grid; single-qubit subsystems only."""
    if t.part.m != 1:
        raise DimensionError("grid search requires a single-qubit subsystem")
    if resolution < 4:
        raise ValueError("grid resolution must be at least 4")
    us, angs = _euler_grid(resolution)
    vals = t.evaluate(us)
    hi, lo = int(np.argmax(vals)), int(np.argmin(vals))
    return VariationResult(
        max_value=float(vals[hi]),
        min_value=float(vals[lo]),
        delta=float(vals[hi] - vals[lo]),
        argmax=LocalUnitaryParams(angs[hi]),
        argmin=LocalUnitaryParams(angs[lo]),
        method="grid",
        iterations=resolution**3,
        converged=True,
    )


# The polar ascent's fixed settings: restarts (the identity, then Haar draws),
# the step cap of each restart, and the relative gain still to come at which one stops.
POLAR_RESTARTS = 8
POLAR_MAX_STEPS = 5000
POLAR_GAIN_RTOL = 1e-12


def _polar_ascent(p: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Maximise f(U) = vec(U)^T P vec(U)* over unitaries, P positive semidefinite.

    ``p`` is a (k, d^2, d^2) stack of forms and ``u`` a (r, d, d) stack of starts;
    every form runs from every start. f is convex, so f(U') >= f(U) + 2 Re tr(G^+ (U' - U))
    with G = reshape(vec(U)^T P), and U' = polar(G) maximises the right side: each
    step never lowers f. The gains shrink geometrically near a maximum, at a rate
    that can be close to 1, so a run stops when the gain still to come at the
    last rate falls to POLAR_GAIN_RTOL * f, when a step gains nothing, or after
    POLAR_MAX_STEPS steps. Returns (gates (k, r, d, d), f (k, r), steps
    summed over the runs, whether every run stopped on its gain).
    """
    (k, d2, _), (r, d, _) = p.shape, u.shape
    form = np.repeat(np.arange(k), r)  # the runs are (form, start) pairs, form-major
    x = np.tile(u.reshape(r, d2), (k, 1))
    g = (x[:, None] @ p[form])[:, 0]
    f = (g * x.conj()).sum(-1).real
    last_gain = np.full(k * r, np.inf)
    run = np.arange(k * r)  # the runs still going
    steps = 0
    for _ in range(POLAR_MAX_STEPS):
        w, _, vh = np.linalg.svd(g[run].reshape(-1, d, d))
        x_new = (w @ vh).reshape(-1, d2)
        g_new = (x_new[:, None] @ p[form[run]])[:, 0]
        f_new = (g_new * x_new.conj()).sum(-1).real
        gain = f_new - f[run]
        # the gains fall geometrically, at the rate of the last two, so all that
        # is left to gain is gain / (1 - rate)
        rate = np.maximum(gain, 0.0) / np.maximum(last_gain[run], np.maximum(gain, 0.0))
        steps += run.size
        x[run], g[run], f[run], last_gain[run] = x_new, g_new, f_new, gain
        run = run[(gain > 0) & (gain > POLAR_GAIN_RTOL * f_new * (1 - rate))]
        if not run.size:
            break
    return x.reshape(k, r, d, d), f.reshape(k, r), steps, not run.size


def _local_params(u: np.ndarray) -> LocalUnitaryParams:
    """Parameters naming U up to a global phase, which the cost does not see.

    m = 1: ZYZ angles of the quaternion of U det(U)^(-1/2). m = 2: the 15 Pauli
    coefficients of the traceless part of a Hermitian log G of U det(U)^(-1/4),
    exp(-iG) = Z exp(i diag(theta)) Z^+ from the complex Schur form (the Schur form
    of a unitary is diagonal).
    """
    d = u.shape[0]
    u = u * np.linalg.det(u) ** (-1.0 / d)
    if d == 2:
        q = np.einsum("aij,ij->a", _QUATERNION_BASIS.conj(), u).real / 2
        return _zyz_from_quaternion(q / np.linalg.norm(q))
    if d == 4:
        from scipy.linalg import schur  # loaded on first m = 2 use only

        tri, z = schur(u, output="complex")
        g = -(z * np.angle(np.diag(tri))) @ z.conj().T
        return LocalUnitaryParams([np.einsum("ij,ji->", gen, g).real / 4 for gen in su4_generators()])
    raise DimensionError("local gate parameters cover one- or two-qubit subsystems")


def variation_range_polar(t: TransferTensor, rng: np.random.Generator) -> VariationResult:
    """Polar ascent on M for the maximum and on -M for the minimum, any d_A.

    On unitaries vec(U)^T M vec(U)* differs from the form of M - lambda_min I
    (or lambda_max I - M, for the minimum) by a constant, and those two are
    positive semidefinite, so `_polar_ascent` applies. Both run from the identity
    and from POLAR_RESTARTS - 1 Haar gates drawn from ``rng``; the best run of each
    is read back as parameters, and its value is C at the gate they name.
    ``converged``: every run stopped on its gain.
    """
    d_a = t.part.d_A
    ev = np.linalg.eigvalsh(t.matrix)
    eye = np.eye(d_a * d_a)
    forms = np.stack([t.matrix - ev[0] * eye, ev[-1] * eye - t.matrix])
    starts = np.concatenate([np.eye(d_a, dtype=complex)[None],
                             haar_random_unitary(d_a, rng, size=POLAR_RESTARTS - 1)])
    gates, f, steps, converged = _polar_ascent(forms, starts)
    best = np.argmax(f, axis=1)
    argmax, argmin = (_local_params(gates[s, best[s]]) for s in (0, 1))
    max_value, min_value = (t.evaluate(local_unitary(a)) for a in (argmax, argmin))
    return VariationResult(
        max_value=max_value,
        min_value=min_value,
        delta=max_value - min_value,
        argmax=argmax,
        argmin=argmin,
        method="polar",
        iterations=steps,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# bounds


class BoundViolation(RuntimeError):
    """A measured quantity exceeds a bound that the theory says it obeys."""


def theorem1_bound(w: float, n: int, m: int) -> float:
    """E[delta] <= w / 2^(n/2 - 3m - 2) for a Haar-random side."""
    if w < 0:
        raise ValueError("spectral width must be nonnegative")
    return w * 2.0 ** (3 * m + 2 - n / 2)


def variance_bound(w: float, n: int, m: int) -> float:
    """Var[delta] <= w^2 / 2^(n/2 - 3m - 2)."""
    return w * theorem1_bound(w, n, m)


def markov_tail(w: float, n: int, m: int, eps: float) -> float:
    """Pr[delta >= eps] <= (1/eps) * w / 2^(n/2 - 3m - 2) (not capped at 1)."""
    if eps <= 0:
        raise ValueError("tail threshold must be positive")
    return theorem1_bound(w, n, m) / eps


def qsl_bound(n: int, m: int) -> float:
    """State-learning range bound E[delta] <= 1 / 2^(n - 2m)."""
    return 2.0 ** (2 * m - n)


# (N_A, N_AB) of each task's H across A = the first m qubits and the rest, B.
# N_A is 1 when tr_B(H) is nonzero; N_AB counts the non-identity Pauli words
# on A that pair with a traceless operator on B. vqe: the single-qubit words
# of the A-B bonds, and at m = 2 the bond inside A; qae: R is the last qubit,
# so H is I_A times an operator on B; qsl: every Z word on A couples to B in
# |0...0><0...0|.
COUPLING_RANKS = {
    "vqe": {1: (0, 3), 2: (1, 6)},
    "qae": {1: (1, 0), 2: (1, 0)},
    "qsl": {1: (1, 1), 2: (1, 3)},
}
MARKOV_EPS = (0.1, 0.01)


def coupling_ranks(task: str, m: int) -> tuple[int, int]:
    """(N_A, N_AB) of the task's H for a gate on the first m qubits."""
    try:
        return COUPLING_RANKS[task][m]
    except KeyError:
        raise ValueError(f"no coupling ranks for task {task!r} at m={m}") from None


def tight_bound_formula(task: str, n: int, w: float, m: int) -> float:
    """max{N_A + 2 N_AB, d_A sqrt(d/(d-1))} * ||H - tr(H) I/d||_inf * sqrt(d_A/d_B).

    The norm is w - n for vqe (H is traceless, lambda_max is the bond count n
    and -lambda_min >= n, so it is -lambda_min), 1/2 for qae (eigenvalues 0
    and 1, equally many) and 1 - 2^-n for qsl (eigenvalue 0 once, 1 elsewhere).
    """
    n_a, n_ab = coupling_ranks(task, m)
    d, d_a = 2.0**n, 2.0**m
    norm = {"vqe": w - n, "qae": 0.5, "qsl": 1.0 - 2.0**-n}[task]
    factor = max(n_a + 2 * n_ab, d_a * np.sqrt(d / (d - 1)))
    return float(factor * norm * np.sqrt(d_a / 2.0 ** (n - m)))


def task_tight_bound(task: str, n: int, w: float, m: int = 1) -> float:
    """The tight bound of every CSV row: ``tight_bound_formula``, except for m = 1
    vqe and qae, which keep the published constants 24 w 2^{-n/2} and
    (8/sqrt 3) 2^{-n/2}, about 3.1x and 2.3x above the formula."""
    if m == 1 and task == "vqe":
        return 24.0 * w * 2.0 ** (-n / 2)
    if m == 1 and task == "qae":
        return (8.0 / np.sqrt(3.0)) * 2.0 ** (-n / 2)
    return tight_bound_formula(task, n, w, m)


# ---------------------------------------------------------------------------
# parameterized circuits, shift rule, telescoping


class ParameterizedCircuit:
    """Ordered gate list with free rotation angles filled in at call time.

    Rotations are R_P(theta) = exp(-i theta P / 2), as everywhere in the package.
    """

    def __init__(self, n: int, gates: list[GateSpec]):
        self.n = n
        self.gates = list(gates)
        self.free = [i for i, g in enumerate(self.gates) if g.kind != "cz" and g.angle is None]

    @property
    def num_parameters(self) -> int:
        return len(self.free)

    def bind(self, theta) -> list[GateSpec]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.free),):
            raise ValueError(f"expected {len(self.free)} parameters, got shape {theta.shape}")
        bound = list(self.gates)
        for val, idx in zip(theta, self.free):
            bound[idx] = replace(bound[idx], angle=float(val))
        return bound

    def cost(self, h, rho, theta) -> float:
        """C(theta) = tr(H U(theta) rho U(theta)+), on state vectors."""
        return expectation(h, rho, GateProgram.from_gates(self.n, self.bind(theta)))


def parameter_shift_derivative(pc: ParameterizedCircuit, h, rho, theta, mu: int) -> float:
    """Exact derivative of the cost in parameter mu: [C(+pi/2 shift) - C(-pi/2 shift)] / 2."""
    theta = np.asarray(theta, dtype=float)
    if not 0 <= mu < pc.num_parameters:
        raise ValueError(f"parameter index {mu} out of range")
    e = np.zeros_like(theta)
    e[mu] = np.pi / 2
    return (pc.cost(h, rho, theta + e) - pc.cost(h, rho, theta - e)) / 2


def delta_mu(pc: ParameterizedCircuit, h, rho, theta, mu: int) -> VariationResult:
    """Variation range over arbitrary replacement of the gate carrying theta_mu."""
    if not 0 <= mu < pc.num_parameters:
        raise ValueError(f"parameter index {mu} out of range")
    bound = pc.bind(theta)
    idx = pc.free[mu]
    v1 = GateProgram.from_gates(pc.n, bound[:idx])
    v2 = GateProgram.from_gates(pc.n, bound[idx + 1:])
    part = BipartitePartition(pc.n, (bound[idx].target,))
    return variation_range_exact_m1(transfer_tensor(h, rho, v1, v2, part))


def telescoping_bound_check(pc: ParameterizedCircuit, h, rho, theta, theta_prime) -> tuple[float, float]:
    """|C(theta') - C(theta)| against the sum of per-parameter ranges.

    Walks from theta to theta' one coordinate at a time; each step is bounded
    by the range of the gate being changed, with all other gates held at the
    intermediate point.
    """
    theta = np.asarray(theta, dtype=float)
    theta_prime = np.asarray(theta_prime, dtype=float)
    if theta.shape != theta_prime.shape:
        raise ValueError("parameter vectors must have the same length")
    lhs = abs(pc.cost(h, rho, theta_prime) - pc.cost(h, rho, theta))
    rhs = 0.0
    current = theta.copy()
    for mu in range(pc.num_parameters):
        rhs += delta_mu(pc, h, rho, current, mu).delta
        current[mu] = theta_prime[mu]
    if lhs > rhs + 1e-9:
        raise BoundViolation(f"telescoping bound violated: {lhs} > {rhs}")
    return lhs, rhs
