"""Variation range of the cost over one local gate, and the bounds it obeys.

The cost C(U_A) = tr(H V2 (U_A x I_B) V1 rho V1+ (U_A+ x I_B) V2+) is quadratic
in the entries of U_A, so everything outside subsystem A is contracted once
into a d_A^2 x d_A^2 transfer tensor; each candidate local gate then costs
O(d_A^4) to evaluate. For a single-qubit gate U = q0 I - i(q1 X + q2 Y + q3 Z),
q a unit quaternion, the cost is a quadratic form q^T S q with S real
symmetric 4 x 4, so the range max C - min C is lambda_max(S) - lambda_min(S).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import expm, expm_frechet

from .circuits import (
    GateProgram,
    GateSpec,
    LocalUnitaryParams,
    rotation,
    su4_generators,
)
from .costs import Observable
from .linalg import PAULI, BipartitePartition, DimensionError, as_matrix, max_abs, to_a_first

IMAG_RESIDUE_ATOL = 1e-10
DEGENERACY_RTOL = 1e-10
GRID_DEFAULT_RESOLUTION = 64


# ---------------------------------------------------------------------------
# transfer tensor


@dataclass(frozen=True)
class TransferTensor:
    """Quadratic form of the cost in the local gate: C(U) = sum T[ijkl] U_ij U*_kl."""

    part: BipartitePartition
    tensor: np.ndarray  # shape (d_A, d_A, d_A, d_A), indices (i, j, k, l)

    def __post_init__(self):
        d_a = self.part.d_A
        t = np.asarray(self.tensor, dtype=complex)
        if t.shape != (d_a, d_a, d_a, d_a):
            raise DimensionError(f"tensor shape {t.shape} != (d_A,)*4 with d_A={d_a}")
        object.__setattr__(self, "tensor", t)

    def evaluate(self, ua) -> float:
        u = np.asarray(ua, dtype=complex)
        val = np.einsum("ijkl,ij,kl->", self.tensor, u, u.conj())
        return float(val.real)

    def as_matrix(self) -> np.ndarray:
        d2 = self.part.d_A ** 2
        return self.tensor.reshape(d2, d2)


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
    w, v = np.linalg.eigh((rm + rm.conj().T) / 2)
    keep = np.abs(w) > d * np.finfo(float).eps * max_abs(w)  # numerical rank
    return v[:, keep], w[keep]


def _apply_operator(op, states: np.ndarray) -> np.ndarray:
    """op applied to the columns of ``states``; op is None (identity), a
    GateProgram, an Observable or a matrix."""
    if op is None:
        return states
    if isinstance(op, (GateProgram, Observable)):
        return op.apply(states)
    m = as_matrix(op)
    if m.shape[0] != states.shape[0]:
        raise DimensionError(f"operator dim {m.shape[0]} != {states.shape[0]}")
    return m @ states


def expectation(h, rho, v) -> float:
    """C = tr(H V rho V+) = sum_r w_r <psi_r|H|psi_r> with psi_r = V c_r.

    Only state vectors are formed: ``rho`` is a density matrix (its weighted
    columns c_r) or a pure-state vector; ``v`` is None (identity), a
    GateProgram or a dense matrix; ``h`` an Observable or a dense matrix.
    """
    cols, weights = _state_columns(rho, np.shape(rho)[0])
    psi = _apply_operator(v, cols)
    val = complex(np.einsum("xr,xr,r->", psi.conj(), _apply_operator(h, psi), weights))
    scale = max(1.0, abs(val))
    if abs(val.imag) > IMAG_RESIDUE_ATOL * scale:
        raise ValueError(f"cost has non-negligible imaginary part {val.imag:.3e}")
    return val.real


def transfer_tensor(h, rho, v1, v2, part: BipartitePartition) -> TransferTensor:
    """Contract H, rho, V1, V2 into the quadratic form over the local gate.

    With rho = sum_r w_r |c_r><c_r| and psi_r = V1 c_r, write psi_r[j] for the
    B-block of psi_r at A-index j. Then

        T_ijkl = sum_r w_r <e_k x psi_r[l]| V2+ H V2 |e_i x psi_r[j]>,

    so V1 acts on rank(rho) vectors and V2 and H on d_A^2 rank(rho) vectors.
    ``rho`` may be a density matrix or a pure-state vector; ``v1``/``v2`` may be
    None (identity), a GateProgram or a dense matrix; ``h`` an Observable or a
    dense matrix.
    """
    n, d, d_a, d_b = part.n, part.d, part.d_A, part.d_B
    h_dim = 2**h.n if isinstance(h, Observable) else as_matrix(h).shape[0]
    if h_dim != d:
        raise DimensionError(f"H dim {h_dim} != 2^{n}")
    cols, weights = _state_columns(rho, d)
    rank = weights.size
    # psi[j, b, r] with the A qubits leading
    psi = to_a_first(_apply_operator(v1, cols), part).reshape(d_a, d_b, rank)
    # x[a, b, i, j, r] = delta_ai psi[j, b, r]: the vectors e_i x psi_r[j]
    x = np.zeros((d_a, d_b, d_a, d_a, rank), dtype=complex)
    for i in range(d_a):
        x[i, :, i] = psi.transpose(1, 0, 2)
    x = to_a_first(x.reshape(d, -1), part, inverse=True)
    y = _apply_operator(v2, x)
    hy = _apply_operator(h, y).reshape(d, d_a, d_a, rank)
    t = np.einsum("xklr,xijr,r->ijkl", y.conj().reshape(hy.shape), hy, weights)
    return TransferTensor(part=part, tensor=t)


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

    That S is Hermitian for valid input; its antisymmetric imaginary part drops out.
    """
    if t.part.m != 1:
        raise DimensionError("the quaternion form requires a single-qubit subsystem")
    s = np.einsum("ijkl,aij,bkl->ab", t.tensor, _QUATERNION_BASIS, _QUATERNION_BASIS.conj())
    if max_abs(s - s.conj().T) > 1e-9 * max(1.0, max_abs(s)):
        raise ValueError("cost quadratic form is not Hermitian; H or rho not Hermitian?")
    return ((s + s.conj().T) / 2).real


def _zyz_from_quaternion(q: np.ndarray) -> LocalUnitaryParams:
    """ZYZ angles of +-sum_a q_a B^a, the sign making the largest |q_a| positive.

    Rz(phi) Ry(theta) Rz(alpha) has q0 - i q3 = cos(theta/2) e^{-i(phi+alpha)/2}
    and q2 - i q1 = sin(theta/2) e^{i(phi-alpha)/2}, the poles included.
    """
    q0, q1, q2, q3 = q * np.sign(q[np.argmax(np.abs(q))])
    plus, minus = 2.0 * np.arctan2(q3, q0), 2.0 * np.arctan2(-q1, q2)
    theta = 2.0 * np.arctan2(np.hypot(q1, q2), np.hypot(q0, q3))
    return LocalUnitaryParams(((plus + minus) / 2, theta, (plus - minus) / 2))


def variation_range_exact_m1(t: TransferTensor) -> VariationResult:
    """Closed-form range: the extreme eigenpairs of S, centred on tr(S)/4 for accuracy."""
    s = quaternion_form(t)
    c0 = np.trace(s) / 4
    w, v = np.linalg.eigh(s - c0 * np.eye(4))
    delta = float(w[3] - w[0])
    return VariationResult(
        max_value=float(c0 + w[3]),
        min_value=float(c0 + w[0]),
        delta=delta,
        argmax=_zyz_from_quaternion(v[:, 3]),
        argmin=_zyz_from_quaternion(v[:, 0]),
        method="exact",
        iterations=0,
        converged=True,
        degenerate=bool(min(w[1] - w[0], w[3] - w[2]) <= DEGENERACY_RTOL * delta),
    )


@lru_cache(maxsize=8)
def _euler_grid(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """All resolution^3 ZYZ unitaries on the uniform [0, 2pi)^3 grid, read-only."""
    angles = np.linspace(0.0, 2 * np.pi, resolution, endpoint=False)
    phi, theta, alpha = np.meshgrid(angles, angles, angles, indexing="ij")
    phi, theta, alpha = phi.ravel(), theta.ravel(), alpha.ravel()
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    us = np.empty((phi.size, 2, 2), dtype=complex)
    us[:, 0, 0] = np.exp(-0.5j * (phi + alpha)) * c
    us[:, 0, 1] = -np.exp(-0.5j * (phi - alpha)) * s
    us[:, 1, 0] = np.exp(0.5j * (phi - alpha)) * s
    us[:, 1, 1] = np.exp(0.5j * (phi + alpha)) * c
    angs = np.stack([phi, theta, alpha], axis=1)
    us.flags.writeable = angs.flags.writeable = False  # shared through the cache
    return us, angs


def variation_range_grid(t: TransferTensor, resolution: int = GRID_DEFAULT_RESOLUTION) -> VariationResult:
    """Exhaustive scan of the Euler-angle grid; single-qubit subsystems only."""
    if t.part.m != 1:
        raise DimensionError("grid search requires a single-qubit subsystem")
    if resolution < 4:
        raise ValueError("grid resolution must be at least 4")
    us, angs = _euler_grid(resolution)
    vals = np.einsum("ijkl,nij,nkl->n", t.tensor, us, us.conj(), optimize=True).real
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


@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    iterations: int = 300
    restarts: int = 3
    grad_tol: float = 1e-6
    seed: int = 0


def _cost_and_grad_m1(t: TransferTensor, x: np.ndarray) -> tuple[float, np.ndarray]:
    phi, theta, alpha = x
    rz1, ry, rz2 = rotation("z", phi), rotation("y", theta), rotation("z", alpha)
    u = rz1 @ ry @ rz2
    gens = (
        -0.5j * PAULI["Z"] @ u,
        rz1 @ (-0.5j * PAULI["Y"]) @ ry @ rz2,
        u @ (-0.5j * PAULI["Z"]),
    )
    tu = np.einsum("ijkl,kl->ij", t.tensor, u.conj())
    val = float(np.einsum("ij,ij->", tu, u).real)
    grad = np.array([2.0 * np.einsum("ij,ij->", tu, du).real for du in gens])
    return val, grad


def _cost_and_grad_m2(t: TransferTensor, x: np.ndarray) -> tuple[float, np.ndarray]:
    gens = su4_generators()
    a = -1j * sum(c * g for c, g in zip(x, gens))
    u = expm(a)
    tu = np.einsum("ijkl,kl->ij", t.tensor, u.conj())
    val = float(np.einsum("ij,ij->", tu, u).real)
    grad = np.empty(15)
    for k, g in enumerate(gens):
        _, du = expm_frechet(a, -1j * g)
        grad[k] = 2.0 * np.einsum("ij,ij->", tu, du).real
    return val, grad


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
    raw = _cost_and_grad_m1 if m == 1 else _cost_and_grad_m2

    def fg(x):
        return raw(t, x)

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


@dataclass(frozen=True)
class BoundReport:
    general: float
    variance: float
    tight: float
    qsl: float | None
    n_a: int
    n_ab: int
    markov: dict[float, float] = field(default_factory=dict)


def bound_report(task: str, n: int, m: int, w: float) -> BoundReport:
    """Every bound for the task on n qubits with the gate on the first m, in closed form."""
    n_a, n_ab = coupling_ranks(task, m)
    return BoundReport(
        general=theorem1_bound(w, n, m),
        variance=variance_bound(w, n, m),
        tight=tight_bound_formula(task, n, w, m),
        qsl=qsl_bound(n, m) if task == "qsl" else None,
        n_a=n_a,
        n_ab=n_ab,
        markov={eps: markov_tail(w, n, m, eps) for eps in MARKOV_EPS},
    )


# ---------------------------------------------------------------------------
# parameterized circuits, shift rule, telescoping


class ParameterizedCircuit:
    """Ordered gate list with free rotation angles filled in at call time.

    convention 'half' uses R_P(theta) = exp(-i theta P / 2); 'unit' uses
    exp(-i theta P), for which the quarter-shift rule is exact.
    """

    def __init__(self, n: int, gates: list[GateSpec], convention: str = "half"):
        if convention not in ("half", "unit"):
            raise ValueError(f"unknown rotation convention {convention!r}")
        self.n = n
        self.gates = list(gates)
        self.convention = convention
        self.free = [i for i, g in enumerate(self.gates) if g.kind != "cz" and g.angle is None]

    @property
    def num_parameters(self) -> int:
        return len(self.free)

    def bind(self, theta) -> list[GateSpec]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.free),):
            raise ValueError(f"expected {len(self.free)} parameters, got shape {theta.shape}")
        scale = 1.0 if self.convention == "half" else 2.0
        bound = list(self.gates)
        for val, idx in zip(theta, self.free):
            bound[idx] = replace(bound[idx], angle=scale * float(val))
        return bound

    def cost(self, h, rho, theta) -> float:
        """C(theta) = tr(H U(theta) rho U(theta)+), on state vectors."""
        return expectation(h, rho, GateProgram(self.n, self.bind(theta)))


def parameter_shift_derivative(pc: ParameterizedCircuit, h, rho, theta, mu: int) -> float:
    """Exact derivative of the cost in parameter mu via shifted evaluations.

    Half-angle convention: [C(+pi/2 shift) - C(-pi/2 shift)] / 2; unit
    convention: C(+pi/4 shift) - C(-pi/4 shift), no division.
    """
    theta = np.asarray(theta, dtype=float)
    if not 0 <= mu < pc.num_parameters:
        raise ValueError(f"parameter index {mu} out of range")
    shift = np.pi / 2 if pc.convention == "half" else np.pi / 4
    e = np.zeros_like(theta)
    e[mu] = shift
    diff = pc.cost(h, rho, theta + e) - pc.cost(h, rho, theta - e)
    return diff / 2 if pc.convention == "half" else diff


def _split_at_gate(pc: ParameterizedCircuit, bound: list[GateSpec], gate_idx: int):
    """(V1, target qubit, V2): the programs before and after gate gate_idx."""
    v1 = GateProgram(pc.n, bound[:gate_idx])
    v2 = GateProgram(pc.n, bound[gate_idx + 1:])
    return v1, bound[gate_idx].target, v2


def delta_mu(pc: ParameterizedCircuit, h, rho, theta, mu: int) -> VariationResult:
    """Variation range over arbitrary replacement of the gate carrying theta_mu."""
    if not 0 <= mu < pc.num_parameters:
        raise ValueError(f"parameter index {mu} out of range")
    bound = pc.bind(theta)
    v1, target, v2 = _split_at_gate(pc, bound, pc.free[mu])
    part = BipartitePartition(pc.n, (target,))
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
