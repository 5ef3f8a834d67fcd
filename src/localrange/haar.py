"""Haar-measure moment identities and their Monte-Carlo cross-validation.

Closed forms implemented here:
  - second-moment reduced norm    E_V[||tr_B(Q V P V+)||_2^2]
  - average reduced purity        E_V[tr(rho_A^2)]
plus an independent evaluation of the reduced-norm moment through the
element-wise second-moment formula (two-term twirl with the swap operator),
and a seeded Monte-Carlo estimator to check everything against samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    BipartitePartition,
    DimensionError,
    as_matrix,
    check_density,
    partial_trace,
    to_a_first,
)

# Haar unitaries drawn per Monte-Carlo batch
MC_BATCH = 512


@dataclass(frozen=True)
class MomentQuery:
    """Operators P, Q and the A/B split entering the second-moment identity."""

    p: np.ndarray
    q: np.ndarray
    part: BipartitePartition

    def __post_init__(self):
        p, q = as_matrix(self.p), as_matrix(self.q)
        if p.shape[0] != self.part.d or q.shape[0] != self.part.d:
            raise DimensionError(
                f"P/Q dims {p.shape[0]}, {q.shape[0]} do not match d={self.part.d}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("need at least two samples for a standard error")


def haar_random_unitary(d: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phases are folded back into Q to make the distribution
    exactly Haar. With ``size`` given, returns a (size, d, d) stack.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    shape = (d, d) if size is None else (size, d, d)
    z = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    phases = diag / np.abs(diag)
    return q * phases[..., None, :]


def second_moment_reduced_norm(mq: MomentQuery) -> float:
    """Closed form for E_V[||tr_B(Q V P V+)||_2^2] over Haar V."""
    p, q, part = mq.p, mq.q, mq.part
    d, d_a = part.d, part.d_A
    tr_p = complex(np.trace(p))
    p22 = float(np.linalg.norm(p)) ** 2
    q22 = float(np.linalg.norm(q)) ** 2
    trb_q22 = float(np.linalg.norm(partial_trace(q, part, "B"))) ** 2
    val = (
        trb_q22 * (abs(tr_p) ** 2 - p22 / d) + d_a * q22 * (p22 - abs(tr_p) ** 2 / d)
    ) / (d**2 - 1)
    return float(val)


def second_moment_contracted(mq: MomentQuery) -> float:
    """Same moment via the element-wise two-term twirl formula; d <= 16 only.

    E[(VxV)(P x P+)(VxV)+] is evaluated explicitly with the swap operator and
    the result contracted against Q; this is an independent evaluation path of
    the closed form above.
    """
    p, q, part = mq.p, mq.q, mq.part
    d, d_a, d_b = part.d, part.d_A, part.d_B
    if d > 16:
        raise DimensionError("direct contraction path is limited to d <= 16")
    tr_p = complex(np.trace(p))
    p22 = float(np.linalg.norm(p)) ** 2
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    eye = np.eye(d * d)
    t2 = (
        (abs(tr_p) ** 2 - p22 / d) * eye + (p22 - abs(tr_p) ** 2 / d) * swap
    ) / (d**2 - 1)
    # contraction of Q, E[X1 x X2], Q* along the partial-trace wiring
    shape8 = (d_a, d_b) * 4
    t2r = t2.reshape(shape8)
    qr = to_a_first(q, part, operator=True).reshape(d_a, d_b, d_a, d_b)
    val = np.einsum("abcd,cdpqpbst,aqst->", qr, t2r, qr.conj())
    return float(val.real)


def average_reduced_purity(p, part: BipartitePartition) -> float:
    """E_V[tr(rho_A^2)] for rho_A = tr_B(V rho V+), in closed form."""
    rho = check_density(p)
    if rho.shape[0] != part.d:
        raise DimensionError("density matrix does not match the partition")
    d, d_a, d_b = part.d, part.d_A, part.d_B
    purity = float(np.trace(rho @ rho).real)
    return ((d_a**2 - 1) * d_b * purity + (d_b**2 - 1) * d_a) / (d**2 - 1)


def mc_second_moment(mq: MomentQuery, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of E_V[||tr_B(Q V P V+)||_2^2] over Haar samples."""
    if samples < 100:
        raise ValueError("need at least 100 samples")
    part = mq.part
    d, d_a, d_b = part.d, part.d_A, part.d_B
    # sampling in the A-leading frame; Haar measure is permutation invariant
    p = to_a_first(mq.p, part, operator=True)
    q = to_a_first(mq.q, part, operator=True)
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        k = min(MC_BATCH, samples - done)
        v = haar_random_unitary(d, rng, size=k)
        m = np.einsum("ab,kbc,cd->kad", q, v, p, optimize=True)
        m = np.einsum("kab,kcb->kac", m, v.conj())
        red = np.einsum("kaibi->kab", m.reshape(k, d_a, d_b, d_a, d_b))
        vals[done : done + k] = np.sum(np.abs(red) ** 2, axis=(1, 2))
        done += k
    mean = float(math.fsum(vals) / samples)
    var = float(math.fsum((vals - mean) ** 2) / (samples - 1))
    return McEstimate(mean=mean, stderr=math.sqrt(var / samples), samples=samples, seed=seed)


def mc_reduced_purity(rho, part: BipartitePartition, samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of E_V[tr(rho_A^2)], the Q = I special case."""
    mq = MomentQuery(as_matrix(rho), np.eye(part.d, dtype=complex), part)
    return mc_second_moment(mq, samples, seed)
