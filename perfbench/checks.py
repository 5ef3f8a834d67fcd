"""Output checks, each computed apart from the program under test.

`check_csv` checks the rows `localrange` writes; it runs on every round.
`check_solves` checks every solver call of a traced round against the transfer
tensor it was given. Both return the problems they find keyed by qubit count n;
the key None marks a problem with the whole file.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import eigsh

HEADER = (
    "task,n,m,ensemble_config,samples,mean_delta_over_w,std_delta,"
    "bound_general,bound_tight,bound_qsl,seed"
)
REL_TOL = 1e-9  # closed forms against the program's floats
QSL_T_MAX = 4.0  # upper limit on (mean - 2^(1-n)) / stderr; see README.md
QSL_LOW_FACTOR = 100.0  # a qsl mean may sit this far below 2^(1-n); see README.md
RANDOM_GATES = 300
GRID_TOL = 0.01  # grid against exact, as a share of w


def _bit_swap(n: int, i: int, j: int) -> np.ndarray:
    """Basis permutation of SWAP(i, j); qubit 0 is the most significant bit."""
    idx = np.arange(2**n)
    bi = (idx >> (n - 1 - i)) & 1
    bj = (idx >> (n - 1 - j)) & 1
    return idx ^ ((bi ^ bj) << (n - 1 - i)) ^ ((bi ^ bj) << (n - 1 - j))


@lru_cache(maxsize=None)
def heisenberg_width(n: int) -> float:
    """w(H) of the periodic chain sum_bonds (XX + YY + ZZ) = sum_bonds (2 SWAP - I).

    Built sparse and solved by Lanczos from a seeded start vector; the uniform
    vector would not do, since it is a top eigenvector and misses the bottom.
    """
    d = 2**n
    h = sp.csr_matrix((d, d))
    for i in range(n):
        perm = _bit_swap(n, i, (i + 1) % n)
        h = h + 2.0 * sp.csr_matrix((np.ones(d), (np.arange(d), perm)), shape=(d, d))
    h = h - n * sp.identity(d, format="csr")
    v0 = np.random.default_rng(n).standard_normal(d)
    top = eigsh(h, k=1, which="LA", v0=v0, return_eigenvectors=False)[0]
    bottom = eigsh(h, k=1, which="SA", v0=v0, return_eigenvectors=False)[0]
    return float(top - bottom)


def width(task: str, n: int) -> float:
    if task == "vqe":
        return heisenberg_width(n)
    if task == "qsl":
        return 1.0  # identity minus a projector
    raise ValueError(f"no width for task {task!r}")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _qsl_product(cfg: dict) -> bool:
    """qsl with product (one-design) surroundings around a one-qubit gate."""
    return cfg["task"] == "qsl" and cfg["design_kind"] == "one_design" and cfg["m"] == 1


def check_row(row: dict, cfg: dict, seed: int) -> list[str]:
    """Problems with one parsed CSV row; an empty list means it passes."""
    out = []
    n, m, s = int(row["n"]), int(row["m"]), int(row["samples"])
    for key, want in (("task", cfg["task"]), ("m", str(cfg["m"])),
                      ("ensemble_config", cfg["ensemble_config"]),
                      ("samples", str(cfg["samples"])), ("seed", str(seed))):
        if row[key] != want:
            out.append(f"{key} is {row[key]!r}, expected {want!r}")
    task = row["task"]
    w = width(task, n)
    ratio = float(row["mean_delta_over_w"])
    std = float(row["std_delta"])
    if not 0.0 <= ratio <= 1.0 + 1e-12:
        out.append(f"mean_delta_over_w {ratio!r} outside [0, 1]")
    std_max = (w / 2) * math.sqrt(s / (s - 1))
    if std > std_max * (1 + 1e-12):
        out.append(f"std_delta {std!r} above (w/2)sqrt(S/(S-1)) = {std_max!r}")
    general = w * 2.0 ** (3 * m + 2 - n / 2)
    if not _close(float(row["bound_general"]), general):
        out.append(f"bound_general {row['bound_general']} != w 2^(3m+2-n/2) = {general!r}")
    if task == "vqe":
        tight, qsl = 24.0 * w * 2.0 ** (-n / 2), None
    elif task == "qsl":
        tight, qsl = 3.0 * (1 - 2.0**-n) * 2.0 ** (1 - n / 2), 2.0 ** (2 * m - n)
    else:
        return out + [f"no closed-form bounds for task {task!r}"]
    if not _close(float(row["bound_tight"]), tight):
        out.append(f"bound_tight {row['bound_tight']} != closed form {tight!r}")
    if qsl is None and row["bound_qsl"] != "":
        out.append(f"bound_qsl {row['bound_qsl']!r} should be empty")
    if qsl is not None and (row["bound_qsl"] == "" or not _close(float(row["bound_qsl"]), qsl)):
        out.append(f"bound_qsl {row['bound_qsl']!r} != 2^(2m-n) = {qsl!r}")
    if _qsl_product(cfg):
        mu, mean, se = 2.0 ** (1 - n), ratio * w, std / math.sqrt(s)
        if mean - mu > QSL_T_MAX * se:
            out.append(f"mean delta {mean!r} above 2^(1-n) = {mu!r} by more than {QSL_T_MAX} stderr")
        if mean < mu / QSL_LOW_FACTOR:
            out.append(f"mean delta {mean!r} below 2^(1-n)/{QSL_LOW_FACTOR:g}")
    return out


def check_csv(text: str, cfg: dict, seed: int) -> dict:
    """Problems in one CSV file, keyed by n (None for the file as a whole)."""
    problems = defaultdict(list)
    if text.split("\n", 1)[0] != HEADER:
        problems[None].append("header differs from the documented one")
    rows = list(csv.DictReader(io.StringIO(text)))
    want = list(range(cfg["n_min"], cfg["n_max"] + 1))
    try:
        got = [int(r["n"]) for r in rows]
    except (KeyError, TypeError, ValueError) as exc:
        problems[None].append(f"unreadable n column: {exc}")
        return problems
    if got != want:
        problems[None].append(f"rows for n = {got}, expected {want}")
    for row in rows:
        try:
            found = check_row(row, cfg, seed)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"unreadable row: {exc!r}"]
        problems[int(row["n"])].extend(found)
    return {k: v for k, v in problems.items() if v}


# ---------------------------------------------------------------------------
# per-solve checks


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_SU4 = np.array([np.kron(_PAULI[a], _PAULI[b]) for a in "IXYZ" for b in "IXYZ" if a + b != "II"])
_QUAT = np.array([_PAULI["I"], -1j * _PAULI["X"], -1j * _PAULI["Y"], -1j * _PAULI["Z"]])


def local_gate(values) -> np.ndarray:
    """The gate a solver's parameters name: ZYZ Euler angles, or exp(-i sum c_k P_k)."""
    v = np.asarray(values, dtype=float)
    if v.size == 3:
        phi, theta, alpha = v
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ry = np.array([[c, -s], [s, c]], dtype=complex)
        return np.diag(np.exp([-0.5j * phi, 0.5j * phi])) @ ry @ np.diag(np.exp([-0.5j * alpha, 0.5j * alpha]))
    return expm(-1j * np.tensordot(v, _SU4, axes=1))


def haar_gates(d: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    out = []
    for _ in range(count):
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        out.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def m1_range(t2: np.ndarray) -> float:
    """Exact range over SU(2) of C(U) = sum T_ijkl U_ij U*_kl, as lambda_max - lambda_min.

    With U = q0 I - i(q1 X + q2 Y + q3 Z) for a unit quaternion q, C = q^T S q.
    """
    t = np.einsum("ijkl,aij,bkl->ab", t2, _QUAT, _QUAT.conj())
    s = np.linalg.eigvalsh(((t + t.T) / 2).real)
    return float(s[-1] - s[0])


def restricted_m1_range(t4: np.ndarray) -> float:
    """Range over gates U = u x I on the first of two qubits: a lower bound for m=2."""
    t = t4.reshape((2,) * 8)
    return m1_range(np.einsum("axbxcydy->abcd", t))


def certificate(t: np.ndarray) -> float:
    """d_A (lambda_max - lambda_min) of the Hermitian part of the transfer matrix.

    C = y^dag M y with |y|^2 = d_A for y = vec(U)*, so no range can exceed it.
    """
    d_a = t.shape[0]
    mat = t.reshape(d_a * d_a, d_a * d_a)
    ev = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return float(d_a * (ev[-1] - ev[0]))


def check_solves(solves, cfg: dict, seed: int, grid) -> dict:
    """Problems with solver results, keyed by n.

    ``solves`` holds (TransferTensor, VariationResult) pairs; ``grid`` is the
    program's grid search, run on a few m=1 tensors per n as a second solver.
    Gate values come from ``TransferTensor.evaluate``, never from the solver.
    """
    problems = defaultdict(list)
    gates = {}
    by_n = defaultdict(list)
    for t, r in solves:
        n, d_a = t.part.n, t.part.d_A
        by_n[n].append((t, r))
        tensor = np.asarray(t.tensor)
        tol = 1e-9 * max(1.0, float(np.abs(tensor).sum()))
        for label, params, value in (("max", r.argmax, r.max_value), ("min", r.argmin, r.min_value)):
            got = t.evaluate(local_gate(params.values))
            if abs(got - value) > tol:
                problems[n].append(f"{label} {value!r} not attained: C(arg{label}) = {got!r}")
        if abs(r.delta - (r.max_value - r.min_value)) > tol:
            problems[n].append(f"delta {r.delta!r} != max - min")
        if d_a not in gates:
            gates[d_a] = haar_gates(d_a, RANDOM_GATES, np.random.default_rng(seed))
        vals = [t.evaluate(u) for u in gates[d_a]]
        if max(vals) > r.max_value + tol or min(vals) < r.min_value - tol:
            problems[n].append(
                f"a random gate beats the solver: [{min(vals)!r}, {max(vals)!r}] "
                f"vs [{r.min_value!r}, {r.max_value!r}]"
            )
        if _qsl_product(cfg) and abs(r.max_value - 1.0) > tol:
            problems[n].append(f"qsl max C {r.max_value!r} != 1")
        if d_a == 4:
            lo, hi = restricted_m1_range(tensor), certificate(tensor)
            if not lo - tol <= r.delta <= hi + tol:
                problems[n].append(f"m=2 delta {r.delta!r} outside [{lo!r}, {hi!r}]")
    if cfg["m"] == 1:
        for n, pairs in by_n.items():
            pairs = sorted(pairs, key=lambda p: p[1].delta)
            w = width(cfg["task"], n)
            for t, r in pairs[:1] + pairs[1:][-1:]:  # the smallest and the largest range
                g = grid(t).delta
                if abs(g - r.delta) > GRID_TOL * w:
                    problems[n].append(f"grid delta {g!r} vs {r.delta!r}: off by more than {GRID_TOL} w")
    return {k: v for k, v in problems.items() if v}
