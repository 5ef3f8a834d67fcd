"""Experiment runner: qubit-count scaling, layer sweeps, CSV and slope fits.

Three tasks are wired in: ground-state search on the periodic Heisenberg chain
(``vqe``), one-qubit compression of a Haar-random pure input (``qae``), and
state learning against |0...0> (``qsl``). For each (task, n) the tunable local
gate sits on qubit 0 (qubits 0 and 1 when m=2) and the surrounding circuits
are drawn per the ensemble configuration.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np
import numpy.random  # numpy 2 loads it lazily; importing it here keeps that out of the first draw

from .circuits import CircuitEnsemble, sample_circuit
from .costs import Observable, heisenberg, qae_hamiltonian, qsl_hamiltonian
from .landscape import (
    BoundViolation,
    qsl_bound,
    task_tight_bound,
    theorem1_bound,
    transfer_tensor,
    variation_range_exact_m1,
    variation_range_polar,
)
from .linalg import BipartitePartition, random_pure_state, spectral_width

TASK_IDS = {"vqe": 0, "qae": 1, "qsl": 2}
ENSEMBLE_CONFIGS = {"v1_design": 0, "v2_design": 1, "both": 2}
DESIGN_KINDS = ("two_design", "one_design", "identity")
# The gate size decides the solver: the closed form for one qubit, polar ascent for two.
SOLVERS = {1: "exact", 2: "polar"}

# A sample holds O(d_A^2 2^n) amplitudes; at n = 16 a 10n-layer vqe sample
# spends 0.8-1.0 s in the transfer contraction (2 shared cores, OpenBLAS).
MAX_QUBITS = 16
# A point's samples run through V1, V2 and H in stacks of at least one sample and at
# most this many amplitudes in the general path's V2 block (samples x 2^n x d_A^2;
# inputs are pure). qsl's rank-one path sends one vector per sample through V2+,
# but splits its stacks by the same count.
_STACK_AMPLITUDES = 2**14

class ConfigError(ValueError):
    """Experiment configuration failed validation; message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    n_min: int
    n_max: int
    m: int = 1
    ensemble_config: str = "both"
    design_kind: str = "two_design"
    layers: int | None = None  # None: layers_multiplier * n for two_design
    layers_multiplier: int = 10
    samples: int = 20
    seed: int = 0
    optimizer: str | None = None  # None: SOLVERS[m]; a value given must be SOLVERS[m]

    def __post_init__(self):
        # values may come from JSON: check types before any comparison or lookup
        for name, value in vars(self).items():
            want = str if name in ("task", "ensemble_config", "design_kind", "optimizer") else int
            if type(value) is not want and not (name in ("layers", "optimizer") and value is None):
                raise ConfigError(f"{name}: expected {want.__name__}, got {value!r}")
        if self.task not in TASK_IDS:
            raise ConfigError(f"task: expected one of {sorted(TASK_IDS)}, got {self.task!r}")
        if not 2 <= self.n_min <= self.n_max <= MAX_QUBITS:
            raise ConfigError(
                f"n_min/n_max: need 2 <= n_min <= n_max <= {MAX_QUBITS}, "
                f"got [{self.n_min}, {self.n_max}]"
            )
        if self.m not in (1, 2):
            raise ConfigError(f"m: subsystem size must be 1 or 2, got {self.m}")
        if self.m >= self.n_min:
            raise ConfigError(f"m: must be smaller than every n, got m={self.m}, n_min={self.n_min}")
        if self.ensemble_config not in ENSEMBLE_CONFIGS:
            raise ConfigError(
                f"ensemble_config: expected one of {sorted(ENSEMBLE_CONFIGS)}, got {self.ensemble_config!r}"
            )
        if self.design_kind not in DESIGN_KINDS:
            raise ConfigError(f"design_kind: expected one of {DESIGN_KINDS}, got {self.design_kind!r}")
        if self.layers is not None and self.layers < 0:
            raise ConfigError(f"layers: must be a nonnegative integer, got {self.layers!r}")
        if self.layers is not None and self.design_kind != "two_design":
            raise ConfigError(f"layers: applies to two_design only, got design_kind={self.design_kind!r}")
        if self.layers_multiplier < 0:
            raise ConfigError(f"layers_multiplier: must be nonnegative, got {self.layers_multiplier}")
        if self.samples < 2:
            raise ConfigError(f"samples: need at least 2, got {self.samples!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {self.seed}")
        if self.optimizer not in (None, SOLVERS[self.m]):
            raise ConfigError(f"optimizer: m={self.m} is solved by {SOLVERS[self.m]!r}, got {self.optimizer!r}")


@dataclass(frozen=True)
class ExperimentRow:
    task: str
    n: int
    m: int
    ensemble_config: str
    samples: int
    mean_delta_over_w: float
    std_delta: float
    bound_general: float
    bound_tight: float
    bound_qsl: float | None
    seed: int


_CSV_COLUMNS = tuple(f.name for f in fields(ExperimentRow))
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass(frozen=True)
class _TaskInstance:
    h: Observable
    rho: np.ndarray | None  # fixed input state; None means drawn per sample
    w: float
    part: BipartitePartition


def setup_task(task: str, n: int, m: int) -> _TaskInstance:
    """The task's observable, fixed input state (if any), w(H) and partition."""
    part = BipartitePartition(n, tuple(range(m)))
    if task == "vqe":
        h = heisenberg(n, periodic=True)
        rho = np.zeros(2**n, dtype=complex)
        rho[0] = 1.0
    elif task == "qae":
        h = qae_hamiltonian(n, (n - 1,))
        rho = None
    else:  # qsl
        e0 = np.zeros(2**n, dtype=complex)
        e0[0] = 1.0
        h = qsl_hamiltonian(e0)
        rho = e0
    return _TaskInstance(h=h, rho=rho, w=spectral_width(h), part=part)


def _effective_layers(cfg: ExperimentConfig, n: int) -> int:
    if cfg.design_kind != "two_design":
        return 0
    return cfg.layers if cfg.layers is not None else cfg.layers_multiplier * n


def _side_ensemble(cfg: ExperimentConfig, n: int, layers: int) -> CircuitEnsemble:
    kind = {
        "two_design": "hardware_efficient",
        "one_design": "one_design_layer",
        "identity": "identity",
    }[cfg.design_kind]
    return CircuitEnsemble(kind=kind, n=n, layers=layers if kind == "hardware_efficient" else None)


def _entropy_words(values) -> np.ndarray:
    """Nonnegative ints as the uint32 entropy SeedSequence makes of them: each split
    into little-endian 32-bit words (0 is one word), in order. A ready uint32 array
    skips numpy's own splitting, which costs more than the generator it seeds. Unchecked:
    callers pass a seed `ExperimentConfig` has checked and nonnegative counts and ids."""
    words = []
    for x in values:
        words.append(x & 0xFFFFFFFF)
        while x := x >> 32:
            words.append(x & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def _stack_draws(cfg: ExperimentConfig, inst: _TaskInstance, n: int, ks, layers: int):
    """Samples ks' V1s, V2s (each None on an identity side), rhos and solver rngs (None
    unless m = 2), each circuit side drawn as one stack.

    Each sample's draws have their own streams, child i = 0..3 of the sample's
    SeedSequence (the i-th of ``spawn(4)``), built only when the sample uses them.
    """
    entropies = [_entropy_words((cfg.seed, TASK_IDS[cfg.task], n, k, layers,
                                 ENSEMBLE_CONFIGS[cfg.ensemble_config])) for k in ks]

    def streams(i: int) -> list[np.random.Generator]:
        """Child i of each sample's SeedSequence, one generator per sample."""
        return [np.random.Generator(np.random.PCG64(np.random.SeedSequence(e, spawn_key=(i,))))
                for e in entropies]

    ens = _side_ensemble(cfg, n, layers)
    v1s = v2s = None
    if cfg.ensemble_config in ("v1_design", "both") and ens.kind != "identity":
        v1s = sample_circuit(ens, streams(0))
    if cfg.ensemble_config in ("v2_design", "both") and ens.kind != "identity":
        v2s = sample_circuit(ens, streams(1))
    rhos = ([inst.rho] * len(ks) if inst.rho is not None
            else [random_pure_state(2**n, rng) for rng in streams(2)])
    return v1s, v2s, rhos, streams(3) if cfg.m == 2 else None


def _stack_deltas(cfg: ExperimentConfig, inst: _TaskInstance, n: int, ks, layers: int) -> list[float]:
    """Variation ranges of samples ks: drawn and contracted as one stack, solved one by one."""
    v1s, v2s, rhos, rngs = _stack_draws(cfg, inst, n, ks, layers)
    ts = transfer_tensor(inst.h, rhos, v1s, v2s, inst.part)
    if cfg.m == 1:
        return [variation_range_exact_m1(t).delta for t in ts]
    return [variation_range_polar(t, rng).delta for t, rng in zip(ts, rngs)]


def _run_point(cfg: ExperimentConfig, n: int) -> ExperimentRow:
    inst, layers = setup_task(cfg.task, n, cfg.m), _effective_layers(cfg, n)
    per_stack = max(1, _STACK_AMPLITUDES // (2**n * inst.part.d_A**2))
    deltas = []
    for start in range(0, cfg.samples, per_stack):
        deltas += _stack_deltas(cfg, inst, n, range(start, min(start + per_stack, cfg.samples)), layers)
    mean = math.fsum(deltas) / cfg.samples
    var = math.fsum((d - mean) ** 2 for d in deltas) / (cfg.samples - 1)
    bound_general = theorem1_bound(inst.w, n, cfg.m)
    b_tight = task_tight_bound(cfg.task, n, inst.w, cfg.m)
    b_qsl = qsl_bound(n, cfg.m) if cfg.task == "qsl" else None
    row = ExperimentRow(
        task=cfg.task,
        n=n,
        m=cfg.m,
        ensemble_config=cfg.ensemble_config,
        samples=cfg.samples,
        mean_delta_over_w=mean / inst.w,
        std_delta=math.sqrt(var),
        bound_general=bound_general,
        bound_tight=b_tight,
        bound_qsl=b_qsl,
        seed=cfg.seed,
    )
    if row.mean_delta_over_w * inst.w > bound_general:
        raise BoundViolation(
            f"mean variation range {mean} exceeds its bound {bound_general} at n={n}"
        )
    return row


def run_scaling(cfg: ExperimentConfig) -> list[ExperimentRow]:
    """One row per n in [n_min, n_max], ascending; deterministic in the seed."""
    return [_run_point(cfg, n) for n in range(cfg.n_min, cfg.n_max + 1)]


def run_layer_sweep(cfg: ExperimentConfig, layer_list) -> dict[tuple[int, int], ExperimentRow]:
    """Rows keyed by (layers, n) for every layer count in layer_list."""
    layer_list = sorted({int(x) for x in layer_list})
    if not layer_list:
        raise ConfigError("layers: the layer list is empty")
    # each config is checked (a count below 0, a layerless ensemble) before any run starts
    cfgs = [replace(cfg, layers=layers) for layers in layer_list]
    return {(c.layers, row.n): row for c in cfgs for row in run_scaling(c)}


def fit_slope(rows) -> tuple[float, float, float]:
    """Least-squares slope of log2(mean) vs n; returns (slope, intercept, r2).

    ``rows`` is a list of ExperimentRow or (n, mean) pairs. Constant means give
    slope 0 and r2 = 0 rather than an error.
    """
    pts = []
    for r in rows:
        if isinstance(r, ExperimentRow):
            pts.append((r.n, r.mean_delta_over_w))
        else:
            pts.append((int(r[0]), float(r[1])))
    if len(pts) < 3:
        raise ValueError("need at least 3 rows to fit a slope")
    if any(mean <= 0 for _, mean in pts):
        raise ValueError("cannot fit a log-scale slope through nonpositive means")
    x = np.array([n for n, _ in pts], dtype=float)
    y = np.log2([mean for _, mean in pts])
    if np.allclose(y, y[0], rtol=0.0, atol=1e-12):
        return 0.0, float(y[0]), 0.0
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), r2


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17e")
    return str(x)


def emit_csv(rows, path=None) -> None:
    """Write rows with the fixed header to path, or to stdout when path is None.

    Floats are in full-precision scientific form.
    """
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(getattr(r, name)) for name in _CSV_COLUMNS))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="") as fh:
        fh.write(text)
