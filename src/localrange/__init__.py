"""Variation range of variational-circuit costs under a single tunable local gate.

Measures how much the cost C = tr(H U rho U+) can change when one local gate
inside a random circuit is optimized freely, and checks the measured ranges
against their dimension-dependent upper bounds and the Haar-moment identities
behind them.
"""

from .circuits import (
    CircuitEnsemble,
    GateProgram,
    GateSpec,
    LocalUnitaryParams,
    sample_circuit,
)
from .harness import ExperimentConfig, ExperimentRow, fit_slope, run_layer_sweep, run_scaling
from .landscape import (
    BoundReport,
    TransferTensor,
    VariationResult,
    bound_report,
    transfer_tensor,
    variation_range_exact_m1,
    variation_range_grid,
    variation_range_polar,
)
from .linalg import BipartitePartition

__all__ = [
    "BipartitePartition",
    "BoundReport",
    "CircuitEnsemble",
    "ExperimentConfig",
    "ExperimentRow",
    "GateProgram",
    "GateSpec",
    "LocalUnitaryParams",
    "TransferTensor",
    "VariationResult",
    "bound_report",
    "fit_slope",
    "run_layer_sweep",
    "run_scaling",
    "sample_circuit",
    "transfer_tensor",
    "variation_range_exact_m1",
    "variation_range_grid",
    "variation_range_polar",
]

__version__ = "0.1.0"
