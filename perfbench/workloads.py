"""The benchmark's workloads: `ExperimentConfig` fields of each, all but the seed.

Why each workload exists is written in BENCHMARK.json and README.md, and there
why the m=2 Adam workload was measured but left out.
"""

WORKLOADS = {
    # Dense 10n-layer circuit sampling is almost all of the time.
    "vqe_deep": dict(
        task="vqe", n_min=6, n_max=9, m=1, ensemble_config="both",
        design_kind="two_design", layers_multiplier=10, samples=4, optimizer="exact",
    ),
    # Per-n set-up (H, w(H), tight bound) and the dense transfer contraction;
    # sampling a product layer is cheap. Memory peaks here.
    "qsl_shallow": dict(
        task="qsl", n_min=8, n_max=10, m=1, ensemble_config="both",
        design_kind="one_design", samples=16, optimizer="exact",
    ),
}


def points(name: str) -> list[int]:
    """The qubit counts of a workload: one operation, and one CSV row, each."""
    w = WORKLOADS[name]
    return list(range(w["n_min"], w["n_max"] + 1))
