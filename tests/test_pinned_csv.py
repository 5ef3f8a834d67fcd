"""The seed contract, pinned: small `localrange scaling` runs write exactly the
CSV bytes checked in under ``pinned_csv/``.

All files but ``qsl_both_one_design.csv`` were written before circuit draws
were read in one raw read per sample, so any change to the random streams, to
how they are read or to the arithmetic behind a row shows here. They were made with numpy 2.4.6 and
OpenBLAS on x86-64; another BLAS or LAPACK may round differently.
"""

from pathlib import Path

import pytest

from localrange.harness import ExperimentConfig, emit_csv, run_scaling

PINNED = Path(__file__).parent / "pinned_csv"

CONFIGS = {
    # two-design circuits on both sides, on V1 only and on V2 only
    "vqe_both": dict(task="vqe", n_min=3, n_max=5, layers=4, samples=3, seed=11),
    "qsl_v1_design": dict(task="qsl", n_min=3, n_max=4, ensemble_config="v1_design",
                          layers_multiplier=2, samples=3, seed=12),
    # qsl with V2 drawn sends chi = V2+ phi through the adjoint programs; at n = 11
    # the 3 samples run as stacks of 2 and 1
    "qsl_both_one_design": dict(task="qsl", n_min=3, n_max=11, design_kind="one_design",
                                samples=3, seed=17),
    # qae draws its input state per sample
    "qae_v2_design": dict(task="qae", n_min=3, n_max=4, ensemble_config="v2_design", layers=3,
                          samples=3, seed=13),
    "qae_one_design": dict(task="qae", n_min=3, n_max=5, design_kind="one_design", samples=4,
                           seed=14),
    "qae_identity": dict(task="qae", n_min=3, n_max=4, design_kind="identity", samples=3, seed=15),
    # m = 2 also reads each sample's polar-restart stream
    "qae_m2": dict(task="qae", n_min=3, n_max=3, m=2, ensemble_config="v2_design", layers=2,
                   samples=2, seed=16),
    # a seed of two 32-bit words
    "vqe_seed_above_2_32": dict(task="vqe", n_min=3, n_max=4, layers=3, samples=2,
                                seed=2**32 + 5),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_rows_match_the_pinned_csv(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    emit_csv(run_scaling(ExperimentConfig(**CONFIGS[name])), out)
    assert out.read_bytes() == (PINNED / f"{name}.csv").read_bytes()
