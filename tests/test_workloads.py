"""The benchmark's workload configs still build and run on the current code."""

from dataclasses import replace
from pathlib import Path

import pytest

from localrange.harness import ExperimentConfig, run_scaling

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads() -> dict:
    # executed from its text, so no bytecode cache is written next to it
    scope = {}
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), scope)
    return scope["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_workload_config_runs_its_first_point(name):
    cfg = ExperimentConfig(seed=0, **_workloads()[name])
    (row,) = run_scaling(replace(cfg, n_max=cfg.n_min))
    assert (row.task, row.n, row.m, row.samples) == (cfg.task, cfg.n_min, cfg.m, cfg.samples)
    assert 0.0 < row.mean_delta_over_w <= 1.0
