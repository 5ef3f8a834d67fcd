"""The benchmark's workload configs and its tracer still work on the current code."""

from dataclasses import replace
from pathlib import Path

import pytest

from localrange import harness
from localrange.harness import ExperimentConfig, run_scaling

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the solvers and the dense bound that no run of the harness calls
UNCALLED = {"tight_bound", "variation_range_grid", "variation_range_adam"}


def _load(name: str) -> dict:
    # executed from its text, so no bytecode cache is written next to it
    path = PERFBENCH / name
    scope = {}
    exec(compile(path.read_text(), str(path), "exec"), scope)
    return scope


def _workloads() -> dict:
    return _load("workloads.py")["WORKLOADS"]


@pytest.mark.parametrize("name", sorted(_workloads()))
def test_workload_config_runs_its_first_point(name):
    cfg = ExperimentConfig(seed=0, **_workloads()[name])
    (row,) = run_scaling(replace(cfg, n_max=cfg.n_min))
    assert (row.task, row.n, row.m, row.samples) == (cfg.task, cfg.n_min, cfg.m, cfg.samples)
    assert 0.0 < row.mean_delta_over_w <= 1.0


def test_tracer_records_a_span_for_every_name_the_harness_calls(monkeypatch):
    # the tracer wraps names in the harness namespace: a name the harness stops
    # calling by that name at call time records nothing and reads 0 in every round
    trace = _load("trace.py")
    names = [name for layer in trace["LAYERS"].values() for name in layer]
    defined = [name for name in names if hasattr(harness, name)]
    for name in defined:  # restored after the test
        monkeypatch.setattr(harness, name, getattr(harness, name))
    tracer = trace["Tracer"](harness)
    for task, m in (("vqe", 1), ("qae", 1), ("qsl", 1), ("qae", 2)):
        harness.run_scaling(ExperimentConfig(task=task, n_min=3, n_max=3, m=m, samples=2, seed=0))
    recorded = {span[1] for span in tracer.spans}
    assert set(defined) - recorded == set()
    assert set(tracer.absent) <= UNCALLED
