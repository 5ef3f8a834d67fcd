"""Tests of the benchmark itself: smoke runs, thread-count determinism, and one
corrupted output per check that the check must reject.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The smoke runs take about two minutes on two cores.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from localrange import harness  # noqa: E402
from localrange.circuits import CircuitEnsemble, sample_circuit  # noqa: E402
from localrange.landscape import (  # noqa: E402
    transfer_tensor,
    variation_range_exact_m1,
    variation_range_grid,
)
from localrange.linalg import BipartitePartition  # noqa: E402
from perfbench import checks  # noqa: E402
from perfbench.run import reference_problems, run_round  # noqa: E402
from perfbench.workloads import WORKLOADS, points  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_smoke_run(workload):
    # one untraced and one traced round, with every check
    res = run_bench(workload, 1)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 2 * len(points(workload))
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_untraced_smoke_run():
    res = run_bench("qsl_shallow", 0)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_one_worker_csv_matches_default(tmp_path):
    one = {**os.environ, "BARREN_THREADS": "1"}
    a = run_round("qsl_shallow", 5, tmp_path / "default.csv", None)
    b = run_round("qsl_shallow", 5, tmp_path / "one.csv", None, env=one)
    assert b["env"]["BARREN_THREADS"] == "1" and a["env"]["BARREN_THREADS"] == "unset"
    assert a["csv"] == b["csv"]


# ---------------------------------------------------------------------------
# every check passes on real output and fails on a corrupted copy


def small_csv(tmp_path, **cfg):
    path = tmp_path / "rows.csv"
    harness.emit_csv(harness.run_scaling(harness.ExperimentConfig(seed=7, **cfg)), path)
    return path.read_text()


VQE = dict(task="vqe", n_min=4, n_max=5, m=1, ensemble_config="both",
           design_kind="two_design", layers=3, samples=3, optimizer="exact")
QSL = dict(task="qsl", n_min=4, n_max=6, m=1, ensemble_config="both",
           design_kind="one_design", samples=16, optimizer="exact")


def corrupt(text, n, column, fn):
    lines = text.split("\n")
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[0] and int(cells[1]) == n:
            j = header.index(column)
            cells[j] = repr(fn(float(cells[j])))
            lines[i] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("cfg", [VQE, QSL], ids=["vqe", "qsl"])
def test_real_csv_passes(tmp_path, cfg):
    assert checks.check_csv(small_csv(tmp_path, **cfg), cfg, 7) == {}


def test_mean_above_one_fails(tmp_path):
    bad = corrupt(small_csv(tmp_path, **VQE), 5, "mean_delta_over_w", lambda x: 1.01)
    assert list(checks.check_csv(bad, VQE, 7)) == [5]


@pytest.mark.parametrize("column", ["bound_general", "bound_tight"])
def test_width_off_by_one_percent_fails(tmp_path, column):
    bad = corrupt(small_csv(tmp_path, **VQE), 4, column, lambda x: 1.01 * x)
    assert list(checks.check_csv(bad, VQE, 7)) == [4]


def test_wrong_seed_fails(tmp_path):
    assert sorted(checks.check_csv(small_csv(tmp_path, **VQE), VQE, 8)) == [4, 5]


def test_std_above_half_width_fails(tmp_path):
    bad = corrupt(small_csv(tmp_path, **VQE), 4, "std_delta", lambda x: 20.0)
    assert list(checks.check_csv(bad, VQE, 7)) == [4]


def test_qsl_mean_far_from_product_value_fails(tmp_path):
    text = small_csv(tmp_path, **QSL)
    high = corrupt(text, 6, "mean_delta_over_w", lambda x: 0.5)
    low = corrupt(text, 5, "mean_delta_over_w", lambda x: 0.001 * x)
    assert list(checks.check_csv(high, QSL, 7)) == [6]
    assert list(checks.check_csv(low, QSL, 7)) == [5]


def test_changed_csv_byte_fails(tmp_path):
    text = small_csv(tmp_path, **VQE)
    i = text.index("e-0", len(checks.HEADER))  # a digit of the first row's mean
    bad = text[: i - 1] + ("0" if text[i - 1] != "0" else "1") + text[i:]
    assert reference_problems(text, text, [4, 5]) == {}
    assert list(reference_problems(bad, text, [4, 5])) == [4]


def solve_pairs(n, m, count):
    part = BipartitePartition(n, tuple(range(m)))
    h = np.diag([bin(i).count("1") % 2 for i in range(2**n)]).astype(complex)  # parity, w = 1
    rng = np.random.default_rng(n)
    ens = CircuitEnsemble(kind="hardware_efficient", n=n, layers=3)
    rho = np.zeros(2**n, dtype=complex)
    rho[0] = 1.0
    out = []
    for _ in range(count):
        t = transfer_tensor(h, rho, sample_circuit(ens, rng), sample_circuit(ens, rng), part)
        out.append((t, variation_range_exact_m1(t) if m == 1 else None))
    return out


CFG_M1 = dict(task="qsl", m=1, design_kind="two_design")  # a task whose w is 1, like the parity


def test_real_solves_pass():
    assert checks.check_solves(solve_pairs(4, 1, 3), CFG_M1, 0, variation_range_grid) == {}


def test_unattained_max_fails():
    pairs = solve_pairs(4, 1, 3)
    t, r = pairs[1]
    pairs[1] = (t, replace(r, argmax=r.argmin))
    problems = checks.check_solves(pairs, CFG_M1, 0, variation_range_grid)
    assert list(problems) == [4] and any("not attained" in p for p in problems[4])


def test_random_gate_beats_a_weak_max():
    from localrange.circuits import LocalUnitaryParams

    pairs = solve_pairs(4, 1, 3)
    t, r = pairs[0]
    c = t.evaluate(np.eye(2))  # the identity gate, attained but not the maximum
    pairs[0] = (t, replace(r, argmax=LocalUnitaryParams([0.0] * 3), max_value=c, delta=c - r.min_value))
    problems = checks.check_solves(pairs, CFG_M1, 0, variation_range_grid)
    assert list(problems) == [4] and any("random gate" in p for p in problems[4])


def test_qsl_max_below_one_fails():
    qsl = dict(task="qsl", m=1, design_kind="one_design")
    problems = checks.check_solves(solve_pairs(4, 1, 2), qsl, 0, variation_range_grid)
    assert any("qsl max C" in p for p in problems[4])


def test_grid_disagreement_fails():
    def far_grid(t):
        r = variation_range_grid(t)
        return replace(r, delta=r.delta + 0.02 * checks.width("qsl", 4))

    problems = checks.check_solves(solve_pairs(4, 1, 2), CFG_M1, 0, far_grid)
    assert any("grid" in p for p in problems[4])


def test_m2_delta_beyond_certificate_fails():
    from localrange.circuits import LocalUnitaryParams
    from localrange.landscape import VariationResult

    (t, _), = solve_pairs(3, 2, 1)
    top = checks.certificate(np.asarray(t.tensor))
    zero = LocalUnitaryParams([0.0] * 15)
    c = t.evaluate(np.eye(4))
    r = VariationResult(c + top, c, top + 0.5, zero, zero, "adam", 0, True)
    problems = checks.check_solves([(t, r)], dict(CFG_M1, m=2), 0, variation_range_grid)
    assert any("outside" in p for p in problems[3])


# ---------------------------------------------------------------------------
# the independent oracles agree with the program where both apply


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sparse_heisenberg_width_matches_dense(n):
    from localrange.costs import heisenberg
    from localrange.linalg import spectral_width

    assert checks.heisenberg_width(n) == pytest.approx(spectral_width(heisenberg(n)), rel=1e-12)


def test_quaternion_range_matches_exact_solver():
    for t, r in solve_pairs(4, 1, 5):
        assert checks.m1_range(np.asarray(t.tensor)) == pytest.approx(r.delta, rel=1e-10, abs=1e-12)


def test_m2_bounds_are_ordered():
    (t, _), = solve_pairs(4, 2, 1)
    tensor = np.asarray(t.tensor)
    assert 0 < checks.restricted_m1_range(tensor) <= checks.certificate(tensor)
