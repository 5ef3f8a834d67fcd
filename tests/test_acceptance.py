"""End-to-end acceptance checks at the published scales.

Each check prints one pass/fail line. The suite is slower than the unit tests
(about a minute on two cores); run it with ``pytest tests/test_acceptance.py -s``
to watch the lines appear.
"""

import math
import time

import numpy as np
import pytest

from dense_reference import AdamConfig, bures_fidelity, fidelity_rank_bound, variation_range_adam
from localrange.circuits import GateSpec
from localrange.haar import (
    average_reduced_purity,
    mc_reduced_purity,
    mc_second_moment,
    second_moment_reduced_norm,
)
from localrange.harness import ExperimentConfig, emit_csv, fit_slope, run_layer_sweep, run_scaling
from localrange.landscape import (
    ParameterizedCircuit,
    parameter_shift_derivative,
    telescoping_bound_check,
    transfer_tensor,
    variation_range_exact_m1,
    variation_range_grid,
    variation_range_polar,
)
from localrange.linalg import (
    BipartitePartition,
    partial_trace,
    random_density,
    random_hermitian,
    random_pure_state,
    spectral_width,
)


def report(label, ok, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"[{'pass' if ok else 'FAIL'}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


# -- criterion 1: Haar-moment identities ------------------------------------


@pytest.mark.slow
def test_criterion_1_haar_identity_suite():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for d_a, d_b in ((2, 2), (2, 4), (4, 4)):
        n = int(np.log2(d_a * d_b))
        part = BipartitePartition(n, tuple(range(int(np.log2(d_a)))))
        for _ in range(20):
            p = random_density(part.d, rng)
            q = random_hermitian(part.d, rng)
            closed = second_moment_reduced_norm(p, q, part)
            mean, stderr = mc_second_moment(p, q, part, samples=5000, seed=int(rng.integers(2**31)))
            pull = abs(mean - closed) / stderr
            worst = max(worst, pull)
            assert pull <= 3.0, f"moment mismatch at d_A={d_a}, d_B={d_b}: {pull:.2f} stderr"
    part22 = BipartitePartition(2, (0,))
    psi = random_pure_state(4, rng)
    rho = np.outer(psi, psi.conj())
    closed_purity = average_reduced_purity(rho, part22)
    assert closed_purity == pytest.approx(0.8, abs=1e-12)
    mean, stderr = mc_reduced_purity(rho, part22, samples=5000, seed=7)
    purity_pull = abs(mean - closed_purity) / stderr
    elapsed = time.time() - start
    report(
        "criterion 1: Haar second-moment identities (60 pairs, 5000 samples) + purity 0.8",
        worst <= 3.0 and purity_pull <= 3.0 and elapsed < 60,
        f"worst pull {worst:.2f} stderr, purity pull {purity_pull:.2f}, {elapsed:.1f}s",
    )


# -- criterion 2: optimizer triangle ----------------------------------------


@pytest.mark.slow
def test_criterion_2_optimizer_triangle():
    start = time.time()
    rng = np.random.default_rng(202)
    adam_hits = 0
    grid_ok = polar_ok = True
    for trial in range(100):
        n = int(rng.integers(3, 7))
        part = BipartitePartition(n, (0,))
        h = random_hermitian(part.d, rng)
        rho = random_density(part.d, rng)
        from localrange.haar import haar_random_unitary

        v1 = haar_random_unitary(part.d, rng)
        v2 = haar_random_unitary(part.d, rng)
        t = transfer_tensor(h, rho, v1, v2, part)
        w = spectral_width(h)
        exact = variation_range_exact_m1(t).delta
        grid = variation_range_grid(t, 64).delta
        adam = variation_range_adam(t, AdamConfig(seed=trial)).delta
        polar = variation_range_polar(t, np.random.default_rng(trial)).delta
        if abs(exact - grid) > 0.01 * w:
            grid_ok = False
        if abs(exact - polar) > 1e-9 * w:
            polar_ok = False
        if abs(exact - adam) <= 1e-3 * w:
            adam_hits += 1
    elapsed = time.time() - start
    report(
        "criterion 2: exact/grid/adam/polar agreement on 100 random instances",
        grid_ok and polar_ok and adam_hits >= 95 and elapsed < 300,
        f"grid all within 1% of w, polar all within 1e-9 w: {polar_ok}, "
        f"adam hits {adam_hits}/100, {elapsed:.1f}s",
    )


# -- criterion 3: parameter-shift rule --------------------------------------


def test_criterion_3_parameter_shift_vs_finite_difference():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        gates = []
        for _ in range(2):
            for q in range(n):
                gates.append(GateSpec(["rx", "ry", "rz"][rng.integers(3)], q))
            for q in range(n - 1):
                gates.append(GateSpec("cz", q + 1, control=q))
        pc = ParameterizedCircuit(n, gates)
        h = random_hermitian(2**n, rng)
        rho = random_density(2**n, rng)
        theta = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        mu = int(rng.integers(pc.num_parameters))
        exact = parameter_shift_derivative(pc, h, rho, theta, mu)
        eps = 1e-5
        e = np.zeros_like(theta)
        e[mu] = eps
        fd = (pc.cost(h, rho, theta + e) - pc.cost(h, rho, theta - e)) / (2 * eps)
        worst = max(worst, abs(exact - fd))
    report(
        "criterion 3: shift rule matches central differences on 50 parameters",
        worst < 1e-6,
        f"worst deviation {worst:.2e}",
    )


# -- criterion 4: bound non-violation ---------------------------------------


def test_criterion_4_bounds_never_violated(tmp_path):
    start = time.time()
    violations = []
    n_rows = 0
    for task in ("vqe", "qae"):
        for ens in ("v1_design", "v2_design", "both"):
            cfg = ExperimentConfig(task=task, n_min=2, n_max=8, ensemble_config=ens,
                                   design_kind="two_design", samples=20, seed=404)
            rows = run_scaling(cfg)
            emit_csv(rows, tmp_path / f"{task}_{ens}.csv")
            for r in rows:
                n_rows += 1
                if r.mean_delta_over_w * _width(task, r.n) > r.bound_general + 1e-12:
                    violations.append((task, ens, r.n, "general"))
                if r.mean_delta_over_w * _width(task, r.n) > r.bound_tight + 1e-12:
                    violations.append((task, ens, r.n, "tight"))
    elapsed = time.time() - start
    report(
        "criterion 4: mean range below Haar and task-specific bounds on every row",
        not violations and elapsed < 900,
        f"{n_rows} rows, violations {violations}, {elapsed:.1f}s",
    )


def _width(task, n):
    if task == "vqe":
        from localrange.costs import heisenberg

        return spectral_width(heisenberg(n))
    return 1.0


# -- criterion 5: scaling slopes --------------------------------------------


def test_criterion_5_scaling_slopes():
    start = time.time()
    # even n only (odd-even oscillation); 60 samples because w grows with n
    # and the finite-size slope sits near -0.6, close to the band edge
    vqe_rows = []
    for n in (4, 6, 8, 10):
        cfg = ExperimentConfig(task="vqe", n_min=n, n_max=n, ensemble_config="v2_design",
                               design_kind="two_design", samples=60, seed=0)
        vqe_rows += run_scaling(cfg)
    vqe_slope = fit_slope(vqe_rows)[0]

    cfg = ExperimentConfig(task="qae", n_min=3, n_max=9, ensemble_config="v2_design",
                           design_kind="two_design", samples=20, seed=0)
    qae_slope = fit_slope(run_scaling(cfg))[0]

    # the one-design range distribution is heavy-tailed; extra samples stabilize
    # the mean at n=10 (the band itself is unchanged)
    cfg = ExperimentConfig(task="qsl", n_min=4, n_max=10, ensemble_config="v1_design",
                           design_kind="one_design", samples=1000, seed=0)
    qsl_slope = fit_slope(run_scaling(cfg))[0]

    elapsed = time.time() - start
    report(
        "criterion 5: scaling slopes near -1/2 (vqe, qae) and -1 (qsl one-design)",
        -0.65 <= vqe_slope <= -0.35
        and -0.65 <= qae_slope <= -0.35
        and -1.15 <= qsl_slope <= -0.85
        and elapsed < 1800,
        f"vqe {vqe_slope:.3f}, qae {qae_slope:.3f}, qsl {qsl_slope:.3f}, {elapsed:.0f}s",
    )


# -- criterion 6: layer sweep -----------------------------------------------


def test_criterion_6_layer_sweep():
    start = time.time()
    cfg = ExperimentConfig(task="vqe", n_min=8, n_max=8, ensemble_config="v2_design",
                           design_kind="two_design", samples=20, seed=0)
    out = run_layer_sweep(cfg, [5, 80])
    r5, r80 = out[(5, 8)], out[(80, 8)]
    w8 = _width("vqe", 8)
    diff = (r5.mean_delta_over_w - r80.mean_delta_over_w) * w8
    two_se = 2 * math.hypot(r5.std_delta, r80.std_delta) / math.sqrt(20)

    cfg = ExperimentConfig(task="vqe", n_min=6, n_max=10, ensemble_config="v2_design",
                           design_kind="two_design", samples=20, seed=0)
    sweep = run_layer_sweep(cfg, [80])
    slope = fit_slope([sweep[(80, n)] for n in (6, 8, 10)])[0]
    elapsed = time.time() - start
    report(
        "criterion 6: shallow circuits give larger ranges; deep slope near -1/2",
        diff > two_se and abs(slope + 0.5) <= 0.15,
        f"5-vs-80 layer gap {diff:.3f} vs 2se {two_se:.3f}, 80-layer slope {slope:.3f}, {elapsed:.0f}s",
    )


# -- criterion 7: property suites -------------------------------------------


def test_criterion_7_property_suites(tmp_path):
    rng = np.random.default_rng(707)
    ok = True

    # range stays inside [0, w(H)]
    from localrange.haar import haar_random_unitary

    for _ in range(30):
        part = BipartitePartition(3, (0,))
        h = random_hermitian(8, rng)
        rho = random_density(8, rng)
        t = transfer_tensor(h, rho, haar_random_unitary(8, rng), haar_random_unitary(8, rng), part)
        d = variation_range_exact_m1(t).delta
        ok &= -1e-9 <= d <= spectral_width(h) + 1e-9

    # fidelity bounded by rank * overlap, and monotone under partial trace
    part = BipartitePartition(2, (0,))
    for _ in range(100):
        d = int(rng.integers(2, 9))
        rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
        sigma = random_density(d, rng)
        ok &= bures_fidelity(rho, sigma) <= fidelity_rank_bound(rho, sigma) + 1e-7
        r4, s4 = random_density(4, rng), random_density(4, rng)
        ok &= (
            bures_fidelity(partial_trace(r4, part, "B"), partial_trace(s4, part, "B"))
            >= bures_fidelity(r4, s4) - 1e-9
        )

    # telescoping chain on 20 random 8-parameter circuits
    for _ in range(20):
        gates = []
        for _ in range(2):
            for q in range(4):
                gates.append(GateSpec(["rx", "ry", "rz"][rng.integers(3)], q))
            for q in range(3):
                gates.append(GateSpec("cz", q + 1, control=q))
        pc = ParameterizedCircuit(4, gates)
        h = random_hermitian(16, rng)
        rho = random_density(16, rng)
        a = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        b = rng.uniform(0, 2 * np.pi, pc.num_parameters)
        lhs, rhs = telescoping_bound_check(pc, h, rho, a, b)
        ok &= lhs <= rhs + 1e-9

    # byte-identical CSV under a fixed seed
    cfg = ExperimentConfig(task="vqe", n_min=2, n_max=3, samples=4, seed=77)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_scaling(cfg), a_path)
    emit_csv(run_scaling(cfg), b_path)
    ok &= a_path.read_bytes() == b_path.read_bytes()

    report("criterion 7: range bounds, fidelity lemmas, telescoping, reproducible CSV", ok)


# -- criterion 8: the regime where the bounds bite ---------------------------


@pytest.mark.slow
def test_criterion_8_bounds_at_n12_n14():
    # Each bound holds for the expectation of delta, so a row fails only when its mean
    # exceeds the bound by more than 3 standard errors: honest heavy-tailed qsl rows can
    # sit above a bound on few samples. At m = 2 bound_general is >= w, so only
    # bound_tight is checked there. markov_tail is >= 1 at these n for every threshold
    # in MARKOV_EPS, so it cannot fail and is not checked.
    start = time.time()
    runs = [  # (task, m, run settings, the bounds its rows are checked against)
        ("vqe", 1, dict(ensemble_config="both", samples=4), ("bound_general", "bound_tight")),
        ("qae", 1, dict(ensemble_config="v2_design", samples=8), ("bound_general", "bound_tight")),
        ("qsl", 1, dict(ensemble_config="both", design_kind="one_design", samples=32),
         ("bound_general", "bound_tight", "bound_qsl")),
        ("qae", 2, dict(ensemble_config="v2_design", samples=6), ("bound_tight",)),
    ]
    violations, worst, rows = [], 0.0, {}
    for task, m, settings, bounds in runs:
        for n in (12, 14):
            (r,) = run_scaling(ExperimentConfig(task=task, n_min=n, n_max=n, m=m, seed=0, **settings))
            rows[task, m, n] = r
            mean = r.mean_delta_over_w * _width(task, n)
            stderr = r.std_delta / math.sqrt(r.samples)
            for name in bounds:
                bound = getattr(r, name)
                worst = max(worst, (mean + 3 * stderr) / bound)
                if mean - 3 * stderr > bound:
                    violations.append((task, m, n, name))
    # Theorem 1: the qae m = 1 mean falls as 2^(-n/2)
    cfg = ExperimentConfig(task="qae", n_min=10, n_max=10, ensemble_config="v2_design", samples=8, seed=0)
    slope = fit_slope(run_scaling(cfg) + [rows["qae", 1, 12], rows["qae", 1, 14]])[0]
    elapsed = time.time() - start
    report(
        "criterion 8: m = 1 and qae m = 2 means within their bounds at n = 12, 14; qae slope near -1/2",
        not violations and abs(slope + 0.5) <= 0.15 and elapsed < 60,
        f"violations {violations}, largest (mean + 3 stderr) / bound {worst:.2f}, "
        f"qae m = 1 slope {slope:.3f}, {elapsed:.1f}s",
    )
