import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import sample_circuit_dense, transfer_tensor_dense
from localrange import harness
from localrange.costs import heisenberg
from localrange.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    ExperimentRow,
    emit_csv,
    fit_slope,
    run_layer_sweep,
    run_scaling,
)
from localrange.landscape import TransferTensor
from localrange.linalg import spectral_width


def small_cfg(**kw):
    base = dict(task="vqe", n_min=2, n_max=3, samples=3, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_valid(self):
        small_cfg()

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("task", "qft", "task"),
            ("n_min", 1, "n_min"),
            ("n_max", 17, "n_min/n_max"),
            ("m", 3, "m"),
            ("ensemble_config", "left", "ensemble_config"),
            ("design_kind", "clifford", "design_kind"),
            ("samples", 1, "samples"),
            ("optimizer", "lbfgs", "optimizer"),
            ("optimizer", "polar", "^optimizer: m=1 is solved by 'exact'"),
            ("layers", -1, "layers"),
        ],
    )
    def test_field_level_messages(self, field, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("kind", ["one_design", "identity"])
    def test_layers_only_for_two_design(self, kind):
        # a fixed layer count on a layerless ensemble was silently ignored
        with pytest.raises(ConfigError, match="^layers: .*two_design"):
            small_cfg(design_kind=kind, layers=7)
        assert small_cfg(design_kind=kind).layers is None
        assert small_cfg(layers=0).layers == 0

    def test_m2_needs_polar(self):
        for optimizer in ("exact", "grid", "adam"):
            with pytest.raises(ConfigError, match="optimizer"):
                small_cfg(m=2, n_min=3, n_max=3, optimizer=optimizer)
        assert small_cfg(m=2, n_min=3, n_max=3, optimizer="polar").optimizer == "polar"

    def test_m2_rows_the_same_with_or_without_the_solver_named(self):
        cfg = ExperimentConfig(task="qsl", n_min=3, n_max=4, m=2, layers=2, samples=2, seed=9)
        assert run_scaling(cfg) == run_scaling(replace(cfg, optimizer="polar"))


class TestRunScaling:
    def test_qsl_identity_range_is_one(self):
        # a lone single-qubit gate already reaches fidelity 0 and 1
        cfg = ExperimentConfig(task="qsl", n_min=2, n_max=2, ensemble_config="both",
                               design_kind="identity", samples=4, seed=0)
        row = run_scaling(cfg)[0]
        assert row.mean_delta_over_w == pytest.approx(1.0, abs=1e-10)
        assert row.std_delta == pytest.approx(0.0, abs=1e-10)

    def test_rows_ascending_and_bounded(self):
        rows = run_scaling(small_cfg(n_max=4))
        assert [r.n for r in rows] == [2, 3, 4]
        for r in rows:
            assert 0.0 <= r.mean_delta_over_w
            # the bound is absolute (it carries w); the mean is normalized by w
            assert r.mean_delta_over_w * spectral_width(heisenberg(r.n)) <= r.bound_general
            assert r.std_delta >= 0.0

    def test_deterministic(self):
        cfg = small_cfg()
        assert run_scaling(cfg) == run_scaling(cfg)

    def test_qsl_rows_carry_qsl_bound(self):
        cfg = ExperimentConfig(task="qsl", n_min=3, n_max=3, design_kind="one_design",
                               ensemble_config="v1_design", samples=3, seed=1)
        row = run_scaling(cfg)[0]
        assert row.bound_qsl == pytest.approx(2.0 ** (2 - 3))
        vqe_row = run_scaling(small_cfg(n_max=2))[0]
        assert vqe_row.bound_qsl is None

    def test_sample_pooling(self):
        # two half-size runs with different seeds pool to within 3 stderr of a big run
        cfg_a = small_cfg(samples=40, seed=100, n_max=2)
        cfg_b = small_cfg(samples=40, seed=200, n_max=2)
        cfg_big = small_cfg(samples=80, seed=300, n_max=2)
        ra, rb = run_scaling(cfg_a)[0], run_scaling(cfg_b)[0]
        big = run_scaling(cfg_big)[0]
        pooled = (ra.mean_delta_over_w + rb.mean_delta_over_w) / 2
        stderr = np.hypot(ra.std_delta / np.sqrt(40), rb.std_delta / np.sqrt(40))
        stderr = np.hypot(stderr, big.std_delta / np.sqrt(80)) / 8.0  # w(H) at n=2 is 8
        assert abs(pooled - big.mean_delta_over_w) <= 3 * stderr + 1e-12


@pytest.mark.parametrize("task", ["vqe", "qae", "qsl"])
@pytest.mark.parametrize("ensemble_config", ["v1_design", "v2_design", "both"])
def test_sample_delta_matches_dense_path(monkeypatch, task, ensemble_config):
    cfg = ExperimentConfig(task=task, n_min=5, n_max=5, ensemble_config=ensemble_config,
                           samples=2, seed=31)
    inst = harness.setup_task(task, 5, 1)
    layers = harness._effective_layers(cfg, 5)
    got = harness._stack_deltas(cfg, inst, 5, range(2), layers)
    # the dense oracle draws one circuit per generator of the stack
    monkeypatch.setattr(harness, "sample_circuit",
                        lambda ens, rngs: [sample_circuit_dense(ens, rng) for rng in rngs])
    monkeypatch.setattr(harness, "transfer_tensor", lambda h, rhos, v1s, v2s, part: [
        TransferTensor(part, transfer_tensor_dense(h, rho, v1, v2, part).reshape(4, 4))
        for rho, v1, v2 in zip(rhos, v1s or [None] * 2, v2s or [None] * 2)])
    want = harness._stack_deltas(cfg, inst, 5, range(2), layers)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * inst.w)


@pytest.mark.parametrize("optimizer", ["exact", "polar"])
@pytest.mark.parametrize("task", ["qae", "qsl"])
def test_sample_streams_are_the_spawned_children(task, optimizer):
    # each draw of sample k in a stack reads child i of sample k's SeedSequence, as
    # spawn(4)[i] gives it; streams a sample does not use (fixed rho, no polar solve
    # at m = 1) are not built
    assert_streams_are_the_spawned_children(task, optimizer, 17)


def test_streams_of_a_two_word_seed_are_the_spawned_children():
    # qae at m = 2 reads all four streams
    assert_streams_are_the_spawned_children("qae", "polar", 2**32 + 17)


def assert_streams_are_the_spawned_children(task, optimizer, seed):
    m = 1 if optimizer == "exact" else 2
    cfg = ExperimentConfig(task=task, n_min=4, n_max=4, m=m, layers=3, samples=3, seed=seed,
                           optimizer=optimizer)
    inst = harness.setup_task(task, 4, m)
    ens = harness._side_ensemble(cfg, 4, 3)
    v1s, v2s, rhos, rngs_opt = harness._stack_draws(cfg, inst, 4, range(3), 3)
    assert len(v1s) == len(v2s) == len(rhos) == 3
    for k in range(3):
        entropy = (seed, harness.TASK_IDS[task], 4, k, 3, harness.ENSEMBLE_CONFIGS["both"])
        children = np.random.SeedSequence(entropy).spawn(4)
        for i, child in enumerate(children):
            built = np.random.SeedSequence(entropy, spawn_key=(i,))
            assert np.array_equal(built.generate_state(8), child.generate_state(8))
        rngs = [np.random.default_rng(child) for child in children]
        for got, rng in ((v1s[k], rngs[0]), (v2s[k], rngs[1])):
            want = harness.sample_circuit(ens, rng)
            assert got.cz_runs == want.cz_runs
            assert np.array_equal(got.factors, want.factors)
        if task == "qae":
            assert np.array_equal(rhos[k], harness.random_pure_state(16, rngs[2]))
        else:
            assert rhos[k] is inst.rho
        if optimizer == "polar":
            assert rngs_opt[k].bit_generator.state == rngs[3].bit_generator.state
    if optimizer == "exact":
        assert rngs_opt is None


@pytest.mark.parametrize("seed", [0, 17, 2**32 - 1, 2**32, 2**32 + 17, 2**64 + 3, 2**100 + 2**40])
def test_stream_entropy_is_split_as_numpy_splits_it(seed):
    # the uint32 words seed the same streams as the tuple of ints numpy splits itself
    entropy = (seed, 1, 9, 3, 90, 2)
    words = harness._entropy_words(entropy)
    assert words.dtype == np.uint32
    for i in range(4):
        want = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(i,)))
        got = np.random.Generator(np.random.PCG64(np.random.SeedSequence(words, spawn_key=(i,))))
        assert got.bit_generator.state == want.bit_generator.state


def test_negative_seed_fails_as_numpy_does():
    # refused by the config, which names the field, before any set-up runs
    with pytest.raises(ConfigError, match=r"^seed:"):
        small_cfg(seed=-1)


def test_product_layer_qsl_solves_are_degenerate(monkeypatch):
    # both sides are product layers, so C depends on U only through |<chi0|U|psi0>|^2 and
    # the top and bottom pairs of S are exactly degenerate, even where delta << ||S||
    solve, solved = harness.variation_range_exact_m1, []

    def keep(t):
        solved.append(solve(t))
        return solved[-1]

    monkeypatch.setattr(harness, "variation_range_exact_m1", keep)
    run_scaling(ExperimentConfig(task="qsl", n_min=8, n_max=8, design_kind="one_design",
                                 samples=16, seed=0))
    assert len(solved) == 16
    assert [k for k, res in enumerate(solved) if not res.degenerate] == []


@pytest.mark.parametrize("cfg", [
    # stacks of at most 8, 4 and 2 samples at n = 9, 10 and 11
    ExperimentConfig(task="vqe", n_min=9, n_max=11, layers=6, samples=5, seed=2),
    # qae draws its input per sample; qsl one-design has one segment per side
    ExperimentConfig(task="qae", n_min=10, n_max=11, layers=20, ensemble_config="v2_design",
                     samples=3, seed=4),
    ExperimentConfig(task="qsl", n_min=8, n_max=11, design_kind="one_design", samples=9, seed=6),
], ids=["vqe", "qae", "qsl"])
def test_rows_independent_of_stack_split(monkeypatch, cfg):
    # every per-sample gemm has the same shape in any stack, so one sample per
    # stack gives the same bytes as the full stacks
    full = harness.run_scaling(cfg)
    monkeypatch.setattr(harness, "_STACK_AMPLITUDES", 1)
    assert harness.run_scaling(cfg) == full


def test_n14_runs_matrix_free_and_within_bounds():
    # A dense H at n = 14 alone is 4 GiB. At this n the general bound is w/4,
    # so unlike at n <= 10 (where it is >= w) the comparison can fail.
    cfgs = [
        ExperimentConfig(task="vqe", n_min=14, n_max=14, layers=14, samples=3, seed=3),
        # the discarded qubit is 13 away from the gate: 28 layers bring it into the light cone
        ExperimentConfig(task="qae", n_min=14, n_max=14, layers=28, samples=2, seed=3),
        ExperimentConfig(task="qsl", n_min=14, n_max=14, design_kind="one_design",
                         samples=4, seed=3),
    ]
    tracemalloc.start()
    try:
        rows = [run_scaling(cfg)[0] for cfg in cfgs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    for cfg, row in zip(cfgs, rows):
        w = harness.setup_task(cfg.task, 14, 1).w
        mean = row.mean_delta_over_w * w
        assert 0.0 < mean <= row.bound_general, cfg.task
        assert mean <= row.bound_tight, cfg.task


def test_m2_row_mean_within_its_tight_bound():
    # measured on the m = 1 constants this row read 0.466 against 0.408; the
    # dense formula gives 0.710. A local ascent only underestimates a range.
    cfg = ExperimentConfig(task="qae", n_min=7, n_max=7, m=2, ensemble_config="v2_design",
                           optimizer="polar", samples=2, seed=7)
    row = run_scaling(cfg)[0]
    mean = row.mean_delta_over_w * harness.setup_task("qae", 7, 2).w
    assert mean <= row.bound_tight


class TestLayerSweep:
    def test_keys_and_determinism(self):
        cfg = small_cfg(n_max=2, ensemble_config="v1_design")
        out = run_layer_sweep(cfg, [0, 3])
        assert set(out) == {(0, 2), (3, 2)}
        again = run_layer_sweep(cfg, [3, 0])
        assert out == again

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigError, match="^layers: .*empty"):
            run_layer_sweep(small_cfg(), [])

    def test_requires_two_design(self):
        with pytest.raises(ConfigError):
            run_layer_sweep(small_cfg(design_kind="one_design"), [3])

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            run_layer_sweep(small_cfg(), [-1])


class TestFitSlope:
    def test_exact_half(self):
        rows = [(n, 2.0 ** (-n / 2)) for n in range(2, 8)]
        slope, _, r2 = fit_slope(rows)
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_one(self):
        rows = [(n, 2.0**-n) for n in range(2, 8)]
        assert fit_slope(rows)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_slow_trend_is_not_flat(self):
        # a 2e-5 relative rise per step at mean 2^-10 is a trend, not a constant
        rows = [(10, 2.0**-10), (11, 2.0**-10 * 1.00002), (12, 2.0**-10 * 1.00004)]
        slope, _, r2 = fit_slope(rows)
        assert slope == pytest.approx(np.log2(1.00004) / 2, rel=1e-6)
        assert r2 == pytest.approx(1.0, abs=1e-9)

    def test_constant_rows(self):
        slope, intercept, r2 = fit_slope([(n, 0.25) for n in range(2, 6)])
        assert slope == 0.0
        assert r2 == 0.0
        assert intercept == pytest.approx(-2.0)

    def test_too_few(self):
        with pytest.raises(ValueError):
            fit_slope([(2, 1.0), (3, 0.5)])

    def test_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope([(2, 1.0), (3, 0.0), (4, 0.1)])

    def test_accepts_rows(self):
        rows = run_scaling(small_cfg(n_max=4))
        fit_slope(rows)  # no error; means are positive for this config


class TestCsv:
    def test_header_and_format(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = run_scaling(small_cfg(n_max=2))
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER == (
            "task,n,m,ensemble_config,samples,mean_delta_over_w,std_delta,"
            "bound_general,bound_tight,bound_qsl,seed"
        )
        fields = lines[1].split(",")
        assert fields[0] == "vqe"
        assert "e" in fields[5]  # scientific notation
        assert fields[9] == ""  # bound_qsl empty outside qsl task

    def test_stdout_when_no_path(self, tmp_path, capsys):
        rows = run_scaling(small_cfg(n_max=2))
        emit_csv(rows, tmp_path / "rows.csv")
        emit_csv(rows)
        assert capsys.readouterr().out == (tmp_path / "rows.csv").read_text()

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_scaling(cfg), a)
        emit_csv(run_scaling(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        # n = 7 fuses each layer into two blocks, whose 2^b x 2^b matmuls may run
        # on threaded BLAS; the n = 11 qsl points split into stacks of 2 samples.
        # None removes the variable from the environment.
        configs = [dict(task="vqe", n_min=2, n_max=7, samples=4, seed=9),
                   dict(task="qsl", n_min=10, n_max=11, design_kind="one_design", samples=5, seed=9)]
        settings = [{"OPENBLAS_NUM_THREADS": None}, {"OPENBLAS_NUM_THREADS": "1"}]
        for c, cfg_json in enumerate(configs):
            cfg_path = tmp_path / f"cfg{c}.json"
            cfg_path.write_text(json.dumps(cfg_json))
            outputs = []
            for k, setting in enumerate(settings):
                out_path = tmp_path / f"out{c}-{k}.csv"
                env = dict(os.environ)
                for name, value in setting.items():
                    if value is None:
                        env.pop(name, None)
                    else:
                        env[name] = value
                res = subprocess.run(
                    [sys.executable, "-m", "localrange", "scaling",
                     "--config", str(cfg_path), "--out", str(out_path)],
                    env=env, capture_output=True, text=True,
                )
                assert res.returncode == 0, res.stderr
                outputs.append(out_path.read_bytes())
            assert len(outputs[0].splitlines()) == 1 + cfg_json["n_max"] - cfg_json["n_min"] + 1
            assert outputs[1] == outputs[0]


def test_experiment_row_is_plain_data():
    row = ExperimentRow(task="vqe", n=2, m=1, ensemble_config="both", samples=2,
                        mean_delta_over_w=0.1, std_delta=0.01, bound_general=1.0,
                        bound_tight=0.5, bound_qsl=None, seed=0)
    assert row.task == "vqe"
