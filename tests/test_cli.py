import json
import tracemalloc

import pytest

from dense_reference import coupling_rank, tight_bound
from localrange import harness
from localrange.cli import cli_main
from localrange.costs import Observable


def run_cli(capsys, *argv):
    try:
        code = cli_main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bounds_qsl_example(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--task", "qsl", "--n", "4", "--m", "1")
    assert code == 0
    assert "bound_qsl = 0.25" in out


def test_bounds_vqe_reports_ranks(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--task", "vqe", "--n", "4")
    assert code == 0
    assert "N_A = 0" in out
    assert "N_AB = 3" in out


def test_bounds_m2_closed_form_matches_dense(capsys):
    for task in ("vqe", "qae", "qsl"):
        for m in (1, 2):
            code, out, _ = run_cli(capsys, "bounds", "--task", task, "--n", "7", "--m", str(m))
            assert code == 0
            values = dict(line.split(" = ") for line in out.splitlines()[1:])
            inst = harness.setup_task(task, 7, m)
            n_a, n_ab = coupling_rank(inst.h, inst.part)
            assert values["bound_tight"] == f"{tight_bound(inst.h, inst.part):.12g}"
            assert (values["N_A"], values["N_AB"]) == (f"{n_a}", f"{n_ab}")
            if m == 2 and task != "qsl":
                assert values["bound_tight_published"] == values["bound_tight"]


@pytest.mark.parametrize("m", [0, 3])
def test_bounds_rejects_unsupported_m(capsys, m):
    code, out, err = run_cli(capsys, "bounds", "--task", "vqe", "--n", "6", "--m", str(m))
    assert code == 1
    assert err.startswith("localrange: error: m:")
    assert out == ""


def test_bounds_runs_matrix_free_at_the_qubit_cap(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("bounds formed a dense observable")

    monkeypatch.setattr(Observable, "__array__", refuse)
    n = str(harness.MAX_QUBITS)
    tracemalloc.start()
    try:
        for task in ("vqe", "qae", "qsl"):
            for m in ("1", "2"):
                code, out, err = run_cli(capsys, "bounds", "--task", task, "--n", n, "--m", m)
                assert code == 0, err
                assert "bound_tight = " in out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n", [17, 40])
def test_bounds_rejects_n_above_cap(capsys, n):
    code, out, err = run_cli(capsys, "bounds", "--task", "qsl", "--n", str(n))
    assert code == 1
    assert err.startswith("localrange: error: n:")
    assert "Traceback" not in err
    assert out == ""


def test_missing_task_exits_one(capsys):
    code, _, err = run_cli(capsys, "scaling", "--n", "2")
    assert code == 1
    assert "task" in err


def test_missing_subcommand_exits_one(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_exits_one(capsys):
    code, _, err = run_cli(capsys, "scaling", "--task", "vqe", "--n", "2", "--frobnicate")
    assert code == 1


def test_scaling_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--task", "vqe", "--n", "2",
                           "--samples", "2", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("task,n,m,")
    assert lines[1].startswith("vqe,2,1,both,2,")


def test_scaling_deterministic(capsys):
    args = ("scaling", "--task", "vqe", "--n", "2", "--n-max", "2", "--samples", "2", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_config_file_with_overrides(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "vqe", "n_min": 2, "samples": 2, "seed": 1}))
    out_path = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "scaling", "--config", str(cfg), "--seed", "2",
                         "--out", str(out_path))
    assert code == 0
    assert out_path.read_text().splitlines()[1].endswith(",2")  # CLI seed wins


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"task": "vqe", "n_min": 2, "shots": 100}))
    code, _, err = run_cli(capsys, "scaling", "--config", str(cfg))
    assert code == 1
    assert "shots" in err


def test_config_unreadable(capsys):
    code, _, err = run_cli(capsys, "scaling", "--config", "/nonexistent/cfg.json")
    assert code == 1


def test_invalid_config_value_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "scaling", "--task", "vqe", "--n", "1")
    assert code == 1
    assert "n_min" in err
    # JSON values of the wrong type name their field instead of raising later
    cfg = tmp_path / "cfg.json"
    for field, value in (("layers_multiplier", 1.5), ("task", ["vqe"]),
                         ("ensemble_config", ["both"]), ("design_kind", 2),
                         ("optimizer", None), ("seed", True), ("samples", 2.0),
                         ("m", False), ("layers", "4"), ("n_max", 3.0)):
        cfg.write_text(json.dumps({"task": "vqe", "n_min": 2, "samples": 2, field: value}))
        code, out, err = run_cli(capsys, "scaling", "--config", str(cfg))
        assert code == 1, field
        assert err.startswith(f"localrange: error: {field}:"), err
        assert "Traceback" not in err
        assert out == ""


def test_layers_subcommand(capsys):
    code, out, _ = run_cli(capsys, "layers", "--task", "vqe", "--n", "2",
                           "--samples", "2", "--seed", "3", "--layer-list", "0,2")
    assert code == 0
    assert "# layers=0 n=2" in out
    assert "# layers=2 n=2" in out


def test_bound_violation_exits_three(monkeypatch, capsys):
    monkeypatch.setattr(harness, "theorem1_bound", lambda w, n, m: -1.0)
    code, out, err = run_cli(capsys, "scaling", "--task", "vqe", "--n", "2", "--samples", "2")
    assert code == 3
    assert "exceeds its bound" in err
    assert "Traceback" not in err
    assert out == ""


def test_validate_haar_small(capsys):
    code, out, _ = run_cli(capsys, "validate-haar", "--samples", "300", "--seed", "1")
    assert code == 0
    assert "[pass]" in out
    assert "FAIL" not in out


@pytest.mark.slow
def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 0
    assert "FAIL" not in out
