import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from dense_reference import coupling_rank, tight_bound
from localrange import costs, harness
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
            assert values["bound_tight_formula"] == f"{tight_bound(inst.h, inst.part):.12g}"
            assert (values["N_A"], values["N_AB"]) == (f"{n_a}", f"{n_ab}")
            # bound_tight is the CSV's column of the same name
            code, csv, _ = run_cli(capsys, "scaling", "--task", task, "--n", "7", "--m", str(m),
                                   "--design-kind", "one_design", "--samples", "2")
            assert code == 0
            header, row = csv.splitlines()
            column = float(row.split(",")[header.split(",").index("bound_tight")])
            assert values["bound_tight"] == f"{column:.12g}"


def test_bounds_text_matches_the_pinned_text(capsys):
    # every line `bounds` prints, for each task and m at n = 3, 4, 8, 12 and 16
    text = ""
    for task in ("vqe", "qae", "qsl"):
        for m in ("1", "2"):
            for n in ("3", "4", "8", "12", "16"):
                code, out, _ = run_cli(capsys, "bounds", "--task", task, "--n", n, "--m", m)
                assert code == 0
                text += out
    assert text.encode() == (Path(__file__).parent / "pinned_bounds.txt").read_bytes()


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
    assert err.startswith("localrange: error: n_min/n_max:")
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
    # --layers outside two_design would be ignored, so it is refused
    code, out, err = run_cli(capsys, "scaling", "--task", "qsl", "--n", "3", "--design-kind",
                             "one_design", "--layers", "7", "--samples", "2")
    assert code == 1
    assert err.startswith("localrange: error: layers:"), err
    assert out == ""
    # JSON values of the wrong type name their field instead of raising later
    cfg = tmp_path / "cfg.json"
    for field, value in (("layers_multiplier", 1.5), ("task", ["vqe"]),
                         ("ensemble_config", ["both"]), ("design_kind", 2),
                         ("optimizer", 1), ("seed", True), ("samples", 2.0),
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


def test_empty_layer_list_exits_one(capsys):
    # an empty list used to exit 0 with a header-only CSV
    for layer_list in ("", " , "):
        code, out, err = run_cli(capsys, "layers", "--task", "vqe", "--n", "3", "--samples", "2",
                                 "--layer-list", layer_list)
        assert code == 1
        assert err.startswith("localrange: error: layers:"), err
        assert out == ""


def test_m2_scaling_runs_polar(capsys):
    # m = 2 implies polar ascent; no flag names the solver
    code, out, _ = run_cli(capsys, "scaling", "--task", "qsl", "--n", "3", "--m", "2", "--samples", "2")
    assert code == 0
    assert out.splitlines()[1].startswith("qsl,3,2,both,2,")
    code, out, err = run_cli(capsys, "scaling", "--task", "qsl", "--n", "3", "--m", "2",
                             "--optimizer", "polar", "--samples", "2")
    assert code == 1
    assert "unrecognized arguments: --optimizer polar" in err and out == ""


_SCIPY_PROBE = """
import json, sys
from localrange.cli import cli_main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

for argv in json.loads(sys.argv[1]):
    assert cli_main(argv) == 0, argv
before = scipy_modules()
assert cli_main(json.loads(sys.argv[2])) == 0
print(json.dumps([before, scipy_modules()]))
"""


def test_m1_runs_load_no_scipy(tmp_path):
    # scipy serves only m = 2 solves (expm, schur); a fresh process shows what loads
    out = tmp_path / "rows.csv"
    m1_runs = [["scaling", "--task", task, "--n", "3", "--n-max", "4", "--layers", "2",
                "--samples", "2", "--out", str(out)]
               for task in ("vqe", "qae", "qsl")]
    m1_runs += [["bounds", "--task", task, "--n", "6", "--m", m]
                for task in ("vqe", "qae", "qsl") for m in ("1", "2")]
    m1_runs += [["layers", "--task", "vqe", "--n", "3", "--layer-list", "1,2", "--samples", "2",
                 "--out", str(out)],
                ["selftest"],
                ["validate-haar", "--samples", "200"]]
    m2_run = ["scaling", "--task", "vqe", "--n", "3", "--m", "2", "--samples", "2", "--out", str(out)]
    res = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(m1_runs), json.dumps(m2_run)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    before, after = json.loads(res.stdout.splitlines()[-1])
    assert before == []
    assert "scipy.linalg" in after  # the probe sees scipy once an m = 2 solve loads it
    assert out.read_text().splitlines()[1].startswith("vqe,3,2,both,2,")


def test_config_optimizer_names_only_the_solver_of_m(capsys, tmp_path):
    # the config file's optimizer key may echo m's solver, and nothing else
    for m, optimizer, expected in ((1, "exact", 0), (2, "polar", 0), (1, "polar", 1), (2, "exact", 1)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"task": "vqe", "n_min": 3, "m": m, "samples": 2,
                                    "optimizer": optimizer}))
        code, out, err = run_cli(capsys, "scaling", "--config", str(path))
        assert code == expected, (m, optimizer, err)
        if expected:
            assert err.startswith("localrange: error: optimizer:"), err
            assert out == ""
        else:
            assert out.splitlines()[1].startswith(f"vqe,3,{m},both,2,")


@pytest.mark.parametrize("command", [["bounds", "--n", "8"], ["scaling", "--n", "8", "--samples", "2"]])
def test_lanczos_without_convergence_exits_four(monkeypatch, capsys, command):
    # the Heisenberg chain at n = 8 needs more than 3 Lanczos steps
    monkeypatch.setattr(costs, "LANCZOS_MAX_STEPS", 3)
    code, out, err = run_cli(capsys, command[0], "--task", "vqe", *command[1:])
    assert code == 4
    assert err.startswith("localrange: numerical failure: Lanczos did not converge"), err
    assert "Traceback" not in err
    assert out == ""


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


@pytest.mark.slow
def test_selftest_bound_check_can_fail(monkeypatch, capsys):
    # a scaling run enforces only bound_general; selftest checks the tight bound
    monkeypatch.setattr(harness, "task_tight_bound", lambda task, n, w, m=1: 0.0)
    code, out, _ = run_cli(capsys, "selftest", "--seed", "0")
    assert code == 2
    assert "[FAIL] variation range below a tight bound that is below w" in out
