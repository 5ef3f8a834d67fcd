"""Command-line front end: scaling runs, layer sweeps, moment checks, bounds."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness
from .costs import ConvergenceError
from .harness import BoundViolation, ConfigError, ExperimentConfig
from .haar import (
    MomentQuery,
    average_reduced_purity,
    mc_reduced_purity,
    mc_second_moment,
    second_moment_contracted,
    second_moment_reduced_norm,
)
from .landscape import (
    MARKOV_EPS,
    coupling_ranks,
    markov_tail,
    qsl_bound,
    task_tight_bound,
    theorem1_bound,
    tight_bound_formula,
    transfer_tensor,
    variation_range_exact_m1,
    variation_range_grid,
    variation_range_polar,
    variance_bound,
)
from .linalg import BipartitePartition, random_density, random_hermitian

DEFAULT_LAYER_LIST = "5,20,50,80,95"

CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for selftest."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", metavar="FILE", help="flat JSON file with config fields")
    p.add_argument("--task", choices=tuple(harness.TASK_IDS))
    p.add_argument("--n", type=int, dest="n_min", help="smallest qubit count")
    p.add_argument("--n-max", type=int, dest="n_max", help="largest qubit count (default: --n)")
    p.add_argument("--m", type=int, help="local-gate subsystem size (1 or 2)")
    p.add_argument("--ensemble-config", dest="ensemble_config",
                   choices=tuple(harness.ENSEMBLE_CONFIGS))
    p.add_argument("--design-kind", dest="design_kind", choices=harness.DESIGN_KINDS)
    p.add_argument("--layers", type=int, help="fixed layer count (default: 10n)")
    p.add_argument("--layers-multiplier", type=int, dest="layers_multiplier")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="FILE", help="CSV output path (default: stdout)")


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: expected a flat JSON object")
    unknown = sorted(set(data) - set(CONFIG_FIELDS))
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}")
    return data


def _build_config(args) -> ExperimentConfig:
    merged = _load_config_file(args.config) if args.config else {}
    for name in CONFIG_FIELDS:
        val = getattr(args, name, None)
        if val is not None:
            merged[name] = val
    if "task" not in merged:
        raise ConfigError("task: required (use --task or the config file)")
    if "n_min" not in merged:
        raise ConfigError("n_min: required (use --n or the config file)")
    merged.setdefault("n_max", merged["n_min"])
    return ExperimentConfig(**merged)


def _cmd_scaling(args) -> int:
    cfg = _build_config(args)
    harness.emit_csv(harness.run_scaling(cfg), args.out)
    return 0


def _cmd_layers(args) -> int:
    cfg = _build_config(args)
    try:
        layer_list = [int(x) for x in args.layer_list.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"layer-list: expected comma-separated integers, got {args.layer_list!r}")
    keyed = harness.run_layer_sweep(cfg, layer_list)
    rows = [keyed[key] for key in sorted(keyed)]
    for (layers, _n), row in sorted(keyed.items()):
        print(f"# layers={layers} n={row.n} mean_delta_over_w={row.mean_delta_over_w:.6e}")
    harness.emit_csv(rows, args.out)
    return 0


def _check(label: str, ok: bool, detail: str = "") -> bool:
    status = "pass" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {label}{suffix}")
    return ok


def _cmd_validate_haar(args) -> int:
    rng = np.random.default_rng(args.seed)
    all_ok = True
    for n, m in ((3, 1), (4, 1), (4, 2)):
        part = BipartitePartition(n, tuple(range(m)))
        p = random_density(part.d, rng)
        q = random_hermitian(part.d, rng)
        mq = MomentQuery(p, q, part)
        closed = second_moment_reduced_norm(mq)
        contracted = second_moment_contracted(mq)
        all_ok &= _check(
            f"two evaluation paths agree (n={n}, m={m})",
            abs(closed - contracted) <= 1e-12 * max(1.0, abs(closed)),
            f"closed={closed:.12e} contracted={contracted:.12e}",
        )
        est = mc_second_moment(mq, samples=args.samples, seed=args.seed + n * 10 + m)
        all_ok &= _check(
            f"Monte Carlo within 3 stderr (n={n}, m={m})",
            abs(est.mean - closed) <= 3 * est.stderr + 1e-12,
            f"closed={closed:.6e} mc={est.mean:.6e} stderr={est.stderr:.2e}",
        )
        purity = average_reduced_purity(p, part)
        pest = mc_reduced_purity(p, part, samples=args.samples, seed=args.seed + 7 * n + m)
        all_ok &= _check(
            f"average reduced purity within 3 stderr (n={n}, m={m})",
            abs(pest.mean - purity) <= 3 * pest.stderr + 1e-12,
            f"closed={purity:.6e} mc={pest.mean:.6e}",
        )
    return 0 if all_ok else 1


def _cmd_bounds(args) -> int:
    task, n, m = args.task, args.n, args.m
    ExperimentConfig(task=task, n_min=n, n_max=n, m=m)  # checks n and m
    w = harness.setup_task(task, n, m).w
    n_a, n_ab = coupling_ranks(task, m)
    print(f"task = {task}, n = {n}, m = {m}, w = {w:.12g}")
    print(f"bound_general = {theorem1_bound(w, n, m):.12g}")
    print(f"bound_variance = {variance_bound(w, n, m):.12g}")
    print(f"bound_tight = {task_tight_bound(task, n, w, m):.12g}")
    print(f"bound_tight_formula = {tight_bound_formula(task, n, w, m):.12g}")
    if task == "qsl":
        print(f"bound_qsl = {qsl_bound(n, m):.12g}")
    print(f"N_A = {n_a}")
    print(f"N_AB = {n_ab}")
    for eps in sorted(MARKOV_EPS, reverse=True):
        print(f"markov_tail(eps={eps:g}) = {markov_tail(w, n, m, eps):.12g}")
    return 0


def _cmd_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    ok = True

    part = BipartitePartition(3, (0,))
    p = random_density(part.d, rng)
    q = random_hermitian(part.d, rng)
    mq = MomentQuery(p, q, part)
    closed, contracted = second_moment_reduced_norm(mq), second_moment_contracted(mq)
    ok &= _check("moment identity, independent paths", abs(closed - contracted) <= 1e-12)

    for trial in range(3):
        pt = BipartitePartition(4, (0,))
        h = random_hermitian(pt.d, rng)
        rho = random_density(pt.d, rng)
        t = transfer_tensor(h, rho, None, None, pt)
        exact = variation_range_exact_m1(t)
        grid = variation_range_grid(t, resolution=32)
        polar = variation_range_polar(t, np.random.default_rng(trial))
        ok &= _check(
            f"optimizer agreement, instance {trial}",
            abs(exact.delta - grid.delta) <= 0.05 * max(1.0, exact.delta)
            and abs(exact.delta - polar.delta) <= 1e-9 * max(1.0, exact.delta),
            f"exact={exact.delta:.12f} grid={grid.delta:.6f} polar={polar.delta:.12f}",
        )

    cfg = ExperimentConfig(task="qsl", n_min=2, n_max=2, ensemble_config="both",
                           design_kind="identity", samples=4, seed=args.seed)
    row = harness.run_scaling(cfg)[0]
    ok &= _check("state-learning range is 1 with identity surroundings",
                 abs(row.mean_delta_over_w - 1.0) <= 1e-9,
                 f"mean={row.mean_delta_over_w:.12f}")

    cfg = ExperimentConfig(task="vqe", n_min=2, n_max=4, ensemble_config="both",
                           design_kind="two_design", samples=4, seed=args.seed)
    rows = harness.run_scaling(cfg)  # raises BoundViolation on a mean above bound_general
    ok &= _check("variation range within [0, w] on a small sweep",
                 all(0.0 <= r.mean_delta_over_w <= 1.0 for r in rows))

    # qae at n = 5, 6 is where the tight bound first falls below w, so it can bite
    cfg = ExperimentConfig(task="qae", n_min=5, n_max=6, ensemble_config="both",
                           design_kind="two_design", samples=4, seed=args.seed)
    tight_ok = True
    for r in harness.run_scaling(cfg):
        w = harness.setup_task(r.task, r.n, r.m).w
        tight_ok &= r.mean_delta_over_w * w <= r.bound_tight < w
    ok &= _check("variation range below a tight bound that is below w", tight_ok)

    cfg2 = ExperimentConfig(task="vqe", n_min=2, n_max=2, ensemble_config="both",
                            design_kind="two_design", samples=4, seed=args.seed)
    a = harness.run_scaling(cfg2)[0]
    b = harness.run_scaling(cfg2)[0]
    ok &= _check("deterministic reproduction under a fixed seed", a == b)

    return 0 if ok else 2


def cli_main(argv=None) -> int:
    parser = _Parser(prog="localrange",
                     description="Variation range of variational costs under one local gate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scaling = sub.add_parser("scaling", parents=[], help="qubit-count scaling run")
    _add_config_flags(p_scaling)
    p_scaling.set_defaults(func=_cmd_scaling)

    p_layers = sub.add_parser("layers", help="layer-count sweep")
    _add_config_flags(p_layers)
    p_layers.add_argument("--layer-list", default=DEFAULT_LAYER_LIST,
                          help="comma-separated layer counts")
    p_layers.set_defaults(func=_cmd_layers)

    p_haar = sub.add_parser("validate-haar", help="check moment identities against sampling")
    p_haar.add_argument("--samples", type=int, default=2000)
    p_haar.add_argument("--seed", type=int, default=0)
    p_haar.set_defaults(func=_cmd_validate_haar)

    p_bounds = sub.add_parser("bounds", help="print every bound for a task instance")
    p_bounds.add_argument("--task", choices=tuple(harness.TASK_IDS), required=True)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--m", type=int, default=1)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_self = sub.add_parser("selftest", help="reduced-scale acceptance checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"localrange: error: {exc}", file=sys.stderr)
        return 1
    except BoundViolation as exc:
        print(f"localrange: bound violated: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"localrange: numerical failure: {exc}", file=sys.stderr)
        return 4


def entry():
    raise SystemExit(cli_main())
