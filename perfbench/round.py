"""One round of a workload in a fresh process, as a user's `localrange scaling` run.

    python3 perfbench/round.py --workload NAME --seed N --csv FILE --spawned T [--trace FILE]

Imports `localrange` from the checkout's `src/`, builds the workload's
`ExperimentConfig`, runs `run_scaling` and writes the rows with `emit_csv`. It
prints one JSON object: the set-up time from `--spawned` (the caller's
`time.monotonic()` just before starting this process), the run's wall time,
the sample count and the peak resident set. With `--trace` it also installs the
timing wrappers, writes their spans to that file, reports per-layer figures and
runs the per-solve checks after the timed part.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None where it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "BARREN_THREADS": os.environ.get("BARREN_THREADS", "unset"),
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace")
    args = p.parse_args()
    src = ROOT / "src"
    if not (src / "localrange" / "__init__.py").is_file():
        print(f"round: no localrange package under {src}", file=sys.stderr)
        return 1
    sys.path[:0] = [str(src), str(ROOT)]

    from localrange import harness
    from perfbench.workloads import WORKLOADS

    cfg = harness.ExperimentConfig(seed=args.seed, **WORKLOADS[args.workload])
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer(harness)
    t0 = time.perf_counter()
    rows = harness.run_scaling(cfg)
    harness.emit_csv(rows, args.csv)
    run_s = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "samples": sum(r.samples for r in rows),
        "peak_rss_mib": peak_kib / 1024,
        "env": environment(),
    }
    if tracer is not None:
        from localrange import landscape
        from perfbench.checks import check_solves

        tracer.write(args.trace)
        out["layers"] = tracer.metrics()
        out["absent"] = tracer.absent
        problems = check_solves(tracer.solves, WORKLOADS[args.workload], args.seed,
                                landscape.variation_range_grid)
        out["solve_problems"] = {str(n): msgs for n, msgs in problems.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
