"""Benchmark of `localrange scaling` on the workloads in workloads.py.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload, each in a fresh process (round.py), until
S seconds have passed, and checks every CSV the program writes. The last
line of standard output is one JSON object: `correct`, `attempted` and `failed`
count (task, n) points, and `metrics` holds the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). A traced run
alternates untraced and traced rounds, so that it can report what tracing
costs. Each run writes its rounds, problems and environment to perfbench/out/.
See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ROUND_TIMEOUT_S = 170

sys.path.insert(0, str(ROOT))
from perfbench.workloads import WORKLOADS, points  # noqa: E402


class RoundError(RuntimeError):
    """A round's process failed; the program or the checkout is broken."""


def run_round(workload: str, seed: int, csv_path: Path, trace_path: Path | None, env=None) -> dict:
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload, "--seed", str(seed),
           "--csv", str(csv_path)]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    if env is None:
        # workloads run at the program's default worker count
        env = {k: v for k, v in os.environ.items() if k != "BARREN_THREADS"}
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)], capture_output=True, text=True,
                          env=env, timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RoundError(f"round exited with {proc.returncode}:\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["csv"] = csv_path.read_text()
    return rec


def source_digest() -> str:
    """Digest of the program's sources: CSVs are compared between runs of one program only."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def reference_problems(text: str, ref_text: str, ns: list) -> dict:
    """Lines of a CSV that differ from the reference, keyed by the n of their row."""
    rows, ref_rows = text.split("\n"), ref_text.split("\n")
    problems = {}
    if len(rows) != len(ref_rows):
        problems[None] = ["CSV differs from the reference in length"]
    for i, (a, b) in enumerate(zip(rows, ref_rows)):
        if a != b:
            n = ns[i - 1] if 1 <= i <= len(ns) else None
            problems.setdefault(n, []).append(f"CSV line {i + 1} differs from the reference")
    return problems


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.checks import check_csv  # imports numpy and scipy; after argument checks

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ns = points(args.workload)
    cfg = WORKLOADS[args.workload]

    rounds = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        k = len(rounds)
        trace_path = OUT / f"{stem}-round{k}.spans.jsonl" if traced else None
        rec = run_round(args.workload, args.seed, OUT / f"{stem}-round{k}.csv", trace_path)
        rec["traced"] = traced
        rounds.append(rec)
        both_kinds = not args.trace or len(rounds) >= 2
        if both_kinds and time.monotonic() - start >= args.seconds:
            break

    # the CSV must be byte-identical across the rounds of a run and across runs of one program
    ref_path = OUT / f"ref-{args.workload}-seed{args.seed}-{source_digest()}.csv"
    if not ref_path.exists():
        tmp = ref_path.with_suffix(".tmp")
        tmp.write_text(rounds[0]["csv"])
        os.replace(tmp, ref_path)
    ref_text = ref_path.read_text()

    failed = 0
    problems_out = []
    for k, rec in enumerate(rounds):
        problems = check_csv(rec["csv"], cfg, args.seed)
        for n, msgs in reference_problems(rec["csv"], ref_text, ns).items():
            problems.setdefault(n, []).extend(msgs)
        for n, msgs in rec.get("solve_problems", {}).items():
            problems.setdefault(int(n), []).extend(msgs)
        # a problem with the whole file (key None) fails every point
        failed += len(ns) if None in problems else len(set(problems) & set(ns))
        for n, msgs in problems.items():
            for msg in msgs:
                problems_out.append({"round": k, "n": n, "problem": msg})
                print(f"check failed: round {k}, n={n}: {msg}", file=sys.stderr)

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        absent = sorted({name for r in traced for name in r["absent"]})
        if absent:
            print(f"absent from localrange.harness, layer figures read 0: {absent}", file=sys.stderr)
        values = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
        values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                      - statistics.median(r["run_s"] for r in plain))
        wanted = spec["per_layer"]
    else:
        absent = []
        values = {
            "samples_per_s": statistics.median(r["samples"] / r["run_s"] for r in rounds),
            "setup_s": rounds[0]["setup_s"],  # one cold set-up per run
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": failed == 0, "attempted": len(rounds) * len(ns), "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  wall_s=time.monotonic() - start, env=rounds[0]["env"], absent=absent,
                  problems=problems_out,
                  rounds=[{k: v for k, v in r.items() if k not in ("csv", "env")} for r in rounds])
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"run: {exc}", file=sys.stderr)
        sys.exit(1)
