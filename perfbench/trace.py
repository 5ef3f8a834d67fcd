"""Timing wrappers on the names `localrange.harness` calls into each module.

`Tracer(harness)` replaces each name below in the harness module's namespace
with a wrapper that records one span per call (layer, name, start, end,
thread, thread CPU time) and keeps what the solvers return. Spans stay in
memory until `write` is called after the run. A name the harness no longer has
leaves its layer absent: its metrics read 0 and `absent` names it.
"""

from __future__ import annotations

import functools
import json
import threading
import time

ROOT_LAYER = "harness.run"
LAYERS = {
    ROOT_LAYER: ("run_scaling",),
    "circuits.sample": ("sample_circuit",),
    "costs.hamiltonian": ("heisenberg", "qsl_hamiltonian", "qae_hamiltonian"),
    "linalg.width": ("spectral_width",),
    "landscape.bounds": ("theorem1_bound", "tight_bound", "task_tight_bound", "qsl_bound"),
    "landscape.transfer": ("transfer_tensor",),
    "landscape.solve": ("variation_range_exact_m1", "variation_range_grid", "variation_range_adam"),
}
# layers reported with thread CPU time and call counts besides wall time
COUNTED = ("circuits.sample", "landscape.transfer", "landscape.solve")


class Tracer:
    def __init__(self, harness):
        self.spans = []  # (layer, name, start, end, thread, cpu seconds)
        self.solves = []  # (TransferTensor, VariationResult) of every solver call
        self.absent = []
        for layer, names in LAYERS.items():
            for name in names:
                fn = getattr(harness, name, None)
                if fn is None:
                    self.absent.append(name)
                else:
                    setattr(harness, name, self._wrap(layer, name, fn))

    def _wrap(self, layer, name, fn):
        keep = layer == "landscape.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            c0, t0 = time.thread_time(), time.perf_counter()
            out = fn(*args, **kwargs)
            t1, c1 = time.perf_counter(), time.thread_time()
            # list.append is atomic under the interpreter lock
            self.spans.append((layer, name, t0, t1, threading.get_ident(), c1 - c0))
            if keep:
                self.solves.append((args[0], out))
            return out

        return traced

    def metrics(self) -> dict:
        """Per-layer figures of everything recorded so far."""
        out = {}
        for layer in LAYERS:
            if layer == ROOT_LAYER:
                continue
            spans = [s for s in self.spans if s[0] == layer]
            out[f"{layer}_s"] = sum(s[3] - s[2] for s in spans)
            if layer in COUNTED:
                out[f"{layer}_cpu_s"] = sum(s[5] for s in spans)
                out[f"{layer}_calls"] = len(spans)
        results = [r for _, r in self.solves]
        adam = [r for r in results if r.method == "adam"]
        out["landscape.adam_iterations"] = sum(r.iterations for r in adam)
        out["landscape.adam_nonconverged"] = sum(not r.converged for r in adam)
        out["landscape.exact_degenerate"] = sum(r.degenerate for r in results if r.method == "exact")
        runs = [(s[2], s[3]) for s in self.spans if s[0] == ROOT_LAYER]
        children = [(s[2], s[3]) for s in self.spans if s[0] != ROOT_LAYER]
        run_s = sum(b - a for a, b in runs)
        covered = sum(_union([(max(a, ra), min(b, rb)) for a, b in children if b > ra and a < rb])
                      for ra, rb in runs)
        out["harness.run_s"] = run_s
        out["harness.self_s"] = run_s - covered
        out["harness.concurrency"] = sum(b - a for a, b in children) / run_s if run_s > 0 else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for layer, name, t0, t1, thread, cpu in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name, "start": t0, "end": t1,
                                     "thread": thread, "cpu_s": cpu}) + "\n")


def _union(intervals) -> float:
    """Total length covered by a set of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total
