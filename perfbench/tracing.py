"""Spans around public voltcraft functions, for the per-layer metrics.

The library imports most of these functions by name (`from .policy import
sample` in trainer, `from .conic import solve_conic` in baseline), so a
wrapper is installed on every voltcraft module attribute that holds the
original function, not only on the defining module. Spans stay in memory
until the run ends. A span's self time is its duration minus the durations
of the spans it directly encloses (one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time

import numpy as np

# span name -> what to keep from the wrapped function's result
WRAPPED = {
    "network.load_network": None,
    "data.load_timeseries": None,
    "trainer.run_training": lambda out: len(out[1]),  # training records
    "trainer.estimate_gradient": None,
    "trainer.apply_update": None,
    "policy.policy_distribution": None,
    "policy.sample": None,
    "policy.grad_log_prob": None,
    "powerflow.evaluate_loss": lambda out: out.solution.iterations,  # sweeps
    "powerflow.solve_power_flow": None,
    "baseline.solve_baseline": None,
    "conic.solve_conic": lambda out: out.iterations,  # interior-point iterations
    "conic.max_step": None,
    "conic.min_eig": None,
    "conic.jordan_prod": None,
    "conic.jordan_div": None,
}

# name -> unit; README.md maps each to the end-to-end metric it should move
LAYER_UNITS = {
    "network.load_network_ms": "ms",
    "data.load_timeseries_ms": "ms",
    "trainer.run_training_self_ms": "ms",
    "trainer.estimate_gradient_us": "us",
    "trainer.apply_update_us": "us",
    "trainer.updates": "count",
    "policy.policy_distribution_us": "us",
    "policy.sample_us": "us",
    "policy.grad_log_prob_us": "us",
    "policy.calls_per_record": "calls/record",
    "powerflow.evaluate_loss_us": "us",
    "powerflow.solve_power_flow_us": "us",
    "powerflow.sweeps_per_solve": "sweeps/solve",
    "conic.solve_conic_ms": "ms",
    "conic.iterations_per_solve": "iter/solve",
    "conic.self_ms": "ms",
    "conic.max_step_us": "us",
    "conic.min_eig_us": "us",
    "conic.jordan_prod_us": "us",
    "conic.jordan_div_us": "us",
    "baseline.solve_baseline_self_ms": "ms",
    "baseline.conic_solves_per_call": "solves/call",
}


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index, child time, kept value] per call
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        """Wrap every WRAPPED function wherever a voltcraft module holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "voltcraft" or k.startswith("voltcraft.")]
        for name, keep in WRAPPED.items():
            module_name, attr = name.split(".")
            original = getattr(sys.modules[f"voltcraft.{module_name}"], attr)
            wrapper = self._wrap(name, original, keep)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore the original functions; later calls record no spans."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, keep):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            span = [name, 0.0, 0.0, parent, 0.0, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                span[2] = end
                if parent >= 0:
                    spans[parent][4] += end - span[1]
            if keep is not None:
                span[5] = keep(out)
            return out

        return wrapper

    def entered(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path) -> None:
        """All spans as gzip-compressed JSON."""
        names = sorted(WRAPPED)
        code = {n: i for i, n in enumerate(names)}
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent", "kept"],
                "spans": [[code[s[0]], s[1], s[2], s[3], s[5]] for s in self.spans],
            }, fh, separators=(",", ":"))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; every WRAPPED function must have been entered."""
        dur, self_t, kept = {}, {}, {}
        in_training = []
        updates = {}  # run_training span -> apply_update calls inside it
        for k, (name, start, end, parent, child, value) in enumerate(self.spans):
            dur.setdefault(name, []).append(end - start)
            self_t.setdefault(name, []).append(end - start - child)
            kept.setdefault(name, []).append(value)
            in_training.append(parent >= 0 and (
                self.spans[parent][0] == "trainer.run_training" or in_training[parent]))
            if name == "trainer.run_training":
                updates[k] = 0
            elif name == "trainer.apply_update" and parent in updates:
                updates[parent] += 1

        def median(table, name, scale):
            return float(np.median(table[name])) * scale

        def kept_values(name):  # a call that raised kept nothing
            return [v for v in kept[name] if v is not None]

        def mean_kept(name):
            return float(np.mean(kept_values(name)))

        records = sum(kept_values("trainer.run_training"))
        forwards = sum(
            1 for span, inside in zip(self.spans, in_training)
            if inside and span[0] in ("policy.policy_distribution", "policy.grad_log_prob")
        )
        return {
            "network.load_network_ms": sum(dur["network.load_network"]) * 1e3,
            "data.load_timeseries_ms": sum(dur["data.load_timeseries"]) * 1e3,
            "trainer.run_training_self_ms": median(self_t, "trainer.run_training", 1e3),
            "trainer.estimate_gradient_us": median(dur, "trainer.estimate_gradient", 1e6),
            "trainer.apply_update_us": median(dur, "trainer.apply_update", 1e6),
            "trainer.updates": float(np.median(list(updates.values()))),
            "policy.policy_distribution_us": median(dur, "policy.policy_distribution", 1e6),
            "policy.sample_us": median(dur, "policy.sample", 1e6),
            "policy.grad_log_prob_us": median(dur, "policy.grad_log_prob", 1e6),
            "policy.calls_per_record": forwards / records,
            "powerflow.evaluate_loss_us": median(dur, "powerflow.evaluate_loss", 1e6),
            "powerflow.solve_power_flow_us": median(dur, "powerflow.solve_power_flow", 1e6),
            "powerflow.sweeps_per_solve": mean_kept("powerflow.evaluate_loss"),
            "conic.solve_conic_ms": median(dur, "conic.solve_conic", 1e3),
            "conic.iterations_per_solve": mean_kept("conic.solve_conic"),
            "conic.self_ms": median(self_t, "conic.solve_conic", 1e3),
            "conic.max_step_us": median(dur, "conic.max_step", 1e6),
            "conic.min_eig_us": median(dur, "conic.min_eig", 1e6),
            "conic.jordan_prod_us": median(dur, "conic.jordan_prod", 1e6),
            "conic.jordan_div_us": median(dur, "conic.jordan_div", 1e6),
            "baseline.solve_baseline_self_ms": median(self_t, "baseline.solve_baseline", 1e3),
            "baseline.conic_solves_per_call":
                len(dur["conic.solve_conic"]) / len(dur["baseline.solve_baseline"]),
        }
