"""Span recording for traced benchmark runs.

A traced program process wraps each layer's public functions *at the
name the caller resolves*: every ``repro.*`` module attribute that is
the original function object is rebound to the wrapper, so a caller
that did ``from repro.sim.sparten import simulate_sparten`` at import
time records spans too. No file under ``src/`` changes.

Spans (name, start, end, parent, run id) are held in memory and written
out when the run ends. Only the main thread records; helper threads
(the sweep's heartbeat beacon) call straight through.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: Experiment runners ``generate_report`` calls, each its own eval span.
EVAL_RUNNERS = (
    "speedup_figure",
    "breakdown_figure",
    "energy_figure",
    "gb_impact_figure",
    "fpga_figure",
    "design_goals_table",
    "asic_table",
    "headline_means",
    "generality_figure",
    "chunk_size_sweep",
    "dynamic_dispatch_ablation",
    "dataflow_figure",
    "coarse_pruning_table",
    "hpc_representation_figure",
    "double_buffer_figure",
    "rle_compute_waste_figure",
    "proxy_oracle_figure",
    "density_sensitivity_figure",
    "model_storage_figure",
)

#: (module, attribute, span name). Several functions may share a span name.
LAYER_FUNCTIONS = (
    ("repro.nets.synthesis", "synthesize_layer", "nets.synthesize"),
    ("repro.core.workload", "get_workload", "core.workload"),
    ("repro.core.workload", "get_layer_data", "core.workload"),
    ("repro.core.compare", "compare_architectures", "core.compare"),
    ("repro.sim.kernels", "compute_chunk_work", "sim.chunk_work"),
    ("repro.sim.sparten", "simulate_sparten", "sim.sparten"),
    ("repro.sim.dense", "simulate_dense", "sim.dense"),
    ("repro.sim.scnn", "simulate_scnn", "sim.scnn"),
    ("repro.sim.reduce", "reduce_scheme", "sim.reduce"),
    ("repro.sim.sweeps", "prescreened_sweep", "sim.sweeps"),
    ("repro.analytical.density", "extract_density_stats", "analytical.stats"),
    ("repro.analytical.model", "predict_layer", "analytical.predict"),
    ("repro.dist.worker", "execute_unit", "dist.unit"),
    ("repro.dist.store", "wait_for_publication", "dist.wait"),
    ("repro.cli", "main", "cli"),
    ("repro.eval.report", "generate_report", "eval.generate_report"),
    *(("repro.eval.experiments", name, f"eval.{name}") for name in EVAL_RUNNERS),
)


def _unit_status(counts, args, kwargs, status) -> None:
    counts[f"dist.units.{status}"] = counts.get(f"dist.units.{status}", 0) + 1
    if status == "computed" and kwargs.get("stolen"):
        counts["dist.units.stolen"] = counts.get("dist.units.stolen", 0) + 1


def _sweep_points(counts, args, kwargs, result) -> None:
    points = len(result["analytical"])
    counts["analytical.points"] = counts.get("analytical.points", 0) + points


#: Span name -> hook(counts, args, kwargs, return value): counts taken at
#: the same boundary as the span.
RETURN_HOOKS = {"dist.unit": _unit_status, "sim.sweeps": _sweep_points}


class Tracer:
    """In-memory span recorder for one program process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, int] = {}
        self.active = False
        self._stack: list[int] = []
        self._main = threading.main_thread().ident

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (the set-up phase)."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, start, end, parent])

    def wrap(self, fn, name: str):
        hook = RETURN_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.monotonic(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.monotonic()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function; returns the ones the program lacks."""
        missing = []
        for module_name, attr, name in LAYER_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self.wrap(original, name)
            for other_name, other in list(sys.modules.items()):
                if other is None or not other_name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
        return missing

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}


def self_times(spans: list) -> dict[str, dict]:
    """Per span name: summed self time (duration minus children), calls
    and inclusive durations."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    rows: dict[str, dict] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = rows.setdefault(name, {"s": 0.0, "calls": 0, "durations": []})
        row["s"] += end - start - child[i]
        row["calls"] += 1
        row["durations"].append(end - start)
    return rows


def covered(spans: list, entry: str | None) -> float:
    """Seconds under top-level spans; an *entry* span (the workload's own
    call) counts only through its children."""
    total = 0.0
    for name, start, end, parent in spans:
        if parent is None:
            if name != entry:
                total += end - start
        elif spans[parent][3] is None and spans[parent][0] == entry:
            total += end - start
    return total
