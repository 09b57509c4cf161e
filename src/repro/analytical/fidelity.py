"""The fidelity ladder: ``analytical -> cycles -> counters -> timeline -> trace``.

Every per-layer question in the repo can be answered at five costs:

- ``analytical``  -- closed-form prediction from density statistics
  (:mod:`repro.analytical.model`), validated against the simulators by
  :mod:`repro.analytical.validate`; carries counters.
- ``cycles``      -- the cycle-level simulators with no hardware
  counters (the fast path for headline figure regeneration).
- ``counters``    -- cycles plus per-cluster hardware counters (the
  default).
- ``timeline``    -- counters plus binned per-cluster cycle timelines.
- ``trace``       -- timeline plus an event-level memory-system trace of
  the busiest cluster through the double-buffered front end
  (:mod:`repro.sim.trace`), attached under ``extras['trace_*']``.

This is the only simulation-depth setting: the simulators' counter
depth (:func:`repro.profiling.profile_mode`) is derived from the level.
Each rung returns the same :class:`~repro.sim.results.LayerResult`
schema, so callers (sweeps, the pipeline, the CLI) choose cost without
changing shape. The level resolves, in order, from an explicit
``fidelity=`` argument, the innermost :func:`fidelity_scope`, then the
``REPRO_FIDELITY`` environment variable. Scopes are ``contextvars``, so
nothing rewrites the process environment; :func:`repro.core.parallel.
parallel_map` carries the level to its workers. Results memoise through
the content-hash result cache with fidelity-qualified kinds, so
mixed-level runs never serve one rung's result to another.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import replace
from typing import Iterator

from repro import telemetry
from repro.analytical.model import ANALYTICAL_SCHEMES, predict_layer
from repro.core.env import env_choice
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig
from repro.sim.results import LayerResult

__all__ = [
    "FIDELITY_LEVELS",
    "DEFAULT_FIDELITY",
    "fidelity_level",
    "fidelity_scope",
    "fidelity_result_key",
    "simulate_at_fidelity",
]

#: The ladder, cheapest first. Each cycle-level rung subsumes the one
#: before it; ``analytical`` never runs the cycle-level machine.
FIDELITY_LEVELS = ("analytical", "cycles", "counters", "timeline", "trace")
DEFAULT_FIDELITY = "counters"

#: Schemes whose chunk-count streams the trace front end understands.
_TRACEABLE = ("one_sided", "sparten_no_gb", "sparten_gb_s", "sparten")

_SCOPED: ContextVar[str | None] = ContextVar("repro_fidelity", default=None)


def fidelity_level(explicit: str | None = None) -> str:
    """Resolve the active fidelity level.

    An explicit argument wins; then the innermost :func:`fidelity_scope`;
    then ``REPRO_FIDELITY`` (validated, warn-once on garbage) with the
    default ``counters``.
    """
    if explicit is not None:
        if explicit not in FIDELITY_LEVELS:
            raise ValueError(
                f"fidelity must be one of {FIDELITY_LEVELS}, got {explicit!r}"
            )
        return explicit
    scoped = _SCOPED.get()
    if scoped is not None:
        return scoped
    return env_choice("REPRO_FIDELITY", DEFAULT_FIDELITY, FIDELITY_LEVELS)


@contextmanager
def fidelity_scope(level: str | None = None) -> Iterator[str]:
    """Run the enclosed block at *level* (default: the resolved level).

    Yields the level in force. Nested scopes shadow outer ones and the
    previous level is restored on exit.
    """
    level = fidelity_level(level)
    token = _SCOPED.set(level)
    try:
        yield level
    finally:
        _SCOPED.reset(token)


def _result_kind(scheme: str, level: str) -> str:
    """The result-memo kind *scheme* publishes under at *level*."""
    if level == "analytical":
        return f"analytical:{scheme}"
    if level == "trace" and scheme in _TRACEABLE:
        return f"trace:{scheme}"
    return scheme


def fidelity_result_key(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    fidelity: str | None = None,
) -> tuple:
    """The memo key :func:`simulate_at_fidelity` publishes under.

    The key depends on the counter depth the level implies, so it is
    computed inside the same scope as the simulation. Distributed
    workers use this to locate a unit's checkpoint-journal entry
    without running anything -- it must stay in lockstep with
    :func:`simulate_at_fidelity`.
    """
    from repro.core import workload

    with fidelity_scope(fidelity) as level:
        return workload.result_key(_result_kind(scheme, level), spec, cfg, seed)


def _attach_trace(
    result: LayerResult, spec: ConvLayerSpec, cfg: HardwareConfig, seed: int
) -> LayerResult:
    """Run the busiest cluster's chunk stream through the trace model."""
    from repro.core import workload
    from repro.sim.trace import DoubleBufferedCluster

    data, work = workload.get_workload(spec, cfg, seed, need_counts=True)
    bandwidth = cfg.memory_bytes_per_cycle or 16.0
    trace = DoubleBufferedCluster(
        bytes_per_cycle=bandwidth, fetch_latency=20
    ).run_layer(data, cfg, work=work)
    return replace(
        result,
        extras={
            **result.extras,
            "trace_total_cycles": float(trace.total_cycles),
            "trace_compute_cycles": float(trace.compute_cycles),
            "trace_stall_cycles": float(trace.stall_cycles),
            "trace_hiding_efficiency": float(trace.hiding_efficiency),
        },
    )


def simulate_at_fidelity(
    scheme: str,
    spec: ConvLayerSpec,
    cfg: HardwareConfig,
    seed: int = 0,
    fidelity: str | None = None,
) -> LayerResult:
    """One scheme on one layer at the chosen fidelity level.

    Every level returns a :class:`LayerResult` (same schema); results
    memoise by content key with a fidelity-qualified kind. The trace
    rung applies to the chunk-streaming schemes (:data:`_TRACEABLE`);
    for the others it degrades to ``timeline`` (the trace front end has
    no chunk-stream model of dense or SCNN).
    """
    from repro.core import compare, workload

    with fidelity_scope(fidelity) as level:
        telemetry.count(f"fidelity.{level}.layers")
        kind = _result_kind(scheme, level)
        if kind == scheme:
            return compare.run_scheme_cached(scheme, spec, cfg, seed)
        if level == "analytical" and scheme not in ANALYTICAL_SCHEMES:
            raise ValueError(
                f"scheme {scheme!r} has no analytical model "
                f"(have {ANALYTICAL_SCHEMES})"
            )
        key = workload.result_key(kind, spec, cfg, seed)
        result = workload.lookup_result(key)
        if result is None:
            if level == "analytical":
                result = predict_layer(spec, cfg, scheme=scheme, seed=seed)
            else:
                result = _attach_trace(
                    compare.run_scheme_cached(scheme, spec, cfg, seed),
                    spec,
                    cfg,
                    seed,
                )
            workload.store_result(key, result)
        return result
