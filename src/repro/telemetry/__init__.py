"""Observability for the experiment engine: spans, counters, manifests.

One dependency-free layer every expensive path reports into:

- :mod:`repro.telemetry.recorder` -- nestable :func:`span`\\ s with
  attributes, accumulating :func:`count`\\ ers and :func:`gauge`\\ s, and
  picklable :func:`snapshot`\\ s that :func:`merge` across processes (how
  timing survives ``REPRO_JOBS>1``).
- :mod:`repro.telemetry.trace` -- Chrome ``trace_event`` JSON export
  (``chrome://tracing`` / Perfetto).
- :mod:`repro.telemetry.manifest` -- self-describing ``manifest.json``
  records (git SHA, versions, env knobs, config hash, stage totals,
  counter dump) written next to run outputs; ``repro stats`` renders
  them.
- :mod:`repro.telemetry.log` -- the ``REPRO_LOG_LEVEL``-controlled
  structured logger library code uses instead of ``print()``
  (``REPRO_LOG_FORMAT=json`` for machine-readable stderr).
- :mod:`repro.telemetry.events` -- the schema-versioned JSONL event
  stream (``REPRO_EVENTS=path``): cache decisions, retries, faults and
  lifecycle transitions as appended lines; counter increments ride on
  the record that closes their window (:func:`close_window`), and pool
  workers' records ride home in their telemetry snapshots.
- :mod:`repro.telemetry.metrics` -- Prometheus text-exposition rendering
  of the counters/gauges/spans (``repro stats --prometheus``) and the
  ``REPRO_METRICS`` periodic snapshotter.
- :mod:`repro.telemetry.progress` -- the ``REPRO_PROGRESS`` live
  progress renderer (in-place on a TTY, heartbeat lines otherwise).

Recording never influences simulation results: a telemetry-disabled run
produces byte-identical figures.
"""

from repro.telemetry import events
from repro.telemetry.events import (
    EVENTS_SCHEMA,
    counter_totals,
    emit,
    read_events,
    validate_events,
)
from repro.telemetry.log import get_logger, kv
from repro.telemetry.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    config_hash,
    read_manifest,
    render_manifest,
    write_manifest,
)
from repro.telemetry.metrics import (
    MetricsSnapshotter,
    parse_prometheus,
    prometheus_from_manifest,
    prometheus_text,
    write_metrics_snapshot,
)
from repro.telemetry.progress import ProgressRenderer
from repro.telemetry.recorder import (
    SNAPSHOT_SCHEMA,
    Recorder,
    close_window,
    count,
    current_span_id,
    gauge,
    get_recorder,
    merge,
    reset,
    set_trace_parent,
    snapshot,
    span,
)
from repro.telemetry.trace import chrome_trace, write_chrome_trace

__all__ = [
    "Recorder",
    "SNAPSHOT_SCHEMA",
    "span",
    "count",
    "gauge",
    "snapshot",
    "merge",
    "reset",
    "close_window",
    "get_recorder",
    "current_span_id",
    "set_trace_parent",
    "chrome_trace",
    "write_chrome_trace",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "config_hash",
    "write_manifest",
    "read_manifest",
    "render_manifest",
    "get_logger",
    "kv",
    "events",
    "EVENTS_SCHEMA",
    "emit",
    "read_events",
    "validate_events",
    "counter_totals",
    "MetricsSnapshotter",
    "prometheus_text",
    "prometheus_from_manifest",
    "parse_prometheus",
    "write_metrics_snapshot",
    "ProgressRenderer",
]
