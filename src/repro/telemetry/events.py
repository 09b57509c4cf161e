"""Schema-versioned JSONL event stream (``REPRO_EVENTS=path``).

Manifests and counters summarise a run after the fact; the event stream
is the run *as it happens*: one JSON object per line, appended to the
file named by ``REPRO_EVENTS``, emitted from the pipeline, the sweeps,
the resilience machinery (retry / timeout / fault / quarantine), the
cache, and the doctor. Every record carries the stream schema version,
a wall-clock timestamp, the emitting pid and a per-process sequence
number, so merged streams can be validated for lost or duplicated
events.

Counters are not written line by line. A **window-closing record**
(``run.end``, ``dist.unit``, ``pool.item``; see
:func:`repro.telemetry.close_window`) carries, as its ``counters``
field, every increment its process made since the previous closing
record. :func:`counter_totals` sums those fields, which is what makes a
stream reconcile *exactly* with the manifest's counter dump.

Cross-process behaviour mirrors the telemetry snapshots: a pool worker
never appends to the main file. Each item attempt holds its records in
memory (:func:`capture`); the list rides back to the parent inside the
telemetry snapshot, next to the counters it closes, and the parent adds
it to the main stream (:func:`append`) only when it keeps the attempt.
A discarded attempt (retried failure, abandoned timeout) loses its
records with its snapshot. The main file is append-only and ordered per
pid, not globally by timestamp; readers that want one global order use
:func:`repro.telemetry.aggregate.merge_event_streams`.

Everything here is inert unless ``REPRO_EVENTS`` is set: the fast path
of :func:`emit` is a single environment lookup.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any

__all__ = [
    "EVENTS_SCHEMA",
    "emit",
    "enabled",
    "events_path",
    "current_seq",
    "start_run",
    "describe",
    "capture",
    "append",
    "read_events",
    "validate_events",
    "counter_totals",
]

#: Event-stream schema version (bumped on incompatible record changes).
EVENTS_SCHEMA = "repro-events/2"

#: Record keys every event must carry (validated by :func:`validate_events`).
REQUIRED_KEYS = ("schema", "ts", "pid", "seq", "kind")

_lock = threading.RLock()
_seq = 0  # per-process, monotone across attempts (dedup identity)
_sink_path: str | None = None  # path the open handle points at
_sink_file = None
_captured: list[dict] | None = None  # pool worker: records held for the parent
_emitted_main = 0  # records in the main file owed to this process (incl. merges)


def events_path() -> str | None:
    """The main stream path from ``REPRO_EVENTS`` (None = disabled)."""
    path = os.environ.get("REPRO_EVENTS")
    return path if path else None


def enabled() -> bool:
    """Whether the event stream is on."""
    return events_path() is not None


def _close_locked() -> None:
    global _sink_file, _sink_path
    if _sink_file is not None:
        try:
            _sink_file.close()
        except OSError:
            pass
    _sink_file = None
    _sink_path = None


def _write_locked(path: str, records: list[dict]) -> bool:
    """Append *records* to *path*, or hold them while capturing."""
    global _sink_file, _sink_path, _emitted_main
    if _captured is not None:
        _captured.extend(records)
        return True
    try:
        if _sink_file is None or _sink_path != path:
            _close_locked()
            pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
            _sink_file = open(path, "a", encoding="utf-8")
            _sink_path = path
        for record in records:
            _sink_file.write(json.dumps(record, sort_keys=True) + "\n")
        _sink_file.flush()  # line-granular durability: a crash loses nothing
    except OSError:
        return False  # the stream is best-effort, never costs a run
    _emitted_main += len(records)
    return True


def _jsonable(value: Any):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def emit(kind: str, name: str | None = None, value: float | None = None, **fields) -> bool:
    """Append one event record; returns whether anything was written.

    A no-op (one env lookup) when the stream is off. *fields* are
    coerced to JSON-safe values, so span attributes and paths can be
    passed directly.
    """
    global _seq
    path = events_path()
    if path is None:
        return False
    with _lock:
        record: dict = {
            "schema": EVENTS_SCHEMA,
            "ts": time.time(),
            "pid": os.getpid(),
            "seq": _seq,
            "kind": str(kind),
        }
        _seq += 1
        if name is not None:
            record["name"] = str(name)
        if value is not None:
            record["value"] = float(value)
        for key, val in fields.items():
            if key not in record:
                record[key] = _jsonable(val)
        shard = os.environ.get("REPRO_SHARD")
        if shard and "shard" not in record:
            # Shard identity rides on every record so per-shard slices
            # of a merged multi-worker stream reconcile to sweep totals.
            record["shard"] = shard
        return _write_locked(path, [record])


def current_seq() -> int:
    """This process's next event sequence number.

    Monotone across attempts, so a health heartbeat recording it
    tells a post-mortem reader how far the worker's stream had advanced
    when the heartbeat was written.
    """
    with _lock:
        return _seq


def start_run(**fields) -> None:
    """Open a fresh stream window: truncate the main file, mark the start.

    Called next to ``telemetry.reset()`` so the stream covers exactly
    the same measurement window as the manifest's counters -- that
    alignment is what makes the reconciliation check exact.
    """
    global _emitted_main
    path = events_path()
    if path is None:
        return
    with _lock:
        _close_locked()
        pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
        open(path, "w", encoding="utf-8").close()
        _emitted_main = 0
    emit("run.start", **fields)


def describe() -> dict | None:
    """The manifest's ``events`` section: path, schema, emitted count."""
    path = events_path()
    if path is None:
        return None
    with _lock:
        return {"path": path, "schema": EVENTS_SCHEMA, "emitted": _emitted_main}


# -- pool workers -------------------------------------------------------------


def capture() -> list[dict]:
    """Hold this process's records in a fresh list instead of the file.

    A pool worker calls this at the start of every item attempt and
    returns the list inside the attempt's telemetry snapshot; from the
    first call on, the worker never touches the main file.
    """
    global _captured
    with _lock:
        _close_locked()
        _captured = []
        return _captured


def append(records: list[dict]) -> None:
    """Add another process's records to this process's stream unchanged.

    The parent calls this (through ``telemetry.merge``) for every kept
    worker snapshot; the records keep the worker's own ``pid``/``seq``.
    """
    path = events_path()
    if path is None or not records:
        return
    with _lock:
        _write_locked(path, records)


# -- reading / validation ---------------------------------------------------


def read_events(path: str | os.PathLike) -> list[dict]:
    """Parse one JSONL stream file into a list of record dicts.

    Raises ``OSError`` if the file cannot be read and ``ValueError`` on
    a line that is not a JSON object.
    """
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record is not an object")
            records.append(record)
    return records


def validate_events(records: list[dict], allow_gaps: bool = False) -> dict:
    """Check stream invariants; raises ``ValueError`` on any violation.

    Every record must carry the required keys and the supported schema
    version; ``(pid, seq)`` must be unique (no duplicated events) and
    ``seq`` gap-free per pid over the records that pid contributed (no
    lost events); each pid's ``(ts, seq)`` must be non-decreasing in its
    own emission order. Ordering is deliberately *not* enforced across
    pids: workers on different hosts (or across an NTP step) have
    skewed wall clocks, so equal or backward timestamps between
    processes are normal, and worker records land in the main file at
    pool join rather than in timestamp order --
    :func:`repro.telemetry.aggregate.merge_event_streams` gives readers
    one stable ``(ts, pid, seq)`` order.
    *allow_gaps* relaxes the per-pid contiguity check for runs with
    injected faults, where discarded attempts legitimately consume
    sequence numbers whose records are never merged.
    Returns a summary ``{"records": n, "pids": [...], "kinds": {...}}``.
    """
    seen: set[tuple[int, int]] = set()
    per_pid: dict[int, list[int]] = {}
    kinds: dict[str, int] = {}
    last_by_pid: dict[int, tuple[float, int]] = {}
    for i, record in enumerate(records):
        for key in REQUIRED_KEYS:
            if key not in record:
                raise ValueError(f"record {i}: missing required key {key!r}")
        if record["schema"] != EVENTS_SCHEMA:
            raise ValueError(
                f"record {i}: schema {record['schema']!r} != {EVENTS_SCHEMA!r}"
            )
        ident = (int(record["pid"]), int(record["seq"]))
        if ident in seen:
            raise ValueError(f"record {i}: duplicated event (pid, seq)={ident}")
        seen.add(ident)
        per_pid.setdefault(ident[0], []).append(ident[1])
        kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
        mark = (float(record["ts"]), ident[1])
        last = last_by_pid.get(ident[0])
        if last is not None and mark < last:
            raise ValueError(
                f"record {i}: pid {ident[0]} timestamp regressed "
                f"({mark} < {last})"
            )
        last_by_pid[ident[0]] = mark
    if not allow_gaps:
        for pid, seqs in per_pid.items():
            expected = set(range(min(seqs), min(seqs) + len(seqs)))
            if set(seqs) != expected:
                missing = sorted(expected - set(seqs))[:5]
                raise ValueError(f"pid {pid}: lost events (missing seq {missing} ...)")
    return {"records": len(records), "pids": sorted(per_pid), "kinds": kinds}


def counter_totals(records: list[dict]) -> dict[str, float]:
    """Sum the closing records' ``counters`` fields: ``{name: total}``.

    This is the stream-side of the reconciliation invariant: for a run
    whose stream window matches its telemetry window and ends in
    ``run.end``, these totals equal the manifest's ``counters`` section
    exactly.
    """
    totals: dict[str, float] = {}
    for record in records:
        for name, value in (record.get("counters") or {}).items():
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals
