"""CI gate: validate an event stream against its run manifest.

Usage::

    python benchmarks/check_events.py EVENTS.jsonl MANIFEST.json [--allow-gaps]

Checks, in order:

1. the stream is non-empty and every record is schema-valid
   (:func:`repro.telemetry.events.validate_events`: required keys,
   schema version ``repro-events/2``, unique ``(pid, seq)``, per-pid
   timestamp order, per-pid contiguity),
2. the stream covers the run lifecycle (``run.start`` and the
   ``run.end`` record that closes the parent's counter window both
   exist) and holds no per-increment ``counter``/``gauge`` records,
3. the counter totals carried by the window-closing records reconcile
   **exactly** with the manifest's ``counters`` section -- the proof
   that no event was lost or duplicated across the worker merge,
4. the manifest's ``events`` section points back at the stream.

``--allow-gaps`` relaxes the per-pid sequence contiguity check for
chaos runs, where discarded attempts legitimately consume sequence
numbers. Exits 0 on success, 1 on any failure.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry import events  # noqa: E402


def main(argv: list[str]) -> int:
    args = [a for a in argv if not a.startswith("--")]
    allow_gaps = "--allow-gaps" in argv
    if len(args) != 2:
        print("usage: check_events.py EVENTS.jsonl MANIFEST.json [--allow-gaps]")
        return 2
    events_path, manifest_path = args

    try:
        records = events.read_events(events_path)
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read event stream: {exc}")
        return 1
    if not records:
        print(f"FAIL: event stream {events_path} is empty")
        return 1

    try:
        summary = events.validate_events(records, allow_gaps=allow_gaps)
    except ValueError as exc:
        print(f"FAIL: stream invariant violated: {exc}")
        return 1
    print(
        f"OK: {summary['records']} events from {len(summary['pids'])} process(es), "
        f"kinds: {sorted(summary['kinds'])}"
    )

    for kind in ("run.start", "run.end"):
        if not summary["kinds"].get(kind):
            print(f"FAIL: stream has no {kind} record")
            return 1
    mirrors = sorted(k for k in ("counter", "gauge") if summary["kinds"].get(k))
    if mirrors:
        print(f"FAIL: stream holds per-increment {mirrors} records")
        return 1

    try:
        manifest = json.loads(pathlib.Path(manifest_path).read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read manifest: {exc}")
        return 1

    stream_totals = events.counter_totals(records)
    manifest_counters = {
        k: float(v) for k, v in (manifest.get("counters") or {}).items()
    }
    bad = {
        name: (stream_totals.get(name, 0.0), manifest_counters.get(name, 0.0))
        for name in set(stream_totals) | set(manifest_counters)
        if abs(stream_totals.get(name, 0.0) - manifest_counters.get(name, 0.0))
        > 1e-9
    }
    if bad:
        print(f"FAIL: {len(bad)} counter(s) do not reconcile with the manifest:")
        for name in sorted(bad):
            stream, man = bad[name]
            print(f"  {name}: stream={stream} manifest={man}")
        return 1
    print(f"OK: {len(manifest_counters)} counters reconcile exactly")

    described = (manifest.get("events") or {}).get("path")
    if not described:
        print("FAIL: manifest has no events section (schema too old?)")
        return 1
    print(f"OK: manifest records event log {described}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
