"""Validated ``REPRO_*`` environment parsing with loud fallbacks.

Every knob the engine reads from the environment funnels through here so
an invalid value (``REPRO_JOBS=abc``, ``REPRO_CACHE_BYTES=-1``) produces
one structured warning naming the variable and the value actually used,
instead of being silently coerced to a default. Negative values are
clamped explicitly rather than wrapping into surprising behaviour.

Each (variable, raw value) pair warns at most once per process, so a hot
path that re-reads its knob on every call (``default_jobs`` under a
layer fan-out) does not flood stderr.

:data:`KNOBS` is the inventory of every ``REPRO_*`` variable the package
reads. The first read through these helpers also warns, once per name,
about any ``REPRO_*`` variable in the environment that is not in it --
a retired knob or a typo that would otherwise silently do nothing.
"""

from __future__ import annotations

import os
import threading

from repro import telemetry

__all__ = ["KNOBS", "env_int", "env_float", "env_choice", "warn_unknown_knobs"]

#: Every ``REPRO_*`` environment variable the package reads.
KNOBS = (
    "REPRO_CACHE_BYTES",
    "REPRO_CACHE_DIR",
    "REPRO_CHECKPOINT_DIR",
    "REPRO_CLAIM_POLL",
    "REPRO_CLAIM_TTL",
    "REPRO_EVENTS",
    "REPRO_FAULT",
    "REPRO_FAULT_SEED",
    "REPRO_FAULT_SLEEP",
    "REPRO_FIDELITY",
    "REPRO_FUSE",
    "REPRO_HEALTH_INTERVAL",
    "REPRO_ITEM_TIMEOUT",
    "REPRO_JOBS",
    "REPRO_LOG_FORMAT",
    "REPRO_LOG_LEVEL",
    "REPRO_METRICS",
    "REPRO_METRICS_INTERVAL",
    "REPRO_NATIVE_DIR",
    "REPRO_NO_NATIVE",
    "REPRO_PROGRESS",
    "REPRO_RETRIES",
    "REPRO_RETRY_BACKOFF",
    "REPRO_SHARD",
    "REPRO_SINGLE_FLIGHT",
    "REPRO_WORKER_ID",
)

_log = telemetry.get_logger("env")
_warned: set[tuple[str, str, str]] = set()
_warned_lock = threading.Lock()
_scanned = False


def _warn_once(name: str, raw: str, used, reason: str) -> None:
    key = (name, raw, reason)
    with _warned_lock:
        if key in _warned:
            return
        _warned.add(key)
    telemetry.count("env.invalid")
    _log.warning(
        "invalid environment value %s",
        telemetry.kv(var=name, value=raw, reason=reason, using=used),
    )


def warn_unknown_knobs() -> None:
    """Warn once per name about ``REPRO_*`` variables not in :data:`KNOBS`."""
    global _scanned
    _scanned = True
    for name in sorted(os.environ):
        if not name.startswith("REPRO_") or name in KNOBS:
            continue
        with _warned_lock:
            if (name, "", "unknown") in _warned:
                continue
            _warned.add((name, "", "unknown"))
        _log.warning(
            "unknown environment variable %s",
            telemetry.kv(var=name, value=os.environ[name], effect="ignored"),
        )


def _read(name: str) -> str | None:
    if not _scanned:
        warn_unknown_knobs()
    return os.environ.get(name)


def env_int(name: str, default: int, minimum: int | None = None) -> int:
    """``int(os.environ[name])`` with a structured warning on bad input.

    Unset (or empty) returns *default*; a non-integer value warns and
    returns *default*; a value below *minimum* warns and clamps.
    """
    raw = _read(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_once(name, raw, default, "not an integer")
        return default
    if minimum is not None and value < minimum:
        _warn_once(name, raw, minimum, f"below minimum {minimum}")
        return minimum
    return value


def env_choice(name: str, default: str, choices: tuple[str, ...]) -> str:
    """``os.environ[name]`` restricted to *choices* (case-insensitive).

    Unset (or empty) returns *default*; anything outside *choices* warns
    once and returns *default*.
    """
    raw = _read(name)
    if raw is None or not raw.strip():
        return default
    value = raw.strip().lower()
    if value not in choices:
        _warn_once(name, raw, default, f"not one of {'/'.join(choices)}")
        return default
    return value


def env_float(name: str, default: float, minimum: float | None = None) -> float:
    """``float(os.environ[name])`` with the same warn-and-clamp contract."""
    raw = _read(name)
    if raw is None or not raw.strip():
        return default
    try:
        value = float(raw)
    except ValueError:
        _warn_once(name, raw, default, "not a number")
        return default
    if minimum is not None and value < minimum:
        _warn_once(name, raw, minimum, f"below minimum {minimum}")
        return minimum
    return value
