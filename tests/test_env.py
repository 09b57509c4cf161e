"""The ``REPRO_*`` knob inventory and the unknown-variable warning.

:data:`repro.core.env.KNOBS` must name every ``REPRO_*`` variable the
package reads, each documented in ARCHITECTURE.md; any other
``REPRO_*`` name in the environment (a retired knob, a typo) warns once.
"""

from __future__ import annotations

import pathlib
import re

from repro.core import env

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: ``REPRO_*`` tokens in src/ that are not environment variables: the
#: native kernel's C preprocessor macro.
NOT_KNOBS = {"REPRO_AVX512_POPCNT"}


def _unknown_warnings(err: str, name: str) -> int:
    return len(
        re.findall(rf"unknown environment variable .*var={name}$", err, re.M)
    )


def test_unknown_names_warn_once_each(monkeypatch, capsys):
    monkeypatch.setattr(env, "_warned", set())
    monkeypatch.setattr(env, "_scanned", False)
    monkeypatch.setenv("REPRO_PROFILE", "off")  # retired
    monkeypatch.setenv("REPRO_FIDELTY", "trace")  # misspelled
    monkeypatch.setenv("REPRO_JOBS", "1")  # known
    capsys.readouterr()
    assert env.env_int("REPRO_JOBS", 1) == 1  # the first read scans
    assert env.env_int("REPRO_JOBS", 1) == 1
    env.warn_unknown_knobs()
    err = capsys.readouterr().err
    assert _unknown_warnings(err, "REPRO_PROFILE") == 1
    assert _unknown_warnings(err, "REPRO_FIDELTY") == 1
    assert _unknown_warnings(err, "REPRO_JOBS") == 0


def test_inventory_covers_every_name_src_reads():
    read = set()
    for path in (ROOT / "src").rglob("*.py"):
        read |= set(re.findall(r"REPRO_[A-Z0-9_]+", path.read_text()))
    assert read - NOT_KNOBS == set(env.KNOBS)
    assert len(env.KNOBS) == len(set(env.KNOBS)) <= 26


def test_architecture_documents_every_knob():
    text = (ROOT / "ARCHITECTURE.md").read_text()
    assert [name for name in env.KNOBS if f"`{name}`" not in text] == []
