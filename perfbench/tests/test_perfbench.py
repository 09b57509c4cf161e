"""The benchmark's own tests: smoke runs, negative test, contract checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The smoke runs use ``--smoke`` (reduced-size inputs) and one second of
measurement; they take about two minutes in total on two cores.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args: str, cwd: pathlib.Path = ROOT, env: dict | None = None):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=env,
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert any(line.split()[:1] == [name] and line.split()[-1] == metric["unit"]
                   for line in proc.stdout.splitlines()), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_perturbed_result_makes_error_rate_positive(workload):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "1",
                 "--trace", "0", "--smoke", "--perturb")
    result = result_line(proc)
    assert result["failed"] > 0
    assert not result["correct"]


def test_inherited_repro_variables_do_not_reach_the_program():
    env = dict(os.environ, REPRO_NO_NATIVE="1", REPRO_JOBS="2")
    proc = bench("--workload", "vggnet_exact", "--seed", "0", "--seconds", "1",
                 "--trace", "0", "--smoke", env=env)
    assert result_line(proc)["correct"]
    assert "native=True" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "vggnet_exact", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_self_time_and_coverage():
    spans = [
        ["eval.speedup_figure", 0.0, 10.0, None],
        ["core.compare", 1.0, 9.0, 0],
        ["sim.sparten", 2.0, 5.0, 1],
        ["sim.reduce", 3.0, 4.0, 2],
    ]
    rows = tracing.self_times(spans)
    assert rows["core.compare"]["s"] == pytest.approx(5.0)
    assert rows["sim.sparten"]["s"] == pytest.approx(2.0)
    assert rows["sim.reduce"]["calls"] == 1
    assert tracing.covered(spans, entry="eval.speedup_figure") == pytest.approx(8.0)
    assert tracing.covered(spans, entry=None) == pytest.approx(10.0)
