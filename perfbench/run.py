"""Benchmark driver: run one workload from cold, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vggnet_exact --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``). The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Each iteration starts fresh program processes (``program.py``), so every
iteration is cold; iterations repeat until ``--seconds`` have passed and
the metrics are medians over them. The driver never imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracing import EVAL_RUNNERS, covered, self_times

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("vggnet_exact", "report_fast", "sweep_2shard", "dse_prescreen")

#: Fresh interpreters whose set-up time is pooled into ``setup_s``.
SETUP_SAMPLES = 5

#: Seconds after start by which the run must have finished.
DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers whose self time (``.s``) is reported; those marked also report calls.
TIMED_LAYERS = {
    "nets.synthesize": True,
    "core.workload": False,
    "core.compare": False,
    "sim.chunk_work": True,
    "sim.sparten": True,
    "sim.dense": True,
    "sim.scnn": True,
    "sim.reduce": True,
    "sim.sweeps": False,
    "analytical.stats": False,
    "analytical.predict": False,
    "dist.wait": False,
}

EVAL_SPANS = ("generate_report", *EVAL_RUNNERS)


def _per_layer_units() -> dict[str, str]:
    units = {"setup.import_s": "s", "setup.native_s": "s"}
    for layer, with_calls in TIMED_LAYERS.items():
        units[f"{layer}.s"] = "s"
        if with_calls:
            units[f"{layer}.calls"] = "count"
    units.update({
        "core.workload.hit_rate": "ratio",
        "core.workload.disk_hits": "count",
        "core.result.hit_rate": "ratio",
        "core.workload.mb": "MB",
        "analytical.points": "count",
    })
    units.update({f"eval.{name}.s": "s" for name in EVAL_SPANS})
    units["eval.self_s"] = "s"
    units.update({
        "dist.unit.p50_ms": "ms",
        "dist.unit.p90_ms": "ms",
        "dist.unit.samples": "count",
        "dist.units.computed": "count",
        "dist.units.skipped": "count",
        "dist.units.deferred": "count",
        "dist.units.stolen": "count",
        "dist.computed_frac": "ratio",
        "dist.store.cache_mb": "MB",
        "dist.store.journal_mb": "MB",
        "dist.store.telemetry_mb": "MB",
        "telemetry.event_lines": "count",
        "disk_mb": "MB",
        "trace.coverage": "ratio",
        "trace.overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()

#: Store-usage metrics, zero for workloads that keep no store.
STORE_METRICS = ("dist.store.cache_mb", "dist.store.journal_mb",
                 "dist.store.telemetry_mb", "telemetry.event_lines")


class ProgramFailed(RuntimeError):
    """A program process crashed, timed out or wrote no record."""


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Driver:
    """One benchmark run: isolated environment, iterations, checks."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        self.run_dir = WORK / "runs" / self.run_id
        self.counter = 0
        self.setup_samples: list[float] = []
        self.import_samples: list[float] = []
        self.native_samples: list[float] = []
        self.env_info: dict = {}

    # -- processes -----------------------------------------------------------

    def env(self, tmp: pathlib.Path) -> dict:
        """Inherited environment without REPRO_*, pointed at this checkout."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PERFBENCH_ROOT": str(ROOT),
            "REPRO_NATIVE_DIR": str(WORK / "native"),
            "TMPDIR": str(tmp),
            "XDG_CACHE_HOME": str(WORK / "xdg-cache"),
        })
        return env

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, tmp: pathlib.Path, *extra: str) -> subprocess.Popen:
        self.counter += 1
        out = self.run_dir / f"record-{self.counter}.json"
        log = open(self.run_dir / f"log-{self.counter}.txt", "w")
        cmd = [sys.executable, str(HERE / "program.py"), "--out", str(out),
               "--tmp", str(tmp), "--seed", str(self.args.seed),
               "--run-id", self.run_id, *extra]
        if self.args.smoke:
            cmd.append("--smoke")
        if self.args.perturb:
            cmd.append("--perturb")
        try:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env(tmp),
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
        finally:
            log.close()
        proc.record_path = out
        proc.log_path = self.run_dir / f"log-{self.counter}.txt"
        return proc

    def collect(self, proc: subprocess.Popen) -> dict:
        """Wait for *proc* within the deadline and return its record."""
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise ProgramFailed("timed out") from None
        if code != 0 or not proc.record_path.exists():
            tail = proc.log_path.read_text(errors="replace")[-2000:]
            raise ProgramFailed(f"exit code {code}:\n{tail}")
        record = json.loads(proc.record_path.read_text())
        self.note_env(record)
        return record

    def collect_all(self, procs: list[subprocess.Popen]) -> list[dict]:
        try:
            return [self.collect(p) for p in procs]
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()

    def note_env(self, record: dict) -> None:
        self.env_info = {k: record[k] for k in ("python", "numpy", "native")}

    def pool_setup(self, records: list[dict]) -> None:
        """The slower process of one launch is one set-up sample."""
        slowest = max(records, key=lambda r: r["setup_s"])
        self.setup_samples.append(slowest["setup_s"])
        self.import_samples.append(slowest["import_s"])
        self.native_samples.append(slowest["native_s"])

    def fresh_tmp(self) -> pathlib.Path:
        tmp = self.run_dir / f"tmp-{self.counter + 1}"
        tmp.mkdir(parents=True)
        return tmp

    # -- iterations ----------------------------------------------------------

    def probe(self) -> None:
        """Set-up only, in as many concurrent processes as the workload uses."""
        tmp = self.fresh_tmp()
        width = 2 if self.args.workload == "sweep_2shard" else 1
        procs = [self.spawn(tmp, "--probe") for _ in range(width)]
        self.pool_setup(self.collect_all(procs))
        shutil.rmtree(tmp)

    def iteration(self, traced: bool) -> dict:
        if self.args.workload == "sweep_2shard":
            return self.sweep_iteration(traced)
        tmp = self.fresh_tmp()
        extra = ["--workload", self.args.workload] + (["--trace"] if traced else [])
        proc = self.spawn(tmp, *extra)
        (record,) = self.collect_all([proc])
        self.pool_setup([record])
        record["disk_mb"] = dir_bytes(tmp) / 1e6
        shutil.rmtree(tmp)
        if traced:
            trace = record["trace"]
            record["traces"] = [trace]
            record["lifetimes"] = [trace["window"][1] - trace["window"][0]]
        return record

    def sweep_iteration(self, traced: bool) -> dict:
        tmp = self.fresh_tmp()
        store = tmp / "store"
        extra = ["--store", str(store)] + (["--trace"] if traced else [])
        cpu0 = children_cpu()
        launched = time.monotonic()
        procs = [self.spawn(tmp, "--shard", f"{i}/2", *extra) for i in range(2)]
        shards = self.collect_all(procs)
        wall = time.monotonic() - launched
        cpu = children_cpu() - cpu0
        self.pool_setup(shards)
        if any(s["exit_code"] != 0 for s in shards):
            raise ProgramFailed(f"shard exit codes {[s['exit_code'] for s in shards]}")
        (check,) = self.collect_all([self.spawn(tmp, "--check-store", str(store))])
        record = {
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": max(s["peak_rss_mb"] for s in shards),
            "checks": check["checks"],
            "digest": check["digest"],
            "paper": [],
            **check["store"],
        }
        if traced:
            record["traces"] = [s["trace"] for s in shards]
            for trace in record["traces"]:
                trace["entry"] = None
            record["lifetimes"] = [s["finished"] - launched for s in shards]
            record["cache"] = _sum_caches([s["cache"] for s in shards])
        shutil.rmtree(tmp)
        return record

    # -- the run -------------------------------------------------------------

    def run(self) -> tuple[list[dict], list[dict], int]:
        """Iterate for ``--seconds``; returns (untraced, traced, crashed)."""
        self.run_dir.mkdir(parents=True, exist_ok=True)
        # The first process in a checkout builds the native kernels and
        # the bytecode, which users pay once per machine: no sample.
        if not any((WORK / "native").glob("*.so")):
            tmp = self.fresh_tmp()
            self.collect_all([self.spawn(tmp, "--probe")])
            shutil.rmtree(tmp)
        untraced: list[dict] = []
        traced: list[dict] = []
        crashed = 0
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            try:
                plain = self.iteration(traced=False)
                if self.args.trace:
                    traced.append(self.iteration(traced=True))
                untraced.append(plain)
            except ProgramFailed as exc:
                crashed += 1
                print(f"perfbench: iteration failed: {exc}", file=sys.stderr)
            last = time.monotonic() - t0
            elapsed = time.monotonic() - begin
            if elapsed >= self.args.seconds or self.remaining() < 2 * last + 10:
                break
        while len(self.setup_samples) < SETUP_SAMPLES and self.remaining() > 10:
            try:
                self.probe()
            except ProgramFailed as exc:
                crashed += 1
                print(f"perfbench: set-up probe failed: {exc}", file=sys.stderr)
        return untraced, traced, crashed


def _sum_caches(caches: list[dict]) -> dict:
    return {
        name: {k: sum(c[name][k] for c in caches) for k in caches[0][name]}
        for name in caches[0]
    }


def _rate(cache: dict) -> float:
    total = cache["hits"] + cache["misses"]
    return cache["hits"] / total if total else 0.0


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its processes)."""
    rows: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for trace in record["traces"]:
        for name, row in self_times(trace["spans"]).items():
            into = rows.setdefault(name, {"s": 0.0, "calls": 0, "durations": []})
            into["s"] += row["s"]
            into["calls"] += row["calls"]
            into["durations"] += row["durations"]
        for name, value in trace["counts"].items():
            counts[name] = counts.get(name, 0) + value
    empty = {"s": 0.0, "calls": 0, "durations": []}
    m: dict[str, float] = {}
    for layer, with_calls in TIMED_LAYERS.items():
        m[f"{layer}.s"] = rows.get(layer, empty)["s"]
        if with_calls:
            m[f"{layer}.calls"] = rows.get(layer, empty)["calls"]
    cache = record["cache"]
    m["core.workload.hit_rate"] = _rate(cache["workloads"])
    m["core.workload.disk_hits"] = cache["workloads"]["disk_hits"]
    m["core.result.hit_rate"] = _rate(cache["results"])
    m["core.workload.mb"] = cache["workloads"]["bytes"] / 1e6
    m["analytical.points"] = counts.get("analytical.points", 0)
    for name in EVAL_SPANS:
        m[f"eval.{name}.s"] = rows.get(f"eval.{name}", empty)["s"]
    m["eval.self_s"] = sum(r["s"] for n, r in rows.items() if n.startswith("eval."))
    units = sorted(rows.get("dist.unit", empty)["durations"])
    m["dist.unit.samples"] = len(units)
    m["dist.unit.p50_ms"] = 1e3 * median(units)
    m["dist.unit.p90_ms"] = (
        1e3 * statistics.quantiles(units, n=10)[8] if len(units) >= 2
        else 1e3 * median(units)
    )
    for status in ("computed", "skipped", "deferred", "stolen"):
        m[f"dist.units.{status}"] = counts.get(f"dist.units.{status}", 0)
    m["dist.computed_frac"] = (
        m["dist.units.computed"] / len(units) if units else 0.0
    )
    for name in STORE_METRICS:
        m[name] = record.get(name, 0.0)
    m["disk_mb"] = record["disk_mb"]
    under = sum(covered(t["spans"], t["entry"]) for t in record["traces"])
    m["trace.coverage"] = under / sum(record["lifetimes"])
    return m


def summarize(driver: Driver, untraced: list[dict], traced: list[dict]) -> dict:
    metrics: dict[str, float] = {}
    if driver.args.trace:
        per_iteration = [layer_metrics(r) for r in traced]
        for name in PER_LAYER:
            metrics[name] = median([m[name] for m in per_iteration if name in m])
        metrics["setup.import_s"] = median(driver.import_samples)
        metrics["setup.native_s"] = median(driver.native_samples)
        metrics["trace.overhead_s"] = (
            median([r["wall_s"] for r in traced])
            - median([r["wall_s"] for r in untraced])
        )
        return {name: (metrics[name], unit) for name, unit in PER_LAYER.items()}
    metrics["wall_s"] = median([r["wall_s"] for r in untraced])
    metrics["setup_s"] = median(driver.setup_samples)
    metrics["cpu_s"] = median([r["cpu_s"] for r in untraced])
    metrics["peak_rss_mb"] = median([r["peak_rss_mb"] for r in untraced])
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def count_checks(untraced: list[dict], traced: list[dict], crashed: int) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures: list[str] = []
    for record in untraced + traced:
        for name, ok in record["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(name)
    for plain, with_trace in zip(untraced, traced):
        attempted += 1
        if plain["digest"] != with_trace["digest"]:
            failed += 1
            failures.append("trace/identical_statistics")
    # A crashed or timed-out iteration fails every check it would have run.
    per_iteration = max((len(r["checks"]) for r in untraced + traced), default=1)
    attempted += crashed * per_iteration
    failed += crashed * per_iteration
    return attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size inputs, for the benchmark's own tests")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one result before the checks (negative test)")
    args = parser.parse_args(argv)
    # Turn a termination request into an exception, so that every
    # program process is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    driver = Driver(args)
    try:
        untraced, traced, crashed = driver.run()
    except ProgramFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(driver.run_dir, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1

    metrics = summarize(driver, untraced, traced)
    attempted, failed, failures = count_checks(untraced, traced, crashed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **driver.env_info,
        "iterations": len(untraced),
        "setup_samples": len(driver.setup_samples),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "failures": failures,
        "untraced": [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
                     for r in untraced],
        "traces": [r["traces"] for r in traced],
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record)
    )

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(untraced)} setup_samples={len(driver.setup_samples)}")
    print(f"# git={record['git_sha']} nproc={record['nproc']} "
          f"python={record.get('python')} numpy={record.get('numpy')} "
          f"native={record.get('native')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6f} {unit}")
    print(f"{'error_rate':36s} {failed / attempted:14.6f} "
          f"({failed} of {attempted} checks failed)")
    for name in failures[:20]:
        print(f"  failed check: {name}")
    for line in untraced[-1]["paper"]:
        print(f"# speed-up {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
