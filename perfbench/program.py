"""One program process of the benchmark: set up, run one call, check it.

Started by ``run.py`` with a fresh interpreter and an isolated
environment. It measures set-up (``import repro.cli`` plus the first
native-kernel load), optionally installs the layer tracer, runs the
workload's timed call, stops the timer, runs the output checks and writes
one JSON record to ``--out``. Modes:

- ``--workload NAME``: one single-process workload (``workloads.py``);
- ``--shard I/N --store DIR``: one shard of ``sweep_2shard``, which
  calls ``repro.cli.main(["sweep", ...])``;
- ``--check-store DIR``: reconcile and check a finished sweep store;
- ``--probe``: set-up only.

The process exits non-zero when the native kernels did not load (the
NumPy fallback is a different program) or ``repro`` was imported from
somewhere other than this checkout's ``src/``.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up() -> dict:
    """Import the CLI and load the native kernels; fail if either is off."""
    t0 = time.monotonic()
    import repro.cli  # noqa: F401

    t1 = time.monotonic()
    from repro.sim import native

    loaded = native.available()
    t2 = time.monotonic()
    import numpy

    src = pathlib.Path(os.environ["PERFBENCH_ROOT"]) / "src"
    origin = pathlib.Path(repro.cli.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"repro imported from {origin}, not from {src}")
    if not loaded:
        raise SystemExit(f"native kernels did not load: {native.load_error()}")
    return {
        "import_start": t0,
        "import_end": t1,
        "native_end": t2,
        "setup_s": t2 - t0,
        "import_s": t1 - t0,
        "native_s": t2 - t1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native": loaded,
    }


def start_tracer(args):
    import tracing

    tracer = tracing.Tracer(run_id=f"{args.run_id}:{os.getpid()}")
    return tracer, tracer.install()


def cache_stats() -> dict:
    from repro.core.workload import cache_stats as stats

    raw = stats()
    keys = ("hits", "misses", "disk_hits", "bytes")
    return {cache: {k: raw[cache].get(k, 0) for k in keys}
            for cache in ("workloads", "results")}


def run_workload(args, record: dict) -> None:
    import workloads

    run, check, perturb, digest, paper, entry = workloads.SINGLE_PROCESS[args.workload]
    tmp = pathlib.Path(args.tmp)
    tracer = None
    if args.trace:
        tracer, record["missing"] = start_tracer(args)
        tracer.active = True
    cpu0, t0 = cpu_seconds(), time.monotonic()
    output = run(args.seed, args.smoke, tmp)
    t1, cpu1 = time.monotonic(), cpu_seconds()
    if tracer is not None:
        tracer.active = False
        record["trace"] = tracer.to_json()
        record["trace"]["window"] = [t0, t1]
        record["trace"]["entry"] = entry
        record["cache"] = cache_stats()
    record["wall_s"] = t1 - t0
    record["cpu_s"] = cpu1 - cpu0
    record["peak_rss_mb"] = peak_rss_mb()
    if args.perturb:
        output = perturb(output)
    record["checks"] = check(output, args.seed, args.smoke, tmp)
    record["digest"] = digest(output)
    record["paper"] = paper(output, args.seed)


def run_shard(args, record: dict) -> None:
    import repro.cli

    if args.trace:
        # A shard's wall clock starts at launch, so its set-up is a span.
        tracer, record["missing"] = start_tracer(args)
        tracer.add("setup.import", record["import_start"], record["import_end"])
        tracer.add("setup.native", record["import_end"], record["native_end"])
        tracer.active = True
    import workloads

    argv = workloads.sweep_argv(pathlib.Path(args.store), args.shard,
                                args.seed, args.smoke)
    with contextlib.redirect_stdout(io.StringIO()):
        record["exit_code"] = repro.cli.main(argv)
    if args.trace:
        tracer.active = False
        record["trace"] = tracer.to_json()
        record["cache"] = cache_stats()


def check_store(args, record: dict) -> None:
    import workloads

    store = pathlib.Path(args.check_store)
    record["checks"], record["digest"] = workloads.sweep_check(store, args.perturb)
    record["store"] = workloads.store_usage(store)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--shard")
    mode.add_argument("--check-store")
    mode.add_argument("--probe", action="store_true")
    parser.add_argument("--store")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    parser.add_argument("--tmp", default=".")
    parser.add_argument("--run-id", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    record = {"started": STARTED, "pid": os.getpid()}
    record.update(set_up())
    if args.workload:
        run_workload(args, record)
    elif args.shard:
        run_shard(args, record)
    elif args.check_store:
        check_store(args, record)
    record.setdefault("peak_rss_mb", peak_rss_mb())
    record["finished"] = time.monotonic()
    pathlib.Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
