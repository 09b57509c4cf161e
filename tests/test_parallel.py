"""Tests for the process fan-out helper and parallel determinism."""

import dataclasses
import os

from repro.core import parallel
from repro.core.compare import compare_architectures
from repro.core.workload import clear_caches
from repro.nets.layers import ConvLayerSpec
from repro.nets.models import NetworkSpec


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel.parallel_map(_square, [3, 1, 4, 1, 5], jobs=1) == [
            9, 1, 16, 1, 25,
        ]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        serial = parallel.parallel_map(_square, items, jobs=1)
        fanned = parallel.parallel_map(_square, items, jobs=2)
        assert fanned == serial

    def test_single_item_stays_serial(self):
        # No pool spin-up for a single element, whatever jobs says.
        assert parallel.parallel_map(_square, [7], jobs=8) == [49]

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert parallel.default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert parallel.default_jobs() == 4
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert parallel.default_jobs() == 1


def _tiny_network():
    mk = ConvLayerSpec
    layers = (
        mk("L0", 8, 8, 20, kernel=3, n_filters=8, padding=1,
           input_density=0.5, filter_density=0.5),
        mk("L1", 6, 6, 24, kernel=3, n_filters=8, stride=2,
           input_density=0.3, filter_density=0.4),
        mk("L2", 5, 5, 16, kernel=1, n_filters=12,
           input_density=0.6, filter_density=0.3),
    )
    return NetworkSpec(name="tinynet", layers=layers)


class TestParallelDeterminism:
    def test_fanned_comparison_identical_to_serial(self, mini_cfg):
        import warnings

        net = _tiny_network()
        with warnings.catch_warnings():
            # mini_cfg lacks SCNN MAC parity; irrelevant to determinism.
            warnings.filterwarnings("ignore", message="resource parity")
            clear_caches()
            serial = compare_architectures(net, cfg=mini_cfg, jobs=1)
            clear_caches()
            fanned = compare_architectures(net, cfg=mini_cfg, jobs=2)
        assert fanned.schemes == serial.schemes
        assert fanned.layer_names == serial.layer_names
        for scheme in serial.results:
            for name in serial.results[scheme]:
                a = serial.results[scheme][name]
                b = fanned.results[scheme][name]
                # Dataclass equality covers every figure-facing field;
                # counters (compare=False, numpy arrays) are checked via
                # their JSON form so fan-out determinism includes them.
                assert a == b, (scheme, name)
                assert (a.counters is None) == (b.counters is None), (scheme, name)
                if a.counters is not None:
                    assert a.counters.to_dict() == b.counters.to_dict(), (
                        scheme, name,
                    )

    def test_worker_never_nests_fanout(self):
        # Workers force REPRO_JOBS=1 via the initializer so a parallel
        # layer fan-out cannot recursively spawn pools.
        results = parallel.parallel_map(_probe_worker_env, list(range(4)), jobs=2)
        assert all(flag == "1" for flag in results)


def _probe_worker_env(_):
    assert parallel._IN_WORKER
    return os.environ.get("REPRO_JOBS", "unset")


def _emit_marker(x):
    from repro.telemetry import events

    events.emit("test.marker", item=x)
    return x


class TestPoolEventStream:
    def test_worker_events_reach_the_merged_stream(self, tmp_path, monkeypatch):
        from repro import telemetry
        from repro.telemetry import events

        path = tmp_path / "events.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        telemetry.reset()
        events.start_run()
        try:
            assert parallel.parallel_map(_emit_marker, [0, 1, 2, 3], jobs=2) == [
                0, 1, 2, 3,
            ]
            records = events.read_events(path)
            # Strict: no gaps or duplicates, each pid's (ts, seq) in order.
            # Worker records land at pool join, so the file is ordered
            # per pid, not globally by timestamp.
            events.validate_events(records)
            markers = [r for r in records if r["kind"] == "test.marker"]
            assert sorted(m["item"] for m in markers) == [0, 1, 2, 3]
            assert {m["pid"] for m in markers} - {os.getpid()}
            assert [p.name for p in tmp_path.iterdir()] == [path.name]
        finally:
            telemetry.reset()

    def test_stream_off_leaves_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        assert parallel.parallel_map(_emit_marker, [0, 1], jobs=2) == [0, 1]
        assert not list(tmp_path.iterdir())
