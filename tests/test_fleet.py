"""Tests for fleet observability: heartbeats, aggregation, the fleet
view, reconcile failure paths, doctor health awareness, and the new
CLI surfaces (``repro top`` / ``repro inspect``, labelled Prometheus,
attributed ``bench diff``).

The FleetView tests drive a real two-worker store in-process: two
``run_shard`` calls under distinct ``REPRO_WORKER_ID``/``REPRO_EVENTS``
identities, exactly the artifact layout the CLI sweeps produce.
"""

import json
import os
import time

import pytest

from repro import cli, telemetry
from repro.core.workload import clear_caches
from repro.dist import fleet, health
from repro.dist import shard as dist_shard
from repro.dist import worker as dist_worker
from repro.dist.shard import SweepPlan, WorkUnit
from repro.resilience.doctor import render_report, scan_store
from repro.telemetry import aggregate, events
from repro.telemetry import metrics as tmetrics


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _tiny_plan():
    return SweepPlan(
        units=tuple(
            WorkUnit("alexnet", layer, scheme, 0)
            for layer in ("Layer1", "Layer2")
            for scheme in ("sparten", "dense")
        ),
        fidelity="analytical",
        position_sample=50,
    )


def _run_two_worker_store(store, monkeypatch):
    """Plan + two sharded workers with store-resident event streams."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(store / "cache"))
    plan = dist_shard.publish_plan(store, _tiny_plan())
    telemetry.reset()
    for index, worker_id in enumerate(("w0", "w1")):
        monkeypatch.setenv("REPRO_WORKER_ID", worker_id)
        monkeypatch.setenv(
            "REPRO_EVENTS", str(store / "events" / f"{worker_id}.jsonl")
        )
        dist_worker.run_shard(store, plan, shard=(index, 2), steal=False)
    monkeypatch.delenv("REPRO_EVENTS")
    return plan


# -- reconcile failure paths -------------------------------------------------


class TestReconcileFailures:
    def test_incomplete_plan_reports_missing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        # Only shard 0 runs, no stealing: shard 1's units stay missing.
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        report = dist_worker.reconcile(tmp_path, plan)
        assert not report["complete"]
        assert report["missing"]
        assert set(report["missing"]) <= {u.token for u in plan.units}
        assert report["exactly_once"]  # incomplete, but no double compute

    def test_duplicates_flagged(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        summary = dist_worker.run_shard(tmp_path, plan, shard=None)
        # Forge a second manifest claiming one of the same computes.
        forged = dict(summary)
        forged["worker"] = "w-evil"
        forged["computed_tokens"] = [summary["computed_tokens"][0]]
        forged["computed"] = 1
        dist_worker.write_shard_manifest(tmp_path, forged)
        report = dist_worker.reconcile(tmp_path, plan)
        assert report["duplicates"] == [summary["computed_tokens"][0]]
        assert not report["exactly_once"]
        assert report["complete"]

    def test_foreign_manifest_not_a_duplicate(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        summary = dist_worker.run_shard(tmp_path, plan, shard=None)
        # A manifest from some other sweep dropped into this store:
        # its tokens are not in the plan.
        alien = dict(summary)
        alien["worker"] = "w-alien"
        alien["computed_tokens"] = ["vggnet:Layer9:scnn:7"] * 2
        alien["computed"] = 2
        dist_worker.write_shard_manifest(tmp_path, alien)
        report = dist_worker.reconcile(tmp_path, plan)
        assert report["foreign"] == ["vggnet:Layer9:scnn:7"]
        # Foreign repetition is surfaced, never an exactly-once breach.
        assert report["exactly_once"]
        assert not report["duplicates"]


# -- health heartbeats -------------------------------------------------------


class TestHealth:
    def test_classify_states(self):
        assert health.classify({"age_seconds": 0.1}, ttl=1.0) == health.LIVE
        assert health.classify({"age_seconds": 1.5}, ttl=1.0) == health.SUSPECT
        assert health.classify({"age_seconds": 2.5}, ttl=1.0) == health.DEAD
        # A clean exit's final snapshot is never "dead", whatever its age.
        assert (
            health.classify({"age_seconds": 99.0, "final": True}, ttl=1.0)
            == health.EXITED
        )

    def test_beacon_writes_start_and_final_snapshots(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_ID", "hb-test")
        beacon = health.HealthBeacon(tmp_path, shard="0/2", interval=60.0)
        beacon.start()
        snaps = health.read_health(tmp_path)
        assert len(snaps) == 1 and not snaps[0]["final"]
        assert snaps[0]["worker"] == "hb-test"
        assert snaps[0]["shard"] == "0/2"
        assert snaps[0]["pid"] == os.getpid()
        beacon.update(current_unit="u1", units_done=3)
        beacon.stop()
        (snap,) = health.read_health(tmp_path)
        assert snap["final"] and snap["units_done"] == 3
        assert health.classify(snap) == health.EXITED
        assert snap["last_event_seq"] == events.current_seq()

    def test_run_shard_leaves_exited_heartbeat(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = _tiny_plan()
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        (snap,) = health.read_health(tmp_path)
        assert snap["worker"] == "w0"
        assert health.classify(snap) == health.EXITED
        assert snap["units_done"] >= 1


# -- aggregation primitives --------------------------------------------------


class TestAggregate:
    def test_merge_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "w0.jsonl"
        good = {"schema": events.EVENTS_SCHEMA, "ts": 1.0, "pid": 1,
                "seq": 0, "kind": "run.start"}
        path.write_text(json.dumps(good) + "\n" + '{"schema": "repro-ev')
        merged = aggregate.merge_event_streams([path])
        assert len(merged.records) == 1
        assert merged.truncated_lines == 1

    def test_merge_orders_globally(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        rec = lambda ts, pid, seq: json.dumps(  # noqa: E731
            {"schema": events.EVENTS_SCHEMA, "ts": ts, "pid": pid,
             "seq": seq, "kind": "x"}
        )
        a.write_text(rec(2.0, 1, 0) + "\n" + rec(4.0, 1, 1) + "\n")
        b.write_text(rec(1.0, 2, 0) + "\n" + rec(3.0, 2, 1) + "\n")
        merged = aggregate.merge_event_streams([a, b])
        assert [r["ts"] for r in merged.records] == [1.0, 2.0, 3.0, 4.0]

    def test_robust_zscores_flag_outlier(self):
        durations = [1.0] * 20 + [50.0]
        scores = aggregate.robust_zscores(durations)
        assert scores[-1] > aggregate.STRAGGLER_ZSCORE
        assert all(abs(s) < 1.0 for s in scores[:-1])

    def test_robust_zscores_degenerate_mad(self):
        assert aggregate.robust_zscores([3.0, 3.0, 3.0]) == [0.0, 0.0, 0.0]
        assert aggregate.robust_zscores([]) == []

    def test_find_stragglers(self):
        spans = [
            {"unit": f"u{i}", "status": "computed", "seconds": 1.0,
             "ts": float(i), "pid": 1, "shard": None, "stolen": False}
            for i in range(20)
        ]
        spans.append({"unit": "slow", "status": "computed", "seconds": 60.0,
                      "ts": 99.0, "pid": 2, "shard": None, "stolen": False})
        out = aggregate.find_stragglers(spans)
        assert [s["unit"] for s in out] == ["slow"]
        assert out[0]["zscore"] > aggregate.STRAGGLER_ZSCORE


# -- the fleet view ----------------------------------------------------------


class TestFleetView:
    def test_two_worker_store_reconciles(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.units_total == len(plan.units)
        assert view.published == len(plan.units)
        assert view.healthy
        audit = view.audit
        assert audit["complete"] and audit["exactly_once"]
        assert audit["counters_consistent"]
        assert audit["attributed"] == len(plan.units)
        assert audit["lost_attribution"] == []
        # Counter totals from the merged streams equal the manifests.
        assert audit["event_computed_total"] == audit["manifest_computed_total"]
        # Shard table covers both shards and sums to the plan.
        assert [row["shard"] for row in view.per_shard] == ["0/2", "1/2"]
        assert sum(row["units"] for row in view.per_shard) == len(plan.units)
        assert all(row["published"] == row["units"] for row in view.per_shard)
        # Both workers present, exited cleanly.
        assert [w["worker"] for w in view.workers] == ["w0", "w1"]
        assert all(w["state"] == health.EXITED for w in view.workers)

    def test_render_top_frame(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        frame = fleet.render_top(fleet.build_fleet_view(tmp_path, plan))
        assert f"{len(plan.units)}/{len(plan.units)} units published" in frame
        assert "w0" in frame and "w1" in frame
        assert "0/2" in frame and "1/2" in frame

    def test_render_inspect_report(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        report = fleet.render_inspect(fleet.build_fleet_view(tmp_path, plan))
        assert "## Exactly-once audit" in report
        assert "verdict: HEALTHY" in report
        assert "dist.shard.start" in report  # the timeline is rendered

    def test_chrome_trace_one_lane_per_worker(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        trace = fleet.build_fleet_view(tmp_path, plan).chrome_trace()
        names = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(names) == len({e["pid"] for e in names}) >= 1
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        computed = [s for s in slices if s["args"].get("status") == "computed"]
        assert len(computed) == len(plan.units)
        assert all(s["dur"] > 0 for s in computed)

    def test_dead_worker_flagged(self, tmp_path, monkeypatch):
        plan = _run_two_worker_store(tmp_path, monkeypatch)
        # Forge a heartbeat that was never finalised and is stale past
        # two TTLs: exactly what a SIGKILL'd worker leaves behind.
        snap = {
            "schema": health.HEALTH_SCHEMA, "worker": "w-dead", "pid": 99999,
            "host": "gone", "shard": "1/2", "current_unit": "x",
            "units_done": 1, "final": False, "ts": time.time(),
        }
        path = health.write_health_snapshot(tmp_path, snap)
        old = time.time() - 1000.0
        os.utime(path, (old, old))
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.anomalies["dead_workers"] == ["w-dead"]
        dead = [w for w in view.workers if w["worker"] == "w-dead"]
        assert dead and dead[0]["state"] == health.DEAD
        report = fleet.render_inspect(view)
        assert "w-dead" in report and "dead workers" in report

    def test_killed_shard_reconciles_up_to_its_last_unit(
        self, tmp_path, monkeypatch
    ):
        # A worker dying inside unit k+1 leaves a stream cut right after
        # its k-th dist.unit line and a manifest written after unit k.
        from repro.analytical import fidelity

        class Killed(BaseException):
            pass

        k = 2
        real = fidelity.simulate_at_fidelity
        calls = []

        def dies_on_unit_k_plus_1(*args, **kwargs):
            calls.append(1)
            if len(calls) > k:
                raise Killed
            return real(*args, **kwargs)

        monkeypatch.setattr(fidelity, "simulate_at_fidelity", dies_on_unit_k_plus_1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        monkeypatch.setenv("REPRO_EVENTS", str(tmp_path / "events" / "w0.jsonl"))
        plan = dist_shard.publish_plan(tmp_path, _tiny_plan())
        telemetry.reset()
        with pytest.raises(Killed):
            dist_worker.run_shard(tmp_path, plan, shard=None, steal=False)
        monkeypatch.delenv("REPRO_EVENTS")
        view = fleet.build_fleet_view(tmp_path, plan)
        kinds = [r["kind"] for r in view.records if r["kind"] != "progress"]
        assert kinds == ["dist.shard.start"] + ["dist.unit"] * k
        assert view.audit["counters_consistent"]
        assert view.audit["event_computed_total"] == k
        assert view.tallies["computed"] == k
        assert view.audit["attributed"] == k == view.published

    def test_view_without_event_streams(self, tmp_path, monkeypatch):
        # A library-level store with no REPRO_EVENTS: journal+manifests
        # are the only evidence; the audit must not fabricate losses.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        plan = dist_shard.publish_plan(tmp_path, _tiny_plan())
        dist_worker.run_shard(tmp_path, plan, shard=None)
        view = fleet.build_fleet_view(tmp_path, plan)
        assert view.healthy
        assert view.audit["lost_attribution"] == []
        assert view.events_info["streams"] == 0


# -- CLI surfaces ------------------------------------------------------------


class TestFleetCli:
    def test_top_once(self, tmp_path, monkeypatch, capsys):
        _run_two_worker_store(tmp_path, monkeypatch)
        assert cli.main(["top", "--store", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet:")
        assert "units published" in out

    def test_top_once_without_plan(self, tmp_path, capsys):
        assert cli.main(["top", "--store", str(tmp_path), "--once"]) == 1
        assert "repro top" in capsys.readouterr().out

    def test_inspect_writes_artifacts(self, tmp_path, monkeypatch, capsys):
        store = tmp_path / "store"
        _run_two_worker_store(store, monkeypatch)
        trace = tmp_path / "fleet-trace.json"
        report = tmp_path / "fleet-report.md"
        payload = tmp_path / "fleet.json"
        code = cli.main([
            "inspect", "--store", str(store),
            "--trace", str(trace), "--report", str(report),
            "--json", str(payload),
        ])
        assert code == 0
        assert "Exactly-once audit" in capsys.readouterr().out
        assert "traceEvents" in json.loads(trace.read_text())
        assert "## Timeline" in report.read_text()
        view = json.loads(payload.read_text())
        assert view["healthy"] and view["audit"]["complete"]

    def test_inspect_incomplete_exits_nonzero(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_WORKER_ID", "w0")
        plan = dist_shard.publish_plan(tmp_path, _tiny_plan())
        dist_worker.run_shard(tmp_path, plan, shard=(0, 2), steal=False)
        assert cli.main(["inspect", "--store", str(tmp_path)]) == 1


# -- doctor health awareness -------------------------------------------------


class TestDoctorHealth:
    def _heartbeat(self, store, worker, age, final=False):
        path = health.write_health_snapshot(store, {
            "schema": health.HEALTH_SCHEMA, "worker": worker, "pid": 1,
            "host": "h", "shard": None, "final": final, "ts": time.time(),
        })
        stamp = time.time() - age
        os.utime(path, (stamp, stamp))
        return path

    def test_live_vs_dead_counts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        self._heartbeat(tmp_path, "alive", age=0.0)
        self._heartbeat(tmp_path, "stuck", age=15.0)
        self._heartbeat(tmp_path, "gone", age=100.0)
        self._heartbeat(tmp_path, "done", age=100.0, final=True)
        report = scan_store(tmp_path)
        assert report.workers_live == 1
        assert report.workers_suspect == 1
        assert report.workers_dead == 1
        assert report.workers_exited == 1
        text = render_report(report)
        assert "live 1" in text and "dead 1" in text

    def test_stale_heartbeats_reaped_fresh_kept(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        fresh = self._heartbeat(tmp_path, "alive", age=0.0)
        dead = self._heartbeat(tmp_path, "gone", age=100.0)
        exited = self._heartbeat(tmp_path, "done", age=100.0, final=True)
        report = scan_store(tmp_path, prune=True)
        assert str(dead) in report.pruned
        assert str(exited) in report.pruned
        assert fresh.exists()
        assert not dead.exists() and not exited.exists()

    def test_suspect_heartbeat_not_reaped(self, tmp_path, monkeypatch):
        # Older than one TTL (so "suspect") but not yet provably dead:
        # the doctor must not destroy a possibly-live worker's beacon.
        monkeypatch.setenv("REPRO_CLAIM_TTL", "10")
        suspect = self._heartbeat(tmp_path, "stuck", age=15.0)
        report = scan_store(tmp_path, prune=True)
        assert str(suspect) not in report.pruned
        assert suspect.exists()


# -- prometheus labels (satellite) -------------------------------------------


class TestPrometheusLabels:
    def test_unsharded_exposition_unlabelled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD", raising=False)
        assert tmetrics.default_labels() == {}
        telemetry.reset()
        telemetry.count("cache.workload.hit", 2)
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        assert samples[("repro_cache_workload_hit_total", ())] == 2.0

    def test_sharded_exposition_carries_identity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "1/4")
        telemetry.reset()
        telemetry.count("cache.workload.hit", 3)
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        (key,) = [k for k in samples if k[0] == "repro_cache_workload_hit_total"]
        labels = dict(key[1])
        assert labels["shard"] == "1/4"
        assert labels["pid"] == str(os.getpid())
        assert "host" in labels
        assert samples[key] == 3.0

    def test_manifest_rendering_matches_live_when_sharded(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        monkeypatch.delenv("REPRO_WORKER_ID", raising=False)
        telemetry.reset()
        telemetry.count("dist.unit.computed", 5)
        with telemetry.span("simulate"):
            pass
        manifest = telemetry.build_manifest(config={})
        assert tmetrics.prometheus_from_manifest(manifest) == (
            tmetrics.prometheus_text()
        )

    def test_span_samples_merge_labels(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD", "0/2")
        telemetry.reset()
        with telemetry.span("simulate"):
            pass
        samples = tmetrics.parse_prometheus(tmetrics.prometheus_text())
        (key,) = [k for k in samples if k[0] == "repro_span_calls_total"]
        labels = dict(key[1])
        assert labels["span"] == "simulate" and labels["shard"] == "0/2"


# -- bench diff attribution (satellite) --------------------------------------


class TestBenchDiffAttribution:
    def test_render_diff_names_baseline_and_sha(self):
        from repro.eval import benchtrack

        rows = [{"metric": "m", "status": "ok", "value": 1.0,
                 "expected": 1.0, "tolerance": 0.1, "direction": "band"}]
        out = benchtrack.render_diff(
            rows, baseline_path="benchmarks/bench_baseline_shard.json",
            git_sha="abc1234",
        )
        first = out.splitlines()[0]
        assert "bench_baseline_shard.json" in first
        assert "abc1234" in first
        # Without attribution the table is unchanged (old callers).
        assert "baseline" in benchtrack.render_diff(rows)

    def test_cli_bench_diff_prints_attribution(self, tmp_path, capsys):
        out_dir = tmp_path / "output"
        out_dir.mkdir()
        (out_dir / "BENCH_x.json").write_text(json.dumps(
            {"schema": "repro-bench/1", "metric": 2.0}
        ))
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps({
            "schema": "repro-bench-baseline/1",
            "metrics": {"x.metric": {"value": 2.0, "tolerance": 0.1,
                                     "direction": "band"}},
        }))
        assert cli.main([
            "bench", "diff", "--baseline", str(base),
            "--output-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert str(base) in out
