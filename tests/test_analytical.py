"""Tests for the analytical fast path (repro.analytical).

Covers the contracts the pre-screened sweep leans on:

- density statistics are pinned against the materialised counts tensor,
- :func:`regroup_stats` re-slices one canonical extraction onto any
  cluster count (sharing arrays, preserving the sampling estimator),
- the native barrier kernel equals its NumPy fallback bit for bit, and
  the grid scorer reproduces per-point predictions exactly while
  evaluating each (units, variant) barrier once,
- the exact schemes (dense / one-sided / SCNN) match the simulators bit
  for bit and the calibrated SparTen models stay inside the validation
  bounds,
- every fidelity-ladder rung returns the shared LayerResult schema,
- the level resolves explicit > scope > ``REPRO_FIDELITY``, sets the
  simulators' counter depth, reaches pool workers and the manifest, and
  never touches ``os.environ``,
- predicted cycles are monotone in workload density,
- the two-phase sweep's result schema.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.analytical import model
from repro.analytical.density import (
    extract_density_stats,
    regroup_stats,
    stats_from_work,
)
from repro.analytical.fidelity import (
    FIDELITY_LEVELS,
    fidelity_level,
    fidelity_scope,
    simulate_at_fidelity,
)
from repro.analytical.model import ANALYTICAL_SCHEMES, predict_layer
from repro.core.compare import run_scheme_cached
from repro.nets.layers import ConvLayerSpec
from repro.sim.config import HardwareConfig
from repro.sim.kernels import compute_chunk_work
from repro.sim.results import LayerResult


class TestDensityStats:
    def test_match_sums_pin_materialized_counts(self, tiny_data, mini_cfg):
        """The cheap-path match totals equal the full counts tensor's."""
        full = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        cheap = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        counts = full.materialized_counts()
        np.testing.assert_array_equal(
            np.asarray(cheap.match_sums, dtype=np.float64),
            counts.sum(axis=(0, 2), dtype=np.float64),
        )

    def test_counts_bounded_by_window_popcounts(self, tiny_data, mini_cfg):
        full = compute_chunk_work(tiny_data, mini_cfg, need_counts=True)
        counts = full.materialized_counts()
        # A chunk's match count cannot exceed the window's non-zeros.
        assert np.all(counts <= full.input_pop[:, :, None])

    def test_filter_totals_pin_filter_masks(self, tiny_data, mini_cfg):
        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        stats = stats_from_work(tiny_data, work, mini_cfg.chunk_size)
        np.testing.assert_array_equal(
            stats.filter_total_nnz,
            tiny_data.filter_masks.sum(axis=(1, 2, 3)),
        )

    def test_integral_image_rectangles(self, tiny_data, mini_cfg):
        work = compute_chunk_work(tiny_data, mini_cfg, need_counts=False)
        stats = stats_from_work(tiny_data, work, mini_cfg.chunk_size)
        mask = tiny_data.input_mask
        h, w, _ = mask.shape
        whole = stats.rect_nnz(
            np.array(0), np.array(h), np.array(0), np.array(w)
        )
        np.testing.assert_array_equal(whole, mask.sum(axis=(0, 1)))


class TestRegroupStats:
    def _full_stats(self, spec, seed=0):
        """Canonical single-cluster extraction covering every position."""
        canonical = HardwareConfig(
            name="canon", n_clusters=1, units_per_cluster=1,
            chunk_size=16, position_sample=None,
        )
        return extract_density_stats(spec, canonical, seed)

    def test_same_cluster_count_is_identity(self, tiny_spec):
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="same", n_clusters=1, units_per_cluster=4, chunk_size=16
        )
        assert regroup_stats(stats, cfg) is stats

    def test_shares_per_position_arrays(self, tiny_spec, mini_cfg):
        stats = self._full_stats(tiny_spec)
        regrouped = regroup_stats(stats, mini_cfg)
        assert regrouped.input_pop is stats.input_pop
        assert regrouped.match_sums is stats.match_sums
        assert regrouped.filter_chunk_nnz is stats.filter_chunk_nnz

    def test_weights_recover_cluster_positions(self, tiny_spec):
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="five", n_clusters=5, units_per_cluster=2, chunk_size=16
        )
        a = regroup_stats(stats, cfg).assignment
        assert a.n_clusters == 5
        np.testing.assert_allclose(
            np.bincount(a.cluster_of, weights=a.weight_of, minlength=5),
            a.cluster_positions,
        )
        assert int(a.cluster_positions.sum()) == tiny_spec.out_positions

    def test_matches_direct_extraction_when_unsampled(self, tiny_spec):
        """Full-coverage stats regrouped == stats extracted at the target."""
        stats = self._full_stats(tiny_spec)
        cfg = HardwareConfig(
            name="direct", n_clusters=3, units_per_cluster=4,
            chunk_size=16, bisection_width=2, position_sample=None,
        )
        regrouped = regroup_stats(stats, cfg)
        direct = extract_density_stats(tiny_spec, cfg, 0)
        np.testing.assert_array_equal(
            regrouped.assignment.cluster_of, direct.assignment.cluster_of
        )
        np.testing.assert_allclose(
            regrouped.assignment.weight_of, direct.assignment.weight_of
        )
        for scheme in ("dense", "one_sided", "sparten"):
            via_regroup = predict_layer(
                tiny_spec, cfg, scheme=scheme, stats=regrouped
            )
            via_direct = predict_layer(
                tiny_spec, cfg, scheme=scheme, stats=direct
            )
            assert via_regroup.cycles == pytest.approx(via_direct.cycles)

    def test_too_sparse_sample_raises(self, tiny_spec):
        sampled = HardwareConfig(
            name="sparse", n_clusters=1, units_per_cluster=1,
            chunk_size=16, position_sample=3,
        )
        stats = extract_density_stats(tiny_spec, sampled, 0)
        many = HardwareConfig(
            name="many",
            n_clusters=tiny_spec.out_positions,
            units_per_cluster=2,
            chunk_size=16,
        )
        with pytest.raises(ValueError, match="regroup"):
            regroup_stats(stats, many)


def _grid_cfg(n_clusters: int, units: int, chunk_size: int = 16) -> HardwareConfig:
    return HardwareConfig(
        name=f"grid_{n_clusters}x{units}",
        n_clusters=n_clusters,
        units_per_cluster=units,
        chunk_size=chunk_size,
        bisection_width=2,
    )


def _canonical_stats(spec, chunk_size: int = 16, seed: int = 0):
    return extract_density_stats(spec, _grid_cfg(1, 1, chunk_size), seed)


class TestBarrierKernel:
    """The native barrier kernel equals the NumPy fallback bit for bit."""

    #: 12 filters: at 8 units no_gb pads four zero-load rows, and at 4
    #: and 8 units gb_s/gb_h leave empty (-1) pair slots.
    SPEC = ConvLayerSpec(
        name="barrier_probe",
        in_height=7,
        in_width=7,
        in_channels=32,
        kernel=3,
        n_filters=12,
        stride=1,
        padding=1,
        input_density=0.5,
        filter_density=0.4,
    )

    def _both_paths(self, stats, cfg, variant, monkeypatch):
        from repro import telemetry

        telemetry.reset()
        fast = model._two_sided_barriers(stats, cfg, variant)
        assert telemetry.snapshot(events=False)["counters"].get(
            "kernel.barrier_native_dispatch", 0
        ) == 1
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        slow = model._two_sided_barriers(stats, cfg, variant)
        assert telemetry.snapshot(events=False)["counters"].get(
            "kernel.barrier_fallback_dispatch", 0
        ) == 1
        monkeypatch.delenv("REPRO_NO_NATIVE")
        telemetry.reset()
        return fast, slow

    @pytest.mark.parametrize("chunk_size", [16, 128])
    @pytest.mark.parametrize("units", [1, 2, 4, 8])
    @pytest.mark.parametrize("variant", ["no_gb", "gb_s", "gb_h"])
    @pytest.mark.parametrize("group_blocks", [False, True])
    def test_native_matches_fallback_bitwise(
        self, chunk_size, units, variant, group_blocks, monkeypatch
    ):
        from repro.sim import native

        if not native.available():
            pytest.skip("native kernels unavailable")
        stats = _canonical_stats(self.SPEC, chunk_size)
        if group_blocks:
            # Two groups per block: the group axis spans several blocks
            # (the last one short), whose partial sums both paths add.
            monkeypatch.setattr(
                model, "_BLOCK_DOUBLES", 2 * stats.n_chunks * stats.n_sel
            )
        cfg = _grid_cfg(1, units, chunk_size)
        loads_a, _, floors = model.two_sided_row_loads(stats, cfg, variant)
        assert (floors is not None) == (variant == "gb_h" and units >= 2)
        (bar_n, perm_n, groups_n), (bar_f, perm_f, groups_f) = self._both_paths(
            stats, cfg, variant, monkeypatch
        )
        assert groups_n == groups_f
        assert bar_n.tobytes() == bar_f.tobytes()
        assert perm_n.tobytes() == perm_f.tobytes()
        if floors is not None and units >= 4:
            # The routing floors bind somewhere (at 2 units they are at
            # most one cycle, which the unit barrier floor already meets).
            assert perm_n.sum() > 0


def _spy_grid(monkeypatch):
    """Record each barrier evaluation and each array the reduction gets."""
    calls, handed = [], []
    real_barriers = model._two_sided_barriers
    real_reduction = model._cluster_reduction

    def barriers(stats, cfg, variant):
        calls.append((cfg.units_per_cluster, variant))
        return real_barriers(stats, cfg, variant)

    def reduction(assignment, cfg, per_pos_barrier, *args):
        handed.append(per_pos_barrier)
        return real_reduction(assignment, cfg, per_pos_barrier, *args)

    monkeypatch.setattr(model, "_two_sided_barriers", barriers)
    monkeypatch.setattr(model, "_cluster_reduction", reduction)
    return calls, handed


class TestBarrierMemo:
    """Within a grid, one barrier evaluation per (units, variant)."""

    VARIANTS = ("no_gb", "gb_s", "gb_h")

    def test_hit_returns_identical_arrays(self, tiny_spec, monkeypatch):
        stats = _canonical_stats(tiny_spec)
        calls, handed = _spy_grid(monkeypatch)
        cfg = _grid_cfg(3, 4)
        rows = model.predict_grid(stats, [cfg, cfg], ("gb_h",))
        assert calls == [(4, "gb_h")]
        assert len(handed) == 2
        assert handed[1] is handed[0]
        assert rows[1][2:] == rows[0][2:]

    def test_cluster_count_does_not_key_the_memo(self, tiny_spec, monkeypatch):
        """The whole cluster axis of a grid shares one barrier evaluation."""
        stats = _canonical_stats(tiny_spec)
        calls, handed = _spy_grid(monkeypatch)
        counts = (1, 2, 3, 5, 6)
        cfgs = [_grid_cfg(c, 4) for c in counts]
        rows = model.predict_grid(stats, cfgs, self.VARIANTS)
        assert len(rows) == len(counts) * len(self.VARIANTS)
        assert sorted(calls) == sorted((4, v) for v in self.VARIANTS)
        for i, variant in enumerate(self.VARIANTS):
            same = handed[i :: len(self.VARIANTS)]
            assert all(arr is same[0] for arr in same), variant

    def test_units_key_the_memo(self, tiny_spec, monkeypatch):
        stats = _canonical_stats(tiny_spec)
        calls, handed = _spy_grid(monkeypatch)
        units = (1, 2, 4)
        cfgs = [_grid_cfg(c, u) for c in (1, 3) for u in units]
        model.predict_grid(stats, cfgs, ("gb_h",))
        assert sorted(calls) == [(u, "gb_h") for u in units]
        assert len({id(arr) for arr in handed}) == len(units)


class TestGridScorer:
    VARIANTS = ("no_gb", "gb_s", "gb_h")

    @pytest.mark.parametrize("no_native", [False, True])
    def test_rows_equal_per_point_predictions(
        self, tiny_spec, no_native, monkeypatch
    ):
        """Grid rows == predict_layer rows, exactly, in grid order.

        12 filters are not a multiple of 2 x 4 or 2 x 8 units, and 4 and
        7 clusters do not divide the 30-position output map.
        """
        from repro.sim.sweeps import _SCHEME_OF, _sweep_row

        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        stats = _canonical_stats(tiny_spec)
        cfgs = [_grid_cfg(c, u) for c in (1, 4, 7) for u in (1, 2, 4, 8)]
        grid = model.predict_grid(stats, cfgs, self.VARIANTS)
        expected = []
        for cfg in cfgs:
            dense = predict_layer(tiny_spec, cfg, scheme="dense", stats=stats)
            for variant in self.VARIANTS:
                sparse = predict_layer(
                    tiny_spec, cfg, scheme=_SCHEME_OF[variant], stats=stats
                )
                expected.append(
                    (cfg, variant, dense.cycles, sparse.cycles, sparse.breakdown)
                )
        assert grid == expected
        assert [_sweep_row(c, d, s, b) for c, _, d, s, b in grid] == [
            _sweep_row(c, d, s, b) for c, _, d, s, b in expected
        ]


class TestAccuracy:
    EXACT_SCHEMES = ("dense", "one_sided", "scnn", "scnn_one_sided", "scnn_dense")

    def test_exact_schemes_match_simulators(self, tiny_spec, mini_cfg):
        for scheme in self.EXACT_SCHEMES:
            sim = run_scheme_cached(scheme, tiny_spec, mini_cfg, seed=0)
            pred = predict_layer(tiny_spec, mini_cfg, scheme=scheme, seed=0)
            assert pred.cycles == pytest.approx(sim.cycles, rel=1e-9), scheme

    def test_sparten_within_validation_bounds(self, tiny_spec, mini_cfg):
        for scheme in ("sparten_no_gb", "sparten_gb_s", "sparten"):
            sim = run_scheme_cached(scheme, tiny_spec, mini_cfg, seed=0)
            pred = predict_layer(tiny_spec, mini_cfg, scheme=scheme, seed=0)
            err = abs(pred.cycles - sim.cycles) / sim.cycles
            assert err <= 0.10, f"{scheme}: |err| {err:.4f}"

    def test_breakdown_conserves_totals(self, tiny_spec, mini_cfg):
        pred = predict_layer(tiny_spec, mini_cfg, scheme="sparten", seed=0)
        b = pred.breakdown
        assert b.total == pytest.approx(
            b.nonzero_macs + b.intra_loss + b.inter_loss, rel=1e-9
        )


class TestFidelityLadder:
    def test_every_level_returns_layer_result(self, tiny_spec, mini_cfg):
        cycles = {}
        for level in FIDELITY_LEVELS:
            result = simulate_at_fidelity(
                "sparten", tiny_spec, mini_cfg, seed=0, fidelity=level
            )
            assert isinstance(result, LayerResult)
            assert result.cycles > 0
            assert result.breakdown.total > 0
            cycles[level] = result.cycles
        # The cycle-level rungs answer identically; analytical approximates.
        assert (
            cycles["cycles"]
            == cycles["counters"]
            == cycles["timeline"]
            == cycles["trace"]
        )

    def test_trace_rung_attaches_trace_extras(self, tiny_spec, mini_cfg):
        result = simulate_at_fidelity(
            "sparten", tiny_spec, mini_cfg, seed=0, fidelity="trace"
        )
        assert "trace_total_cycles" in result.extras
        assert "trace_hiding_efficiency" in result.extras

    def test_analytical_rung_rejects_unknown_scheme(self, tiny_spec, mini_cfg):
        with pytest.raises(ValueError, match="analytical"):
            simulate_at_fidelity(
                "not_a_scheme", tiny_spec, mini_cfg, fidelity="analytical"
            )

    def test_invalid_level_raises(self):
        with pytest.raises(ValueError, match="fidelity"):
            fidelity_level("cycle_accurate")

    def test_env_variable_selects_level(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "analytical")
        assert fidelity_level() == "analytical"
        monkeypatch.delenv("REPRO_FIDELITY")
        assert fidelity_level() == "counters"

    def test_analytical_results_memoise(self, tiny_spec, mini_cfg):
        first = simulate_at_fidelity(
            "dense", tiny_spec, mini_cfg, seed=0, fidelity="analytical"
        )
        second = simulate_at_fidelity(
            "dense", tiny_spec, mini_cfg, seed=0, fidelity="analytical"
        )
        assert second is first


def _timeline_width(seed: int):
    """Pool-worker probe: timeline bins on one simulated layer (or None)."""
    from repro.sim.config import HardwareConfig
    from repro.sim.sparten import simulate_sparten

    spec = ConvLayerSpec(
        name="probe", in_height=6, in_width=5, in_channels=10, kernel=3,
        n_filters=12, stride=1, padding=1, input_density=0.5,
        filter_density=0.4,
    )
    cfg = HardwareConfig(
        name="mini", n_clusters=3, units_per_cluster=4, chunk_size=16,
        bisection_width=2,
    )
    timeline = simulate_sparten(spec, cfg, seed=seed).counters.timeline_cycles
    return None if timeline is None else timeline.shape[1]


class TestFidelityScope:
    def test_precedence_explicit_then_scope_then_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FIDELITY", "cycles")
        assert fidelity_level() == "cycles"
        with fidelity_scope("timeline") as level:
            assert level == "timeline"
            assert fidelity_level() == "timeline"
            assert fidelity_level("analytical") == "analytical"
            with fidelity_scope("trace"):
                assert fidelity_level() == "trace"
            assert fidelity_level() == "timeline"
        assert fidelity_level() == "cycles"
        with pytest.raises(ValueError, match="fidelity"):
            with fidelity_scope("cycle_accurate"):
                pass

    def test_level_sets_counter_depth(self, tiny_spec, mini_cfg):
        from repro import profiling

        expected = {
            "analytical": profiling.MODE_COUNTERS,
            "cycles": profiling.MODE_OFF,
            "counters": profiling.MODE_COUNTERS,
            "timeline": profiling.MODE_TIMELINE,
            "trace": profiling.MODE_TIMELINE,
        }
        for level in FIDELITY_LEVELS:
            with fidelity_scope(level):
                assert profiling.profile_mode() == expected[level], level
            counters = simulate_at_fidelity(
                "sparten", tiny_spec, mini_cfg, seed=0, fidelity=level
            ).counters
            if level == "cycles":
                assert counters is None
                continue
            timeline = expected[level] == profiling.MODE_TIMELINE
            assert (counters.timeline_cycles is not None) == timeline, level

    def test_parallel_map_carries_scoped_level(self, monkeypatch):
        from repro import profiling
        from repro.core.parallel import parallel_map

        monkeypatch.delenv("REPRO_FIDELITY", raising=False)
        assert parallel_map(_timeline_width, [0, 1], jobs=2) == [None, None]
        with fidelity_scope("timeline"):
            widths = parallel_map(_timeline_width, [0, 1], jobs=2)
        assert widths == [profiling.TIMELINE_BINS] * 2

    def test_manifest_records_level_used(self):
        from repro.telemetry.manifest import build_manifest

        assert build_manifest()["fidelity"] == fidelity_level()
        with fidelity_scope("trace"):
            assert build_manifest()["fidelity"] == "trace"

    def test_cli_scopes_level_without_touching_environ(self, tmp_path, capsys):
        from repro import telemetry
        from repro.cli import main

        environ = dict(os.environ)
        manifest = tmp_path / "manifest.json"
        assert main(["run", "fig7", "--fidelity", "timeline",
                     "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["fidelity"] == "timeline"
        assert dict(os.environ) == environ
        assert main(["profile", "--layer", "Layer2", "--schemes", "dense",
                     "--trace", str(tmp_path / "trace.json")]) == 0
        assert dict(os.environ) == environ
        assert main(["estimate", "--layer", "Layer2"]) == 0
        assert dict(os.environ) == environ
        assert fidelity_level() == environ.get("REPRO_FIDELITY", "counters")
        capsys.readouterr()
        telemetry.reset()


class TestMonotonicity:
    def test_cycles_monotone_in_input_density(self, mini_cfg):
        """Denser inputs mean more useful MACs, never fewer cycles."""
        for scheme in ("one_sided", "sparten"):
            previous = 0.0
            for density in (0.15, 0.40, 0.65, 0.90):
                spec = ConvLayerSpec(
                    name=f"mono_{scheme}_{density}",
                    in_height=8, in_width=8, in_channels=24,
                    kernel=3, n_filters=16, padding=1,
                    input_density=density, filter_density=0.5,
                )
                pred = predict_layer(spec, mini_cfg, scheme=scheme, seed=0)
                assert pred.cycles >= previous, (scheme, density)
                previous = pred.cycles


class TestPrescreenedSweep:
    def _grid(self):
        return tuple((c, u) for c in (1, 2) for u in (2, 4))

    def test_result_schema(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        result = prescreened_sweep(
            tiny_spec,
            self._grid(),
            variants=("no_gb", "gb_h"),
            position_sample=None,
            top_k=2,
            stats_sample=None,
        )
        assert set(result) == {"analytical", "survivors", "simulated"}
        assert len(result["analytical"]) == 8
        assert len(result["survivors"]) == 2
        assert set(result["simulated"]) == set(result["survivors"])
        for key, row in result["analytical"].items():
            clusters, units, variant = key
            assert variant in ("no_gb", "gb_h")
            assert row["speedup_vs_dense"] > 0
            assert row["cycles"] > 0
        # Survivors are the top of the analytical ranking.
        ranked = sorted(
            result["analytical"],
            key=lambda g: -result["analytical"][g]["speedup_vs_dense"],
        )
        assert result["survivors"] == ranked[:2]

    @staticmethod
    def _frozen_phase1(spec, geometries, variants, position_sample, seed):
        """The per-point pre-screen loop the grid scorer replaced."""
        scheme_of = {"no_gb": "sparten_no_gb", "gb_s": "sparten_gb_s",
                     "gb_h": "sparten"}
        canonical = HardwareConfig(
            name="prescreen_canonical", n_clusters=1, units_per_cluster=1,
            position_sample=512,
        )
        stats = extract_density_stats(spec, canonical, seed)
        analytical = {}
        for n_clusters, units in geometries:
            cfg = HardwareConfig(
                name=f"sweep_{n_clusters}x{units}", n_clusters=n_clusters,
                units_per_cluster=units, position_sample=position_sample,
            )
            regrouped = regroup_stats(stats, cfg)
            dense = predict_layer(spec, cfg, scheme="dense", stats=regrouped)
            for variant in variants:
                sparse = predict_layer(
                    spec, cfg, scheme=scheme_of[variant], stats=regrouped
                )
                total = sparse.breakdown.total
                analytical[(n_clusters, units, variant)] = {
                    "total_macs": float(cfg.total_macs),
                    "speedup_vs_dense": dense.cycles / sparse.cycles,
                    "cycles": sparse.cycles,
                    "utilization": sparse.breakdown.nonzero_macs / total
                    if total else 0.0,
                    "intra_fraction": sparse.breakdown.intra_loss / total
                    if total else 0.0,
                    "inter_fraction": sparse.breakdown.inter_loss / total
                    if total else 0.0,
                }
        return analytical

    def test_alexnet_layer2_equals_per_point_loop(self):
        """Grid pre-screen == the per-point loop, and feeds no per-point counters."""
        from repro import telemetry
        from repro.nets.models import alexnet
        from repro.sim.sweeps import prescreened_sweep

        spec = alexnet().layer("Layer2")
        geoms = tuple((c, u) for c in (1, 3, 7, 64, 256) for u in (4, 16, 256))
        variants = ("no_gb", "gb_s", "gb_h")
        telemetry.reset()
        result = prescreened_sweep(
            spec, geoms, variants=variants, seed=0, top_k=1,
            final_fidelity="cycles",
        )
        counters = telemetry.snapshot(events=False)["counters"]
        assert counters.get("analytical.predict", 0) == 0
        assert counters["sweep.prescreen.points"] == len(geoms) * len(variants)
        frozen = self._frozen_phase1(spec, geoms, variants, 200, 0)
        assert list(result["analytical"].items()) == list(frozen.items())
        ranked = sorted(frozen, key=lambda g: -frozen[g]["speedup_vs_dense"])
        assert result["survivors"] == ranked[:1]
        telemetry.reset()

    def test_rejects_unknown_variant(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        with pytest.raises(ValueError, match="variants"):
            prescreened_sweep(tiny_spec, self._grid(), variants=("gb_x",))

    def test_rejects_bad_top_k(self, tiny_spec):
        from repro.sim.sweeps import prescreened_sweep

        with pytest.raises(ValueError, match="top_k"):
            prescreened_sweep(tiny_spec, self._grid(), top_k=0)


def test_analytical_schemes_cover_comparison_set():
    """Every scheme the comparison dispatcher knows has an analytical model."""
    for scheme in ("dense", "one_sided", "sparten_no_gb", "sparten_gb_s",
                   "sparten", "scnn"):
        assert scheme in ANALYTICAL_SCHEMES
