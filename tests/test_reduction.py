"""The fused scheme-reduction engine: bit-exactness, fusion, caching.

The engine (:mod:`repro.sim.reduce`) promises that every path -- native
``reduce_pairs`` over materialized counts, native ``fused_reduce_pairs``
straight from packed masks, and the blocked NumPy fallback for either --
is *bit-identical* to the original Python group loops the simulators
shipped with. These tests pin that promise across variants, sided modes,
chunk sizes, collocation, sampled positions and ``REPRO_FUSE`` /
``REPRO_NO_NATIVE`` settings; they also cover the satellites: the
batch-path workload-cache routing, exact ``_pair_nbytes`` accounting,
and the reduce-dispatch telemetry counters.

The reference loops below are frozen copies of the pre-engine
``_two_sided_cluster_cycles`` / dynamic group-sweep bodies (the same
copies the benchmarks time in ``benchmarks/_seed_reference.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core import workload
from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim import native, reduce
from repro.sim.config import HardwareConfig
from repro.sim.dynamic import simulate_dynamic_dispatch
from repro.sim.kernels import compute_chunk_work
from repro.sim.sparten import (
    simulate_sparten,
    sparten_variant_plan,
    two_sided_reduction_spec,
)

VARIANTS = ("no_gb", "gb_s", "gb_h")
CHUNK_SIZES = (64, 128, 256)


# ---------------------------------------------------------------------------
# Frozen reference loops (the pre-engine reduction semantics).


def _gather_pair_work(counts, a_idx, b_idx):
    n_chunks, n_sel, _ = counts.shape
    out = np.zeros((n_chunks, n_sel, a_idx.size), dtype=np.float64)
    valid_a = a_idx >= 0
    if np.any(valid_a):
        out[:, :, valid_a] += counts[:, :, a_idx[valid_a]]
    valid_b = b_idx >= 0
    if np.any(valid_b):
        out[:, :, valid_b] += counts[:, :, b_idx[valid_b]]
    return out


def reference_two_sided(counts, plan, units, bisection_width, collocate):
    """The original per-group Python loops, verbatim semantics."""
    n_chunks, n_sel, n_filters = counts.shape
    use_network = collocate and plan.variant == "gb_h" and units >= 2
    barrier_acc = np.zeros(n_sel, dtype=np.float64)
    busy_acc = np.zeros(n_sel, dtype=np.float64)
    permute_acc = np.zeros(n_sel, dtype=np.float64)
    if collocate and plan.variant == "gb_s":
        pair_a, pair_b = plan.pairing[:, 0], plan.pairing[:, 1]
        for base in range(0, plan.pairing.shape[0], units):
            gw = _gather_pair_work(
                counts, pair_a[base : base + units], pair_b[base : base + units]
            )
            barrier_acc += np.maximum(gw.max(axis=2), 1).sum(axis=0)
            busy_acc += gw.sum(axis=(0, 2))
    elif collocate and plan.variant == "gb_h":
        n_pairs = plan.chunk_pairing.shape[1]
        for base in range(0, n_pairs, units):
            pair_slice = plan.chunk_pairing[:, base : base + units, :]
            shipped = np.zeros(n_chunks, dtype=np.float64)
            if n_chunks > 1:
                shipped[:-1] = (pair_slice[1:] != pair_slice[:-1]).sum(axis=(1, 2))
            shipped[-1] = 2.0 * units
            route_floor = np.ceil(shipped / 2.0 / bisection_width)
            barrier = np.zeros((n_chunks, n_sel), dtype=np.float64)
            busy = np.zeros((n_chunks, n_sel), dtype=np.float64)
            for c in range(n_chunks):
                gw = _gather_pair_work(
                    counts[c : c + 1], pair_slice[c, :, 0], pair_slice[c, :, 1]
                )[0]
                barrier[c] = np.maximum(gw.max(axis=1), 1)
                busy[c] = gw.sum(axis=1)
            if use_network:
                floor = route_floor[:, None]
                permute_acc += np.maximum(0.0, floor - barrier).sum(axis=0)
                barrier = np.maximum(barrier, floor)
            barrier_acc += barrier.sum(axis=0)
            busy_acc += busy.sum(axis=0)
    else:
        for base in range(0, n_filters, units):
            gw = counts[:, :, plan.order[base : base + units]].astype(np.float64)
            barrier_acc += np.maximum(gw.max(axis=2), 1).sum(axis=0)
            busy_acc += gw.sum(axis=2).sum(axis=0)
    return barrier_acc, busy_acc, permute_acc


def reference_dynamic(counts, units):
    """The original dynamic-dispatch makespan sweep, verbatim semantics."""
    counts = counts.astype(np.float64)
    _, n_sel, n_filters = counts.shape
    barrier_acc = np.zeros(n_sel, dtype=np.float64)
    busy_acc = np.zeros(n_sel, dtype=np.float64)
    for base in range(0, n_filters, 2 * units):
        group = counts[:, :, base : base + 2 * units]
        total = group.sum(axis=2)
        barrier = np.maximum(
            np.maximum(np.ceil(total / units), group.max(axis=2)), 1.0
        )
        barrier_acc += barrier.sum(axis=0)
        busy_acc += total.sum(axis=0)
    return barrier_acc, busy_acc


# ---------------------------------------------------------------------------
# Fixtures.


def _cfg(chunk_size=64, units=4, bisection_width=2, **kw) -> HardwareConfig:
    return HardwareConfig(
        name=f"red{chunk_size}",
        n_clusters=3,
        units_per_cluster=units,
        chunk_size=chunk_size,
        bisection_width=bisection_width,
        scnn_pe_grid=(2, 2),
        scnn_max_tile=3,
        **kw,
    )


@pytest.fixture(scope="module")
def deep_spec() -> ConvLayerSpec:
    """Enough channels for multiple chunks at every tested chunk size."""
    return ConvLayerSpec(
        name="deep",
        in_height=6,
        in_width=6,
        in_channels=300,
        kernel=3,
        n_filters=22,
        stride=1,
        padding=1,
        input_density=0.5,
        filter_density=0.4,
    )


@pytest.fixture(scope="module")
def deep_data(deep_spec):
    return synthesize_layer(deep_spec, seed=3)


def _counts_and_fused(data, cfg, monkeypatch):
    """The same workload, materialized and fused."""
    monkeypatch.setenv("REPRO_FUSE", "off")
    work = compute_chunk_work(data, cfg, need_counts=True)
    monkeypatch.setenv("REPRO_FUSE", "on")
    fused = compute_chunk_work(data, cfg, need_counts=True)
    assert work.counts is not None
    assert fused.counts is None and fused.packed is not None
    return work, fused


# ---------------------------------------------------------------------------
# Engine vs the frozen seed loops, every path.


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_engine_matches_seed_loop(
    deep_data, variant, chunk_size, no_native, monkeypatch
):
    cfg = _cfg(chunk_size=chunk_size)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work, fused = _counts_and_fused(deep_data, cfg, monkeypatch)
    plan = sparten_variant_plan(deep_data, cfg, variant)
    units = cfg.units_per_cluster
    for collocate in (plan.collocated, False):
        rspec = two_sided_reduction_spec(plan, cfg, collocate)
        ref = reference_two_sided(
            work.counts, plan, units, cfg.bisection_width, collocate
        )
        for w in (work, fused):  # counts path, then the fused packed path
            red = reduce.reduce_scheme(w, rspec)
            assert np.array_equal(red.barrier, ref[0])
            assert np.array_equal(red.busy, ref[1])
            assert np.array_equal(red.permute, ref[2])


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_dynamic_engine_matches_seed_loop(
    deep_data, chunk_size, no_native, monkeypatch
):
    cfg = _cfg(chunk_size=chunk_size)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work, fused = _counts_and_fused(deep_data, cfg, monkeypatch)
    units = cfg.units_per_cluster
    rspec = reduce.order_groups(
        np.arange(deep_data.spec.n_filters, dtype=np.int64),
        2 * units,
        dyn_units=units,
    )
    ref = reference_dynamic(work.counts, units)
    for w in (work, fused):
        red = reduce.reduce_scheme(w, rspec)
        assert np.array_equal(red.barrier, ref[0])
        assert np.array_equal(red.busy, ref[1])
        assert np.array_equal(red.permute, np.zeros_like(ref[0]))


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
def test_gb_h_floors_bind_on_thin_network(deep_data, no_native, monkeypatch):
    """bisection_width=1 makes routing floors bind -> unhidden permute."""
    cfg = _cfg(chunk_size=64, bisection_width=1)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work, _ = _counts_and_fused(deep_data, cfg, monkeypatch)
    plan = sparten_variant_plan(deep_data, cfg, "gb_h")
    rspec = two_sided_reduction_spec(plan, cfg, True)
    assert rspec.floors is not None
    red = reduce.reduce_scheme(work, rspec)
    ref = reference_two_sided(work.counts, plan, cfg.units_per_cluster, 1, True)
    assert np.array_equal(red.barrier, ref[0])
    assert np.array_equal(red.permute, ref[2])
    assert red.permute.sum() > 0  # the thin network actually stalls


@pytest.mark.parametrize("no_native", [False, True], ids=["native", "fallback"])
def test_engine_with_sampled_positions(deep_data, no_native, monkeypatch):
    cfg = _cfg(chunk_size=64, position_sample=4)
    if no_native:
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    work, fused = _counts_and_fused(deep_data, cfg, monkeypatch)
    assert work.counts.shape[1] < deep_data.spec.out_positions
    for variant in VARIANTS:
        plan = sparten_variant_plan(deep_data, cfg, variant)
        rspec = two_sided_reduction_spec(plan, cfg, plan.collocated)
        ref = reference_two_sided(
            work.counts, plan, cfg.units_per_cluster, cfg.bisection_width,
            plan.collocated,
        )
        for w in (work, fused):
            red = reduce.reduce_scheme(w, rspec)
            assert np.array_equal(red.barrier, ref[0])
            assert np.array_equal(red.busy, ref[1])
            assert np.array_equal(red.permute, ref[2])


@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
def test_counts_regenerated_from_packed_are_exact(
    deep_data, chunk_size, monkeypatch
):
    cfg = _cfg(chunk_size=chunk_size)
    work, fused = _counts_and_fused(deep_data, cfg, monkeypatch)
    assert np.array_equal(reduce.counts_from_packed(fused.packed), work.counts)
    assert np.array_equal(fused.materialized_counts(), work.counts)
    # The NumPy regeneration path is exact too.
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    assert np.array_equal(reduce.counts_from_packed(fused.packed), work.counts)


# ---------------------------------------------------------------------------
# Whole-simulator results are byte-identical across REPRO_FUSE modes.


def _fuse_mode_results(spec, cfg, mode, monkeypatch):
    monkeypatch.setenv("REPRO_FUSE", mode)
    workload.clear_caches()  # the result memo must not key on fuse mode
    out = []
    for variant in VARIANTS:
        for sided in ("two", "one"):
            out.append(
                simulate_sparten(spec, cfg, variant=variant, sided=sided, seed=0)
            )
    out.append(simulate_dynamic_dispatch(spec, cfg, seed=0))
    return out


def test_results_identical_across_fuse_modes(deep_spec, monkeypatch, at_level):
    at_level("counters")
    cfg = _cfg(chunk_size=64, batch=2)
    baseline = _fuse_mode_results(deep_spec, cfg, "off", monkeypatch)
    for mode in ("on", "auto"):
        for got, want in zip(
            _fuse_mode_results(deep_spec, cfg, mode, monkeypatch), baseline
        ):
            assert got == want  # cycles, breakdown, traffic, extras
            for name in ("busy", "barrier_wait", "permute_stall",
                         "imbalance_idle", "filter_zero"):
                assert np.array_equal(
                    got.counters.bucket(name), want.counters.bucket(name)
                ), (got.scheme, name)
            assert got.counters.barriers == want.counters.barriers


def test_conservation_holds_under_fusion(deep_spec, monkeypatch, at_level):
    at_level("counters")
    monkeypatch.setenv("REPRO_FUSE", "on")
    workload.clear_caches()
    cfg = _cfg(chunk_size=64)
    for variant in VARIANTS:
        for sided in ("two", "one"):
            result = simulate_sparten(deep_spec, cfg, variant=variant, sided=sided)
            assert result.counters.check_conservation(rtol=1e-9) <= 1e-9
    result = simulate_dynamic_dispatch(deep_spec, cfg)
    assert result.counters.check_conservation(rtol=1e-9) <= 1e-9


# ---------------------------------------------------------------------------
# Telemetry: reduction dispatches are observable.


def test_reduce_dispatch_counters(deep_data, monkeypatch):
    cfg = _cfg(chunk_size=64)
    work, _ = _counts_and_fused(deep_data, cfg, monkeypatch)
    plan = sparten_variant_plan(deep_data, cfg, "gb_s")
    rspec = two_sided_reduction_spec(plan, cfg, True)
    telemetry.reset()
    reduce.reduce_scheme(work, rspec)
    counters = telemetry.snapshot(events=False)["counters"]
    if native.available():
        assert counters.get("kernel.reduce_native_dispatch", 0) == 1
    else:
        assert counters.get("kernel.reduce_fallback_dispatch", 0) == 1
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    telemetry.reset()
    reduce.reduce_scheme(work, rspec)
    counters = telemetry.snapshot(events=False)["counters"]
    assert counters.get("kernel.reduce_fallback_dispatch", 0) == 1
    telemetry.reset()


# ---------------------------------------------------------------------------
# Satellite: batch loops route per-image workloads through the cache.


def test_batch_paths_share_workload_cache(deep_spec, monkeypatch):
    monkeypatch.setenv("REPRO_FUSE", "off")
    cfg = _cfg(chunk_size=64, batch=3)
    workload.clear_caches()
    simulate_sparten(deep_spec, cfg, variant="gb_h", seed=0)
    first = workload.cache_stats()["workloads"]
    assert first["misses"] >= cfg.batch  # one compute per image
    assert first["hits"] == 0
    # A different simulator over the same batch reuses every image.
    simulate_dynamic_dispatch(deep_spec, cfg, seed=0)
    second = workload.cache_stats()["workloads"]
    assert second["misses"] == first["misses"]
    assert second["hits"] >= cfg.batch
    workload.clear_caches()


def test_fused_entry_satisfies_counts_request(deep_spec, monkeypatch):
    """A cached packed-only workload serves need_counts callers."""
    monkeypatch.setenv("REPRO_FUSE", "on")
    cfg = _cfg(chunk_size=64)
    workload.clear_caches()
    _, work = workload.get_workload(deep_spec, cfg, seed=0, need_counts=True)
    assert work.counts is None and work.packed is not None
    before = workload.cache_stats()["workloads"]["misses"]
    _, again = workload.get_workload(deep_spec, cfg, seed=0, need_counts=True)
    assert again is work
    assert workload.cache_stats()["workloads"]["misses"] == before
    workload.clear_caches()


# ---------------------------------------------------------------------------
# Satellite: exact workload-cache byte accounting.


def _expected_pair_nbytes(pair):
    data, work = pair
    arrays = [
        data.input_map,
        data.filters,
        work.input_pop,
        work.match_sums,
        work.filter_chunk_nnz,
        work.assignment.indices,
        work.assignment.cluster_of,
        work.assignment.weight_of,
        work.assignment.cluster_positions,
    ]
    if work.counts is not None:
        arrays.append(work.counts)
    total = sum(a.nbytes for a in arrays)
    if work.packed is not None:
        total += work.packed.nbytes
    return total


@pytest.mark.parametrize("fuse", ["off", "on"])
def test_pair_nbytes_counts_every_array(deep_spec, fuse, monkeypatch):
    monkeypatch.setenv("REPRO_FUSE", fuse)
    workload.clear_caches()
    pair = workload.get_workload(deep_spec, _cfg(chunk_size=64), seed=0)
    assert workload._pair_nbytes(pair) == _expected_pair_nbytes(pair)
    # The assignment arrays alone are non-trivial: undercounting them
    # would let the LRU hold far more than REPRO_CACHE_BYTES.
    assignment_bytes = (
        pair[1].assignment.cluster_of.nbytes
        + pair[1].assignment.weight_of.nbytes
        + pair[1].assignment.cluster_positions.nbytes
    )
    assert assignment_bytes > 0
    assert workload._pair_nbytes(pair) >= assignment_bytes
    workload.clear_caches()
