"""Differential tests for the cold-path synthesis and chunk-work kernels.

Each fast path is pinned against an independent one:

- wrap-mode smoothing: native kernel == NumPy fallback ==
  ``scipy.ndimage.gaussian_filter`` (bit for bit);
- threshold selection: the band select == ``np.quantile``;
- batched filter pruning == the per-filter ``prune_to_density`` loop;
- pixel-packed chunk work == a frozen copy of the im2col implementation;
- a sha256 digest of every synthesized Table 3 tensor, recorded before
  scipy left the runtime, must not move.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.nets.layers import ConvLayerSpec
from repro.nets.models import alexnet, googlenet, vggnet
from repro.nets.pruning import per_filter_densities, prune_filters, prune_to_density
from repro.nets.synthesis import (
    quantile_threshold,
    smooth_wrap_hw,
    synthesize_input,
    synthesize_layer,
)
from repro.sim import native
from repro.sim.config import HardwareConfig
from repro.sim.kernels import compute_chunk_work, count_dtype
from repro.tensor.sparsemap import padded_length

SIDES = (4, 5, 7, 13, 14, 57)

#: sha256 over every synthesized ``input_map`` then ``filters`` (float64
#: bytes) for all AlexNet, GoogLeNet and VGGNet layers at seeds 0, 1, 7,
#: recorded with ``scipy.ndimage.gaussian_filter`` + ``np.quantile`` +
#: per-filter pruning.
TENSOR_DIGEST = "3182047655677ab6287eebfc1c003282892b5c0b00e87a495f95112060821d65"


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bitwise equality (distinguishes -0.0 from +0.0, unlike ==)."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _scipy_smooth(field: np.ndarray) -> np.ndarray:
    """The reference smoothing (scipy is a test-only dependency)."""
    ndimage = pytest.importorskip("scipy.ndimage")
    return ndimage.gaussian_filter(field, sigma=(1.5, 1.5, 0.0), mode="wrap")


def _counters() -> dict:
    return telemetry.snapshot(events=False)["counters"]


# --------------------------------------------------------------- smoothing


class TestSmoothing:
    @pytest.mark.parametrize("h", SIDES)
    @pytest.mark.parametrize("w", SIDES)
    def test_native_fallback_and_scipy_agree(self, h, w, monkeypatch):
        rng = np.random.default_rng(h * 100 + w)
        for c in (1, 3):
            field = rng.standard_normal((h, w, c))
            want = _scipy_smooth(field)
            fast = smooth_wrap_hw(field.copy(), 1.5)
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
            fallback = smooth_wrap_hw(field.copy(), 1.5)
            monkeypatch.delenv("REPRO_NO_NATIVE")
            assert _same_bits(fallback, want)
            assert _same_bits(fast, want)

    @pytest.mark.parametrize("no_native", [False, True])
    def test_non_contiguous_input_smoothed_in_place(self, no_native, monkeypatch):
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        rng = np.random.default_rng(3)
        views = (
            lambda a: a[:, ::2, :],
            lambda a: a.transpose(1, 0, 2),
            lambda a: a[1:, :, 1:3],
        )
        for take in views:
            base = rng.standard_normal((13, 30, 4))
            before = base.copy()
            view = take(base)
            assert not view.flags.c_contiguous
            want = _scipy_smooth(np.ascontiguousarray(view))
            assert smooth_wrap_hw(view, 1.5) is view
            assert _same_bits(np.ascontiguousarray(view), want)
            outside = np.ones(base.shape, dtype=bool)
            take(outside)[...] = False
            assert _same_bits(base[outside], before[outside])

    def test_large_field_matches_scipy(self):
        field = np.random.default_rng(9).standard_normal((64, 57, 16))
        assert _same_bits(smooth_wrap_hw(field.copy(), 1.5), _scipy_smooth(field))

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            smooth_wrap_hw(np.zeros((4, 4)), 1.5)
        with pytest.raises(ValueError):
            smooth_wrap_hw(np.zeros((4, 4, 2), dtype=np.float32), 1.5)

    def test_dispatch_counters(self, monkeypatch):
        field = np.random.default_rng(0).standard_normal((6, 6, 2))
        telemetry.reset()
        smooth_wrap_hw(field.copy(), 1.5)
        want = (
            "kernel.smooth_native_dispatch"
            if native.available()
            else "kernel.smooth_fallback_dispatch"
        )
        assert _counters().get(want, 0) == 1
        telemetry.reset()
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        smooth_wrap_hw(field.copy(), 1.5)
        assert _counters().get("kernel.smooth_fallback_dispatch", 0) == 1
        telemetry.reset()


# --------------------------------------------------------------- threshold

DENSITIES = (None, 0.001, 0.13, 0.5, 0.999)  # None = 1/n


def _fields():
    rng = np.random.default_rng(11)
    yield "4x4", rng.standard_normal((4, 4, 1))
    yield "smoothed", smooth_wrap_hw(rng.standard_normal((64, 48, 24)), 1.5)
    yield "gaussian", rng.standard_normal((70, 70, 20))
    # Heavy ties: integer values, both small (whole partition) and large
    # (band select) inputs.
    yield "ties_small", rng.integers(0, 3, size=(5, 5, 3)).astype(np.float64)
    yield "ties_large", rng.integers(-4, 5, size=(60, 60, 30)).astype(np.float64)


class TestThreshold:
    @pytest.mark.parametrize("density", DENSITIES)
    def test_equals_numpy_quantile(self, density):
        for name, field in _fields():
            d = 1.0 / field.size if density is None else density
            want = np.quantile(field, 1.0 - d)
            got = quantile_threshold(field, 1.0 - d)
            assert got == want, name
            assert np.array_equal(field > got, field > want), name

    def test_band_miss_falls_back(self):
        # Every strided-sample element is 0, the rest spread far from it:
        # the sample's band brackets nothing useful.
        n = 1 << 17
        flat = np.random.default_rng(5).standard_normal(n) * 100 + 1000
        flat[:: n // (1 << 14)] = 0.0
        for q in (0.3, 0.9, 0.999):
            assert quantile_threshold(flat, q) == np.quantile(flat, q)

    @pytest.mark.parametrize("correlated", [True, False])
    @pytest.mark.parametrize("density", [0.001, 0.13, 0.5, 0.999])
    def test_synthesize_input_equals_reference(self, correlated, density):
        for h, w, c in ((4, 4, 3), (9, 7, 5), (30, 31, 16)):
            spec = ConvLayerSpec(
                name=f"in{h}x{w}x{c}",
                in_height=h,
                in_width=w,
                in_channels=c,
                kernel=3,
                n_filters=4,
                padding=1,
                input_density=density,
                filter_density=0.5,
            )
            got = synthesize_input(spec, np.random.default_rng(2), correlated)
            want = _reference_input(spec, np.random.default_rng(2), correlated)
            assert _same_bits(got, want)


def _reference_input(spec, rng, correlated):
    """synthesize_input as it was with scipy and np.quantile."""
    shape = (spec.in_height, spec.in_width, spec.in_channels)
    magnitudes = np.abs(rng.standard_normal(shape))
    field = rng.standard_normal(shape)
    if correlated and min(spec.in_height, spec.in_width) >= 4:
        field = _scipy_smooth(field)
    mask = field > np.quantile(field, 1.0 - spec.input_density)
    return np.where(mask, magnitudes, 0.0)


# ----------------------------------------------------------------- pruning


def _reference_prune_filters(filters, target, spread, rng):
    """The per-filter loop prune_filters used to run."""
    densities = per_filter_densities(filters.shape[0], target, spread=spread, rng=rng)
    pruned = np.empty_like(filters)
    for f in range(filters.shape[0]):
        pruned[f] = prune_to_density(filters[f], float(densities[f]))
    return pruned


class TestBatchedPruning:
    @pytest.mark.parametrize(
        "shape, target, spread",
        [
            ((64, 3, 3, 16), 0.3, 0.3),
            ((40, 5, 5, 3), 0.6, 0.3),
            ((32, 1, 1, 9), 0.05, 0.3),  # keep == 0 on many filters
            ((32, 1, 1, 9), 0.98, 0.5),  # keep == size on many filters
            ((16, 2, 2, 4), 0.5, 2.0),  # both extremes in one bank
        ],
    )
    def test_equals_per_filter_loop(self, shape, target, spread):
        filters = np.random.default_rng(4).standard_normal(shape)
        got = prune_filters(filters, target, spread, np.random.default_rng(8))
        want = _reference_prune_filters(filters, target, spread, np.random.default_rng(8))
        assert _same_bits(got, want)

    def test_keep_extremes_are_exercised(self):
        # The (32, 1, 1, 9) banks above really draw keep == 0 / keep == size.
        low = per_filter_densities(32, 0.05, 0.3, np.random.default_rng(8))
        high = per_filter_densities(32, 0.98, 0.5, np.random.default_rng(8))
        assert (np.rint(low * 9) == 0).any()
        assert (np.rint(high * 9) == 9).any()

    def test_tied_magnitudes_keep_exact_counts(self):
        # Integer weights tie at the threshold: the batched mask alone
        # would keep extras, so tied filters fall back to the exact loop.
        filters = np.random.default_rng(6).integers(-3, 4, size=(24, 3, 3, 8)) * 1.0
        got = prune_filters(filters, 0.4, 0.3, np.random.default_rng(1))
        want = _reference_prune_filters(filters, 0.4, 0.3, np.random.default_rng(1))
        assert _same_bits(got, want)


# -------------------------------------------------------------- chunk work


def _reference_chunk_work(data, cfg, need_counts):
    """The im2col compute_chunk_work, frozen: every window's mask gathered
    into one (n_sel, n_chunks, chunk) tensor, then packed per window."""
    from repro.sim.kernels import assign_positions

    popcount = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
        axis=1
    )
    spec = data.spec
    chunk = cfg.chunk_size
    padded_c = padded_length(spec.in_channels, chunk)
    cpc = padded_c // chunk
    kk = spec.kernel * spec.kernel
    n_chunks = kk * cpc
    sel = assign_positions(spec.out_positions, cfg.n_clusters, cfg.position_sample).indices
    rows = (sel // spec.out_width) * spec.stride
    cols = (sel % spec.out_width) * spec.stride
    p = spec.padding
    padded = np.zeros(
        (spec.in_height + 2 * p, spec.in_width + 2 * p, spec.in_channels), dtype=bool
    )
    padded[p : p + spec.in_height, p : p + spec.in_width] = data.input_mask
    windows = np.zeros((sel.size, n_chunks, chunk), dtype=bool)
    wview = windows.reshape(sel.size, kk, padded_c)
    for idx in range(kk):
        ky, kx = divmod(idx, spec.kernel)
        wview[:, idx, : spec.in_channels] = padded[rows + ky, cols + kx, :]
    fmask = np.zeros((spec.n_filters, n_chunks, chunk), dtype=bool)
    fmask.reshape(spec.n_filters, kk, padded_c)[:, :, : spec.in_channels] = (
        data.filter_masks.reshape(spec.n_filters, kk, spec.in_channels)
    )
    win_packed = np.packbits(windows, axis=-1)
    filt_packed = np.packbits(fmask, axis=-1)
    words = (chunk + 63) // 64

    def as_words(packed):
        widened = np.zeros(packed.shape[:-1] + (words * 8,), dtype=np.uint8)
        widened[..., : packed.shape[-1]] = packed
        return widened.view(np.uint64)

    flat = windows.reshape(sel.size, -1).astype(np.float64)
    out = {
        "input_pop": popcount[win_packed].sum(axis=-1, dtype=np.int32).T,
        "filter_chunk_nnz": popcount[filt_packed].sum(axis=-1, dtype=np.int64),
        "match_sums": flat @ fmask.sum(axis=0, dtype=np.float64).reshape(-1),
        "bytes_packed": win_packed.nbytes + filt_packed.nbytes,
    }
    if need_counts:
        out["win_words"] = as_words(win_packed).transpose(1, 0, 2)
        out["filt_words"] = as_words(filt_packed).transpose(1, 2, 0)
        out["counts"] = np.matmul(
            windows.transpose(1, 0, 2).astype(np.float32),
            fmask.transpose(1, 2, 0).astype(np.float32),
        ).astype(count_dtype(chunk))
    return out


def _chunk_cases():
    specs = [
        # (h, w, c, kernel, filters, stride, padding)
        (9, 8, 10, 3, 7, 1, 1),
        (11, 11, 6, 3, 5, 2, 1),
        (17, 17, 3, 5, 9, 4, 2),  # stride 4, C far below the chunk
        (6, 7, 40, 1, 12, 1, 0),  # 1x1 kernel, several chunks per pixel
        (8, 8, 25, 3, 6, 2, 0),
    ]
    for i, (h, w, c, k, f, s, p) in enumerate(specs):
        spec = ConvLayerSpec(
            name=f"cw{i}",
            in_height=h,
            in_width=w,
            in_channels=c,
            kernel=k,
            n_filters=f,
            stride=s,
            padding=p,
            input_density=0.45,
            filter_density=0.4,
        )
        for chunk in (12, 16, 20, 70):  # 12/20/70 are not multiples of 8
            for sample in (None, 5):
                cfg = HardwareConfig(
                    name="cw",
                    n_clusters=3,
                    units_per_cluster=4,
                    chunk_size=chunk,
                    position_sample=sample,
                )
                yield spec, cfg


class TestChunkWork:
    @pytest.mark.parametrize("fuse", ["auto", "on", "off"])
    @pytest.mark.parametrize("no_native", [False, True])
    def test_equals_im2col_reference(self, fuse, no_native, monkeypatch):
        monkeypatch.setenv("REPRO_FUSE", fuse)
        if no_native:
            monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        for spec, cfg in _chunk_cases():
            data = synthesize_layer(spec, seed=3)
            for need_counts in (True, False):
                want = _reference_chunk_work(data, cfg, need_counts)
                telemetry.reset()
                got = compute_chunk_work(data, cfg, need_counts=need_counts)
                label = (spec.name, cfg.chunk_size, cfg.position_sample, need_counts)
                assert _counters()["kernel.bytes_packed"] == want["bytes_packed"], label
                assert _same_bits(got.input_pop, want["input_pop"]), label
                assert got.input_pop.flags.c_contiguous
                assert _same_bits(got.filter_chunk_nnz, want["filter_chunk_nnz"]), label
                assert _same_bits(got.match_sums, want["match_sums"]), label
                if not need_counts:
                    assert got.counts is None and got.packed is None
                    continue
                if got.packed is not None:
                    assert got.counts is None
                    assert _same_bits(got.packed.win_words, want["win_words"]), label
                    assert _same_bits(got.packed.filt_words, want["filt_words"]), label
                    counts = got.materialized_counts()
                else:
                    counts = got.counts
                assert _same_bits(counts, want["counts"]), label
        telemetry.reset()


# ------------------------------------------------------------ digest pin


def test_synthesized_tensor_digest_is_pinned():
    digest = hashlib.sha256()
    for net in (alexnet(), googlenet(), vggnet()):
        for spec in net.layers:
            for seed in (0, 1, 7):
                data = synthesize_layer(spec, seed=seed)
                for arr in (data.input_map, data.filters):
                    assert arr.dtype == np.float64 and arr.flags.c_contiguous
                    digest.update(arr.tobytes())
    assert digest.hexdigest() == TENSOR_DIGEST


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.cli, sys; "
            "from repro.sim import native; native.available(); "
            "sys.exit('scipy' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
