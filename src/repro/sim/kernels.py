"""Vectorised chunk-level work kernels shared by the simulators.

The cycle models need, for every output position and every chunk of the
linearised filter/window vectors, the *match count* -- the number of
positions non-zero in both the input window chunk and a filter chunk.
That count is exactly the compute unit's busy cycles for that chunk
(one multiply-accumulate per matched pair), so the simulators reduce over
these arrays instead of walking the step-wise functional model; tests
assert both paths agree.

The key identity: the match count between a binary window row and a
binary filter row is their integer dot product -- equivalently the
popcount of the AND of the two bit-packed masks. A window chunk is one
input pixel's chunk of channels, so the kernel bit-packs (and
popcounts) every padded pixel's channel mask *once* with
:func:`np.packbits`, rather than once per window that covers it, and
gathers the packed words at the window origins for each kernel
position. Then:

- ``input_pop`` / ``filter_chunk_nnz`` are integer counts of the masks
  (no float work at all);
- match counts come from the compiled AND+popcount kernel in
  :mod:`repro.sim.native` when it is available, else from a blocked
  float32 GEMM over the unpacked masks
  (:func:`repro.sim.reduce.counts_from_packed`);
- when no counts are materialized (``need_counts=False`` or fused
  workloads), the per-position totals come from one pixel-level GEMM
  against the filter column sums of each kernel position, gathered at
  the window origins -- never the ``(n_chunks, n_sel, F)`` tensor.

Every intermediate on every path is an exact small integer (far below
2**24, float32's exact-integer range), so all paths are bit-identical to
the original per-chunk loop; the tests pin that equivalence.

Positions can be *sampled* (evenly spaced within each cluster's slice,
with exact rescaling weights) to bound the cost of very large layers;
``position_sample=None`` is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.nets.synthesis import LayerData
from repro.sim import native, reduce
from repro.sim.config import HardwareConfig
from repro.tensor.sparsemap import padded_length
from repro.tensor.storage import even_slices

__all__ = [
    "PositionAssignment",
    "PackedMasks",
    "ChunkWork",
    "assign_positions",
    "batch_workloads",
    "compute_chunk_work",
    "count_dtype",
]

#: float64 pixel-mask elements per match-totals GEMM block (bounds the
#: temporary to 2 MB regardless of layer size).
_GEMM_BLOCK_ELEMS = 1 << 18


def count_dtype(chunk_size: int) -> np.dtype:
    """Smallest unsigned dtype holding a full-chunk match count.

    A fully dense chunk matches ``chunk_size`` times, so uint8 only works
    up to 255 -- at ``chunk_size=256`` it would wrap 256 to 0.
    """
    if chunk_size <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if chunk_size <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


@dataclass(frozen=True)
class PositionAssignment:
    """Which output positions each cluster owns, and which are simulated.

    Attributes:
        indices: flat (row-major) output-position indices simulated.
        cluster_of: owning cluster of each simulated position.
        weight_of: rescale weight of each simulated position (1.0 when
            exact; cluster_positions/sampled when sampled).
        cluster_positions: true position counts per cluster.
    """

    indices: np.ndarray
    cluster_of: np.ndarray
    weight_of: np.ndarray
    cluster_positions: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.cluster_positions.size)


def assign_positions(
    n_positions: int, n_clusters: int, position_sample: int | None
) -> PositionAssignment:
    """Slice output positions across clusters; optionally sample each slice.

    Positions are row-major over the output map, sliced contiguously (the
    paper's X/Y output slicing); sampling takes evenly spaced positions
    within each slice so spatial structure is preserved. Because the
    picks are rounded then deduplicated with ``np.unique``, a cluster can
    end up with *fewer* than ``position_sample`` picks; the weights are
    computed from the actual pick count (``n / picks.size``), so each
    cluster's weights always sum exactly to its true position count.
    """
    if n_positions < 1:
        raise ValueError(f"need at least one output position, got {n_positions}")
    if position_sample is not None and position_sample < 1:
        raise ValueError(
            f"position_sample must be >= 1 or None, got {position_sample}"
        )
    slices = even_slices(n_positions, n_clusters)
    counts = np.array([hi - lo for lo, hi in slices], dtype=np.int64)
    index_blocks = []
    cluster_blocks = []
    weight_blocks = []
    for cluster, (lo, hi) in enumerate(slices):
        n = hi - lo
        if n == 0:
            continue
        if position_sample is not None and n > position_sample:
            picks = lo + np.unique(
                np.linspace(0, n - 1, position_sample).round().astype(np.int64)
            )
        else:
            picks = np.arange(lo, hi, dtype=np.int64)
        index_blocks.append(picks)
        cluster_blocks.append(np.full(picks.size, cluster, dtype=np.int64))
        weight_blocks.append(np.full(picks.size, n / picks.size, dtype=np.float64))
    return PositionAssignment(
        indices=np.concatenate(index_blocks),
        cluster_of=np.concatenate(cluster_blocks),
        weight_of=np.concatenate(weight_blocks),
        cluster_positions=counts,
    )


@dataclass(frozen=True)
class PackedMasks:
    """Bit-packed window/filter masks in the native kernels' layout.

    When fusion is active these replace the counts tensor as the cached
    representation: ~``chunk_size / 8`` the bytes per (position, chunk)
    row, and the fused reduction engine streams match counts from them
    without ever materializing ``(n_chunks, n_sel, F)``.

    Attributes:
        win_words: (n_chunks, n_sel, words) uint64 window masks.
        filt_words: (n_chunks, words, F) uint64 word-major filter masks.
        chunk_size: mask bits per chunk (trailing word bits are zero).
    """

    win_words: np.ndarray
    filt_words: np.ndarray
    chunk_size: int

    @property
    def nbytes(self) -> int:
        return int(self.win_words.nbytes + self.filt_words.nbytes)


@dataclass(frozen=True)
class ChunkWork:
    """Per-chunk work counts at the simulated output positions.

    Exactly one of ``counts`` / ``packed`` is set when two-sided work was
    requested (``REPRO_FUSE`` decides which); both are ``None`` when the
    caller only needs one-sided/dense quantities.

    Attributes:
        counts: (n_chunks, n_sel, F) match counts, or ``None`` when the
            workload is fused (see ``packed``) or when only one-sided
            quantities were requested. The dtype is the smallest unsigned
            integer that can hold ``chunk_size`` (uint8 up to 255, see
            :func:`count_dtype`).
        packed: the bit-packed masks the fused reduction engine consumes
            instead of ``counts``, or ``None`` when counts are
            materialized (:mod:`repro.sim.reduce` explains the modes).
        input_pop: (n_chunks, n_sel) non-zero input-window counts per
            chunk (one-sided work; identical for every compute unit).
        match_sums: (n_sel,) total matches across all chunks and filters
            (the layer's useful MACs at each position).
        assignment: the position assignment the arrays are indexed by.
        n_chunks: chunks per linearised filter/window vector.
        filter_chunk_nnz: (F, n_chunks) filter chunk non-zero counts
            (greedy balancing's density proxy).
    """

    counts: np.ndarray | None
    input_pop: np.ndarray
    match_sums: np.ndarray
    assignment: PositionAssignment
    n_chunks: int
    filter_chunk_nnz: np.ndarray
    packed: PackedMasks | None = None

    def materialized_counts(self) -> np.ndarray:
        """The counts tensor, regenerating it from packed masks if fused.

        For consumers that genuinely need per-filter counts (balance
        oracles, traces, characterisation). Exact on every path, but
        O(n_chunks * n_sel * F) memory -- simulators should reduce
        through :func:`repro.sim.reduce.reduce_scheme` instead.
        """
        if self.counts is not None:
            return self.counts
        if self.packed is None:
            raise ValueError(
                "workload carries no match counts (computed with "
                "need_counts=False)"
            )
        telemetry.count("kernel.counts_rematerialized")
        return reduce.counts_from_packed(self.packed)


def compute_chunk_work(
    data: LayerData,
    cfg: HardwareConfig,
    need_counts: bool = True,
) -> ChunkWork:
    """Compute all chunk-level work arrays for one layer workload.

    Chunks follow the storage layout: Z-first, each kernel position's
    channels padded to whole chunks, so chunk
    ``(ky*k + kx) * cpc + cz`` covers channels ``[cz*n, (cz+1)*n)`` at
    kernel position (ky, kx).

    Every window chunk is one pixel's chunk, so each (spatially padded)
    pixel's channel mask is packed and popcounted once; the windows'
    words and counts are then gathered per kernel position at the
    window origins.
    """
    spec = data.spec
    chunk = cfg.chunk_size
    padded_c = padded_length(spec.in_channels, chunk)
    cpc = padded_c // chunk
    kk = spec.kernel * spec.kernel
    n_chunks = kk * cpc
    nbytes = (chunk + 7) // 8
    words = (chunk + 63) // 64

    assignment = assign_positions(
        spec.out_positions, cfg.n_clusters, cfg.position_sample
    )
    sel = assignment.indices
    n_sel = sel.size
    n_filters = spec.n_filters
    pad = spec.padding
    hp = spec.in_height + 2 * pad
    wp = spec.in_width + 2 * pad
    # Window origins as flat indices into the padded (hp, wp) pixel grid.
    origins = (sel // spec.out_width) * (spec.stride * wp) + (
        sel % spec.out_width
    ) * spec.stride

    # Pack every padded pixel's chunk-padded channel mask once: partial
    # channel chunks carry zeros exactly like the storage layout.
    pixels = np.zeros((hp, wp, padded_c), dtype=bool)
    np.not_equal(
        data.input_map,
        0,
        out=pixels[
            pad : pad + spec.in_height, pad : pad + spec.in_width, : spec.in_channels
        ],
    )
    pixels = pixels.reshape(hp * wp, cpc, chunk)
    pix_packed = np.packbits(pixels, axis=-1)
    pix_pop = np.ascontiguousarray(pixels.sum(axis=-1, dtype=np.int32).T)  # (cpc, P)
    del pixels
    fmask = np.zeros((n_filters, kk, padded_c), dtype=bool)
    np.not_equal(
        data.filters.reshape(n_filters, kk, spec.in_channels),
        0,
        out=fmask[:, :, : spec.in_channels],
    )
    fmask = fmask.reshape(n_filters, n_chunks, chunk)
    filt_packed = np.packbits(fmask, axis=-1)
    filter_chunk_nnz = fmask.sum(axis=-1, dtype=np.int64)
    del fmask
    telemetry.count("kernel.positions_simulated", n_sel)
    telemetry.count("kernel.bytes_packed", (n_sel + n_filters) * n_chunks * nbytes)

    # Gather per kernel position into the native layout: input_pop
    # (n_chunks, n_sel) and, for two-sided work, window words
    # (n_chunks, n_sel, words).
    input_pop = np.empty((n_chunks, n_sel), dtype=np.int32)
    w64 = None
    if need_counts:
        pix_words = np.ascontiguousarray(
            _as_words(pix_packed, words).transpose(1, 0, 2)
        )  # (cpc, P, words)
        w64 = np.empty((n_chunks, n_sel, words), dtype=np.uint64)
    for idx in range(kk):
        ky, kx = divmod(idx, spec.kernel)
        at = origins + (ky * wp + kx)
        rows = slice(idx * cpc, (idx + 1) * cpc)
        np.take(pix_pop, at, axis=1, out=input_pop[rows])
        if w64 is not None:
            np.take(pix_words, at, axis=1, out=w64[rows])

    counts = None
    packed = None
    match_sums = None
    if need_counts:
        dtype = count_dtype(chunk)
        # (n_chunks, words, F) word-major filter words -- the native
        # kernel's layout contract.
        f64 = np.ascontiguousarray(_as_words(filt_packed, words).transpose(1, 2, 0))
        counts_nbytes = n_chunks * n_sel * n_filters * dtype.itemsize
        if reduce.fusion_active(counts_nbytes):
            # Fused mode: the simulators reduce straight from the packed
            # masks; the counts tensor is never materialized.
            telemetry.count("kernel.fused_workload")
            packed = PackedMasks(win_words=w64, filt_words=f64, chunk_size=chunk)
        else:
            got = native.match_counts(w64, f64, n_filters, dtype)
            if got is not None:
                telemetry.count("kernel.native_dispatch")
                counts, pos_sums = got
                match_sums = pos_sums.astype(np.float64)
            else:
                telemetry.count("kernel.gemm_dispatch")
                counts = reduce.counts_from_packed(
                    PackedMasks(win_words=w64, filt_words=f64, chunk_size=chunk)
                )
    else:
        telemetry.count("kernel.matvec_dispatch")
    if match_sums is None:
        match_sums = _match_totals(data, origins, hp, wp)

    return ChunkWork(
        counts=counts,
        input_pop=input_pop,
        match_sums=match_sums,
        assignment=assignment,
        n_chunks=n_chunks,
        filter_chunk_nnz=filter_chunk_nnz,
        packed=packed,
    )


def batch_workloads(
    spec,
    cfg: HardwareConfig,
    seed: int,
    data: LayerData | None,
    work: ChunkWork | None,
    need_counts: bool,
):
    """Yield each batch image's ``(data, work)``, memoised when possible.

    When *data* is supplied the caller owns the (single-image) workload
    and only missing chunk work is computed. Otherwise every image routes
    through :func:`repro.core.workload.get_workload`, so batched
    simulator runs hit the LRU and disk store exactly like the
    single-image comparison path does.
    """
    if data is not None:
        if work is None:
            work = compute_chunk_work(data, cfg, need_counts=need_counts)
        yield data, work
        return
    # Lazy import: repro.core.__init__ pulls in the simulators, which
    # import this module.
    from repro.core import workload

    for image in range(cfg.batch):
        yield workload.get_workload(spec, cfg, seed + image, need_counts=need_counts)


def _as_words(packed: np.ndarray, words: int) -> np.ndarray:
    """View packed mask bytes as uint64 words, zero-padding the tail."""
    nbytes = packed.shape[-1]
    if nbytes != words * 8:
        widened = np.zeros(packed.shape[:-1] + (words * 8,), dtype=np.uint8)
        widened[..., :nbytes] = packed
        packed = widened
    return packed.view(np.uint64)


def _match_totals(
    data: LayerData, origins: np.ndarray, hp: int, wp: int
) -> np.ndarray:
    """Per-position match totals without the counts tensor.

    Summing filters first is exact: a position's total is, over kernel
    positions (ky, kx), the dot of the window pixel's channel mask with
    that kernel position's filter column sums. One blocked GEMM takes
    every pixel against all k*k column-sum vectors; the totals then
    gather those pixel-level dots at the window origins. Every value is
    an integer far below 2**53 in float64, so the result is exact.
    """
    spec = data.spec
    kk = spec.kernel * spec.kernel
    c = spec.in_channels
    colsums = data.filter_masks.reshape(spec.n_filters, kk, c).sum(
        axis=0, dtype=np.float64
    )  # (k*k, C)
    pix = data.input_mask.reshape(-1, c)
    dense = np.empty((pix.shape[0], kk), dtype=np.float64)
    block = max(1, _GEMM_BLOCK_ELEMS // c)
    for lo in range(0, pix.shape[0], block):
        dense[lo : lo + block] = pix[lo : lo + block].astype(np.float64) @ colsums.T
    pad = spec.padding
    dots = np.zeros((hp, wp, kk), dtype=np.float64)
    dots[pad : pad + spec.in_height, pad : pad + spec.in_width] = dense.reshape(
        spec.in_height, spec.in_width, kk
    )
    dots = dots.reshape(hp * wp, kk)
    match_sums = np.zeros(origins.size, dtype=np.float64)
    for idx in range(kk):
        ky, kx = divmod(idx, spec.kernel)
        match_sums += dots[origins + (ky * wp + kx), idx]
    return match_sums
