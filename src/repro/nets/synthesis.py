"""Seeded workload synthesis: tensors at the paper's Table 3 densities.

The simulators consume (a) value positions (masks) and (b) value
magnitudes; both are produced here from a layer spec and a seed:

- Filters: Gaussian weights magnitude-pruned with per-filter density
  spread (:mod:`repro.nets.pruning`), shaped ``(F, k, k, C)``.
- Input feature maps: ReLU-style activations. Sparsity can be i.i.d. or
  *spatially correlated* (blobs of activity, as real post-ReLU maps are),
  controlled by ``correlated``. A layer whose Table 3 input density is
  100% (the network's first layer) gets a fully dense map -- the paper's
  special case of the 3-channel input image.

One :class:`LayerData` per (spec, seed) is the unit every simulator and
the functional accelerator operate on.

The correlated field is smoothed by :func:`smooth_wrap_hw` (a native
kernel with a blocked NumPy fallback, both bit-identical to
``scipy.ndimage.gaussian_filter(field, (1.5, 1.5, 0), mode="wrap")``) and
thresholded by :func:`quantile_threshold` (exactly ``np.quantile``, but
partitioning only a narrow band of the values), so synthesis needs no
scipy and produces the same tensors bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.nets.layers import ConvLayerSpec
from repro.nets.pruning import DEFAULT_FILTER_SPREAD, prune_filters

__all__ = [
    "LayerData",
    "synthesize_layer",
    "synthesize_input",
    "synthesize_filters",
    "smooth_wrap_hw",
    "quantile_threshold",
]

#: Spatial std-dev (pixels) of the smoothing that makes activity blobby.
_FIELD_SIGMA = 1.5

#: float64 elements per NumPy smoothing block (~256 KB, cache-resident).
_SMOOTH_BLOCK = 32 << 10

#: Strided-sample size of the threshold band select; smaller inputs are
#: partitioned whole.
_BAND_SAMPLE = 1 << 14


@dataclass(frozen=True)
class LayerData:
    """A concrete workload for one layer: dense arrays plus their masks.

    Attributes:
        spec: the layer specification this data realises.
        input_map: dense ``(H, W, C)`` activations (zeros included).
        filters: dense ``(F, k, k, C)`` weights (zeros included).
    """

    spec: ConvLayerSpec
    input_map: np.ndarray
    filters: np.ndarray

    def __post_init__(self) -> None:
        expected_in = (self.spec.in_height, self.spec.in_width, self.spec.in_channels)
        if self.input_map.shape != expected_in:
            raise ValueError(
                f"input shape {self.input_map.shape} != spec {expected_in}"
            )
        expected_f = (
            self.spec.n_filters,
            self.spec.kernel,
            self.spec.kernel,
            self.spec.in_channels,
        )
        if self.filters.shape != expected_f:
            raise ValueError(f"filter shape {self.filters.shape} != spec {expected_f}")

    @property
    def input_mask(self) -> np.ndarray:
        """Boolean occupancy of the input map."""
        return self.input_map != 0

    @property
    def filter_masks(self) -> np.ndarray:
        """Boolean occupancy of the filters, ``(F, k, k, C)``."""
        return self.filters != 0

    @property
    def measured_input_density(self) -> float:
        return float(np.count_nonzero(self.input_map)) / self.input_map.size

    @property
    def measured_filter_density(self) -> float:
        return float(np.count_nonzero(self.filters)) / self.filters.size


def synthesize_input(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    correlated: bool = True,
) -> np.ndarray:
    """A dense (H, W, C) activation map at the spec's input density.

    With ``correlated=True`` the zero pattern is spatially blobby: a
    smoothed random field thresholded at the quantile that yields the
    target density, mimicking post-ReLU activation maps. Otherwise zeros
    are i.i.d. Values of surviving activations are half-normal (ReLU of a
    Gaussian is non-negative).
    """
    shape = (spec.in_height, spec.in_width, spec.in_channels)
    magnitudes = rng.standard_normal(shape)
    np.abs(magnitudes, out=magnitudes)
    density = spec.input_density
    if density >= 1.0:
        return magnitudes
    if density <= 0.0:
        return np.zeros(shape)
    field = rng.standard_normal(shape)
    if correlated and min(spec.in_height, spec.in_width) >= 4:
        # Smooth only spatially; channels keep independent patterns.
        smooth_wrap_hw(field, _FIELD_SIGMA)
    threshold = quantile_threshold(field, 1.0 - density)
    # Magnitudes are >= 0, so multiplying by the mask zeroes to +0.0.
    np.multiply(magnitudes, field > threshold, out=magnitudes)
    return magnitudes


def smooth_wrap_hw(field: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-smooth an (H, W, C) float64 field over H then W, in place.

    Edges wrap around (axes shorter than the kernel wrap more than once);
    channels are not mixed. Every output is accumulated in
    ``scipy.ndimage.correlate1d``'s symmetric-kernel order (``x0*w0``,
    then ``+= (x[-k] + x[+k]) * w[k]`` for ``k = r..1``), so the result is
    bit-identical to ``gaussian_filter(field, (sigma, sigma, 0),
    mode="wrap")``. The second pass writes back into *field*'s buffer, so
    the only temporary is one field-sized array. Returns *field*.
    """
    # Lazy: repro.sim's package init imports the simulators, which import
    # this module.
    from repro.sim import native

    if field.ndim != 3 or field.dtype != np.float64:
        raise ValueError(
            f"expected an (H, W, C) float64 field, got {field.dtype} {field.shape}"
        )
    work = field if field.flags.c_contiguous else np.ascontiguousarray(field)
    h, w, c = work.shape
    weights = _half_kernel(sigma)
    tmp = np.empty_like(work)
    passes = (
        (work.reshape(1, h, w * c), tmp.reshape(1, h, w * c)),  # along H
        (tmp, work),  # along W, back into the field
    )
    if native.smooth_wrap_axis(*passes[0], weights):
        native.smooth_wrap_axis(*passes[1], weights)
        telemetry.count("kernel.smooth_native_dispatch")
    else:
        for src, dst in passes:
            _smooth_axis_numpy(src, dst, weights)
        telemetry.count("kernel.smooth_fallback_dispatch")
    if work is not field:
        field[...] = work
    return field


def _half_kernel(sigma: float) -> np.ndarray:
    """Centre-first half of scipy's truncated Gaussian (radius ``4σ``)."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[radius:]


def _smooth_axis_numpy(src: np.ndarray, dst: np.ndarray, weights: np.ndarray) -> None:
    """Wrap-mode smoothing of (A, L, B) *src* along L into *dst*, blocked.

    Each block is wrap-extended by the radius once, then accumulated from
    shifted slices in the native kernel's order.
    """
    radius = weights.size - 1
    n_outer, length, n_inner = src.shape
    ext_len = length + 2 * radius
    ext_idx = np.arange(-radius, length + radius) % length
    nb = min(n_inner, max(1, _SMOOTH_BLOCK // ext_len))
    na = min(n_outer, max(1, _SMOOTH_BLOCK // (ext_len * nb)))
    for a0 in range(0, n_outer, na):
        for b0 in range(0, n_inner, nb):
            ext = src[a0 : a0 + na, :, b0 : b0 + nb].take(ext_idx, axis=1)
            out = dst[a0 : a0 + na, :, b0 : b0 + nb]
            np.multiply(ext[:, radius : radius + length], weights[0], out=out)
            pair = np.empty(out.shape)
            for k in range(radius, 0, -1):
                np.add(
                    ext[:, radius - k : radius - k + length],
                    ext[:, radius + k : radius + k + length],
                    out=pair,
                )
                pair *= weights[k]
                out += pair


def quantile_threshold(values: np.ndarray, q: float) -> float:
    """Exactly ``np.quantile(values, q)`` (the default ``linear`` method).

    The result interpolates the order statistics at ``floor`` of the
    virtual index ``(n - 1) * q`` and the next one. Instead of
    partitioning every value, a sorted strided sample brackets those two
    ranks in a narrow value band; only the band is partitioned (the whole
    input when the band misses). The interpolation itself is
    ``np.quantile`` over the two neighbours, so it rounds exactly as the
    full call would.
    """
    flat = values.reshape(-1)
    n = flat.size
    virtual = (n - 1) * q
    k0 = min(int(np.floor(virtual)), n - 1)
    k1 = min(k0 + 1, n - 1)
    lo_val, hi_val = _order_stats(flat, k0, k1)
    return float(np.quantile(np.array([lo_val, hi_val]), virtual - k0))


def _order_stats(flat: np.ndarray, k0: int, k1: int) -> tuple[float, float]:
    """The k0-th and k1-th smallest of *flat* (k0 <= k1)."""
    n = flat.size
    if n > 4 * _BAND_SAMPLE:
        sample = np.sort(flat[:: n // _BAND_SAMPLE])
        m = sample.size
        # ~8 binomial std-devs of sample-rank error either side.
        margin = 4 * int(np.sqrt(m)) + 2
        lo_rank = k0 * m // n - margin
        hi_rank = k1 * m // n + margin + 1
        lo = sample[lo_rank] if lo_rank >= 0 else -np.inf
        hi = sample[hi_rank] if hi_rank < m else np.inf
        below = int(np.count_nonzero(flat < lo))
        band = flat[(flat >= lo) & (flat <= hi)]
        if below <= k0 and k1 < below + band.size:
            part = np.partition(band, (k0 - below, k1 - below))
            return float(part[k0 - below]), float(part[k1 - below])
    part = np.partition(flat, (k0, k1))
    return float(part[k0]), float(part[k1])


def synthesize_filters(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    spread: float = DEFAULT_FILTER_SPREAD,
) -> np.ndarray:
    """A dense (F, k, k, C) filter bank pruned to the spec's filter density."""
    shape = (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels)
    weights = rng.standard_normal(shape)
    if spec.filter_density >= 1.0:
        return weights
    return prune_filters(weights, spec.filter_density, spread=spread, rng=rng)


def synthesize_layer(
    spec: ConvLayerSpec,
    seed: int = 0,
    correlated: bool = True,
    filter_spread: float = DEFAULT_FILTER_SPREAD,
) -> LayerData:
    """Deterministically synthesise a full workload for *spec*.

    The same (spec, seed) always yields identical tensors; different seeds
    model different images in a mini-batch (filters are drawn from a seed
    derived only from the spec so the batch shares weights, as it must).
    """
    # Filters depend on the layer identity only, not the image seed.
    filter_rng = np.random.default_rng(_stable_seed(spec.name, "filters"))
    filters = synthesize_filters(spec, filter_rng, spread=filter_spread)
    input_rng = np.random.default_rng(_stable_seed(spec.name, f"input{seed}"))
    input_map = synthesize_input(spec, input_rng, correlated=correlated)
    return LayerData(spec=spec, input_map=input_map, filters=filters)


def _stable_seed(*parts: str) -> int:
    """A deterministic 63-bit seed from string parts (hash() is salted)."""
    import hashlib

    digest = hashlib.sha256("/".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
