"""Magnitude pruning to target densities, with realistic per-filter spread.

The paper obtains sparse networks by applying Han et al.'s magnitude
pruning to each layer's filters and reports the resulting per-layer
densities (Table 3). Crucially for SparTen, pruning leaves *different
filters with different densities* -- Figure 14 shows AlexNet Layer 2's
per-chunk filter densities spanning under 10% to over 40% around a ~24%
median. That spread is what causes the load imbalance greedy balancing
fixes, so the synthesis here reproduces it:

1. draw a per-filter density from a distribution centred on the layer
   target with a configurable relative spread,
2. magnitude-prune each filter independently to its own density,
3. rescale so the layer-aggregate density matches the target closely.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prune_to_density",
    "per_filter_densities",
    "prune_filters",
    "DEFAULT_FILTER_SPREAD",
]

#: Default relative std-dev of per-filter density, calibrated so the
#: per-chunk density range matches Figure 14 (roughly 10%-40% around a
#: ~24-35% layer mean).
DEFAULT_FILTER_SPREAD = 0.30


def prune_to_density(tensor: np.ndarray, density: float) -> np.ndarray:
    """Magnitude-prune *tensor* so exactly ``round(density * size)`` survive.

    Keeps the largest-magnitude elements, zeroing the rest -- Han et al.'s
    threshold pruning with the threshold chosen to hit the target count.
    Returns a new array.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    tensor = np.asarray(tensor, dtype=np.float64)
    keep = int(round(density * tensor.size))
    if keep >= tensor.size:
        return tensor.copy()
    pruned = tensor.copy()
    if keep == 0:
        pruned[...] = 0.0
        return pruned
    flat = np.abs(pruned).reshape(-1)
    # Threshold at the keep-th largest magnitude; ties broken by position
    # via argpartition for an exact count.
    cutoff_order = np.argpartition(flat, -keep)[-keep:]
    mask = np.zeros(flat.size, dtype=bool)
    mask[cutoff_order] = True
    pruned.reshape(-1)[~mask] = 0.0
    return pruned


def per_filter_densities(
    n_filters: int,
    target: float,
    spread: float = DEFAULT_FILTER_SPREAD,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw per-filter densities with mean *target* and relative std *spread*.

    Samples a truncated normal (clipped to [0.02, 0.98]) and then shifts
    so the mean hits the target exactly -- the layer-aggregate density is
    what Table 3 fixes; the spread models pruning's natural variation.
    """
    if n_filters <= 0:
        raise ValueError(f"need at least one filter, got {n_filters}")
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target density must be in (0, 1], got {target}")
    if spread < 0.0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    rng = rng if rng is not None else np.random.default_rng(0)
    raw = rng.normal(loc=target, scale=target * spread, size=n_filters)
    clipped = np.clip(raw, 0.02, 0.98)
    shifted = clipped + (target - clipped.mean())
    return np.clip(shifted, 0.01, 1.0)


def prune_filters(
    filters: np.ndarray,
    target_density: float,
    spread: float = DEFAULT_FILTER_SPREAD,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Prune a (F, ...) filter bank to *target_density* with per-filter spread.

    Each filter is magnitude-pruned to its own sampled density; the bank's
    aggregate density lands on the target (up to per-filter rounding).
    Equal to :func:`prune_to_density` on every filter, batched: one
    ``np.partition`` per filter finds its keep-th largest magnitude, and a
    single vectorised ``>=`` mask prunes the bank. A filter whose
    threshold magnitude is tied (the mask would keep extra values) is
    re-pruned by :func:`prune_to_density` itself.
    """
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim < 2:
        raise ValueError(f"expected (F, ...) filter bank, got shape {filters.shape}")
    n_filters = filters.shape[0]
    densities = per_filter_densities(
        n_filters, target_density, spread=spread, rng=rng
    )
    flat = filters.reshape(n_filters, -1)
    size = flat.shape[1]
    keep = np.rint(densities * size).astype(np.int64)
    pruned = np.abs(flat)
    # keep == 0 keeps nothing, keep == size keeps everything.
    thresholds = np.where(keep > 0, -np.inf, np.inf)
    for f in np.flatnonzero((keep > 0) & (keep < size)):
        kth = size - keep[f]
        thresholds[f] = np.partition(pruned[f], kth)[kth]
    mask = pruned >= thresholds[:, None]
    np.multiply(flat, mask, out=pruned)
    # A pruned negative weight is now -0.0; adding +0.0 makes it +0.0
    # (as prune_to_density writes) and leaves every other value unchanged.
    pruned += 0.0
    for f in np.flatnonzero(np.count_nonzero(mask, axis=1) != keep):
        pruned[f] = prune_to_density(flat[f], float(densities[f]))
    return pruned.reshape(filters.shape)
