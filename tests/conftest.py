"""Shared fixtures: tiny layer workloads and a mini hardware config.

The functional models are O(positions x filters x chunks) in Python, so
tests run them on deliberately small shapes; the vectorised simulators
are validated against the functional models on those same shapes and
then exercised on the real Table 3 layers only in the (sampled) smoke
tests.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest

from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import LayerData, synthesize_layer
from repro.sim.config import HardwareConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_spec() -> ConvLayerSpec:
    """A small conv layer that the functional models handle quickly."""
    return ConvLayerSpec(
        name="tiny",
        in_height=6,
        in_width=5,
        in_channels=10,
        kernel=3,
        n_filters=12,
        stride=1,
        padding=1,
        input_density=0.5,
        filter_density=0.4,
    )


@pytest.fixture
def tiny_data(tiny_spec) -> LayerData:
    return synthesize_layer(tiny_spec, seed=7)


@pytest.fixture
def strided_spec() -> ConvLayerSpec:
    """A stride-2 layer (exercises the any-stride claim)."""
    return ConvLayerSpec(
        name="tiny_strided",
        in_height=9,
        in_width=9,
        in_channels=6,
        kernel=3,
        n_filters=8,
        stride=2,
        padding=1,
        input_density=0.6,
        filter_density=0.5,
    )


@pytest.fixture
def at_level():
    """``at_level(level)`` runs the rest of the test at a fidelity level.

    Each call enters a :func:`~repro.analytical.fidelity.fidelity_scope`
    (a later call shadows an earlier one); all are left at teardown.
    """
    from repro.analytical.fidelity import fidelity_scope

    with ExitStack() as stack:
        yield lambda level: stack.enter_context(fidelity_scope(level))


@pytest.fixture
def mini_cfg() -> HardwareConfig:
    """A small machine matching the tiny layers (chunk size 16)."""
    return HardwareConfig(
        name="mini",
        n_clusters=3,
        units_per_cluster=4,
        chunk_size=16,
        bisection_width=2,
        scnn_pe_grid=(2, 2),
        scnn_max_tile=3,
    )


def sparse_vector(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """A random vector with approximately the requested density."""
    values = rng.standard_normal(n)
    values[rng.random(n) >= density] = 0.0
    return values
