"""Analytical fast path: density-statistics performance prediction.

The cheapest rung of the fidelity ladder (``analytical -> counters ->
timeline -> trace``): closed-form cycle/stall/energy prediction for
every scheme the repo simulates, built from per-filter density
distributions instead of per-element simulation, and continuously
validated against the cycle-level simulators (CI-gated error bounds).

:func:`predict_layer` answers one (layer, machine, scheme) point with a
full :class:`~repro.sim.results.LayerResult`. :func:`predict_grid`
scores a whole design grid from one density extraction -- cycles and
breakdowns only, one barrier evaluation per (units, variant) -- which
is what the pre-screened sweep's phase 1 runs.
"""

from repro.analytical.density import (
    DensityStats,
    extract_density_stats,
    stats_from_work,
)
from repro.analytical.fidelity import (
    DEFAULT_FIDELITY,
    FIDELITY_LEVELS,
    fidelity_level,
    simulate_at_fidelity,
)
from repro.analytical.model import (
    ANALYTICAL_SCHEMES,
    expected_max_coefficient,
    predict_grid,
    predict_layer,
    predict_layer_energy,
    predict_network,
)
from repro.analytical.validate import (
    MEDIAN_ABS_ERR_BOUND,
    RANK_CORR_BOUND,
    ValidationReport,
    render_validation,
    spearman,
    validate_analytical,
    validation_grid,
)

__all__ = [
    "ANALYTICAL_SCHEMES",
    "DEFAULT_FIDELITY",
    "FIDELITY_LEVELS",
    "MEDIAN_ABS_ERR_BOUND",
    "RANK_CORR_BOUND",
    "DensityStats",
    "ValidationReport",
    "expected_max_coefficient",
    "extract_density_stats",
    "fidelity_level",
    "predict_grid",
    "predict_layer",
    "predict_layer_energy",
    "predict_network",
    "render_validation",
    "simulate_at_fidelity",
    "spearman",
    "stats_from_work",
    "validate_analytical",
    "validation_grid",
]
