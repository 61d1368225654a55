"""blockmonte: seedable simulations of block-game measurement mechanisms
(hopper timers, droppers, random ticks, slime walks) used to estimate
sqrt(2), pi, e, zeta(m), sec(1)+tan(1), and definite integrals, backed by
exact combinatorial and number-theoretic oracles."""

from .combinatorics import (
    derangement_count,
    enumerate_permutations,
    is_alternating,
    is_derangement,
    zigzag_count,
)
from .errors import (
    DegenerateCourseError,
    DegenerateRegionError,
    DegenerateResultError,
    DegenerateSampleError,
)
from .estimators import (
    EstimateRecord,
    ExperimentConfig,
    run_config,
)
from .geometry import (
    CircleRaster,
    CurveRaster,
    TriangleCourse,
    archimedes_bounds,
    cell_in_disc,
    gauss_kronrod,
    raster_to_text,
    rasterize_circle,
    rasterize_curve,
    traversal_seconds,
)
from .mechanics import (
    Dropper,
    HopperTimer,
    RandomTickScheduler,
    SlimeArena,
    dropper_permutation,
    hopper_item_count,
    slime_death_cell,
    ticks_until_growth,
)
from .numtheory import (
    coprime_probability_exact,
    euler_product_partial,
    zeta_partial,
    zeta_value,
)
from .rng import RngStream, StreamId, derive_stream, geometric_trials
from .runner import RunManifest, emit_scatter, load_manifest, run_experiment
from .stats import CONSTANTS, ReferenceConstants, ratio_stderr, relative_error, wilson_ci

__version__ = "0.1.0"
