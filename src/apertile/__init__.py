"""Capacity-driven polyomino tiling of phased-array apertures.

Enumerates every exact polyomino tessellation of a rectangular panel,
evaluates each layout's multi-user downlink sum rate under zero-forcing
precoding over randomized user drops, and selects the best layout subject
to a per-port received-power floor.
"""

from .channel import (
    ChannelMatrix,
    ChannelModel,
    ChannelStack,
    LinkBudget,
    aggregate_channel,
    assemble_channel,
)
from .config import RunConfig
from .geometry import (
    ArrayGeometry,
    BeamWeights,
    ElementPattern,
    element_field,
    expand_weights,
    far_field,
)
from .metrics import CapacityDistribution, EvaluationRecord, distribution, eta_statistics
from .optimizer import (
    OptimizationResult,
    compare_to_baseline,
    evaluate_tiling,
    optimize,
    tiling_precoders,
)
from .precoding import ChannelRankError, PrecodingMatrix, zero_forcing
from .scenario import (
    ScenarioParams,
    UEDrop,
    floor_height,
    point_in_hexagon,
    sample_drop,
    sample_drops,
)
from .shapes import PolyominoShape, alphabet, builtin_shape, load_alphabet
from .tiling import (
    AggregationVector,
    Aperture,
    IncidenceMatrix,
    Placement,
    baseline_tiling,
    build_incidence_matrix,
    count_exact_covers,
    enumerate_exact_covers,
    generate_placements,
)

__version__ = "0.1.0"
