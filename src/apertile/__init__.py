"""Capacity-driven polyomino tiling of phased-array apertures.

Enumerates every exact polyomino tessellation of a rectangular panel,
evaluates each layout's multi-user downlink sum rate under zero-forcing
precoding over randomized user drops, and selects the best layout subject
to a per-port received-power floor.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each exported name, by the module that defines it. A name's module is
# imported when the name is first read (PEP 562), so that `apertile
# enumerate` loads neither numpy nor the evaluation modules.
_EXPORTS = {
    name: module
    for module, names in (
        ("channel", "ChannelMatrix ChannelStack LinkBudget aggregate_channel assemble_channel"),
        ("config", "ChannelModel ElementPattern RunConfig ScenarioParams"),
        ("geometry", "ArrayGeometry element_field expand_weights far_field"),
        ("metrics", "CapacityDistribution EvaluationRecord distribution eta_statistics"),
        (
            "optimizer",
            "OptimizationResult compare_to_baseline evaluate_tiling optimize tiling_precoders",
        ),
        ("precoding", "ChannelRankError PrecodingMatrix zero_forcing"),
        ("scenario", "UEDrop floor_height point_in_hexagon sample_drop sample_drops"),
        ("search", "Aperture IncidenceMatrix build_incidence_matrix"),
        ("search", "count_exact_covers generate_placements"),
        ("shapes", "PolyominoShape alphabet builtin_shape load_alphabet"),
        ("tiling", "AggregationVector baseline_tiling enumerate_exact_covers"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
