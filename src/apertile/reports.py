"""Renders and plot-data exports: tiling grids, far-field cuts, PDF/CDF."""

from __future__ import annotations

import colorsys

import numpy as np

from .geometry import ArrayGeometry, ElementPattern, far_field
from .ledger import write_header
from .metrics import CapacityDistribution
from .shapes import PolyominoShape, normalize_cells, orientations
from .tiling import AggregationVector, Aperture, cover_to_ascii

CELL_PX = 28  # side of one pixel's square in the SVG


def classify_tiles(
    cover: AggregationVector, aperture: Aperture, shapes: list[PolyominoShape]
) -> list[tuple[int, int] | None]:
    """Match each tile's geometry to (shape_id, orientation index).

    Returns None for tiles whose shape is not in the alphabet, so renders
    of imported or baseline layouts degrade gracefully.
    """
    lookup: dict[tuple, tuple[int, int]] = {}
    for shape in shapes:
        for idx, cells in enumerate(orientations(shape)):
            lookup.setdefault(cells, (shape.shape_id, idx))
    values = np.asarray(cover.values)
    out: list[tuple[int, int] | None] = []
    for q in range(1, cover.tile_count + 1):
        pixels = np.flatnonzero(values == q) + 1
        cells = normalize_cells(
            [(n - 1, m - 1) for m, n in (aperture.pixel_coords(int(i)) for i in pixels)]
        )
        out.append(lookup.get(cells))
    return out


def render_ascii(cover: AggregationVector, aperture: Aperture) -> str:
    """Alias of `tiling.cover_to_ascii`, kept for the benchmark tracer, its
    only caller; it goes when the tracer stops re-running the pipeline."""
    return cover_to_ascii(cover, aperture)


def render_svg(
    cover: AggregationVector,
    aperture: Aperture,
    shapes: list[PolyominoShape],
    comment: str | None = None,
) -> str:
    """SVG of the tiling, one color per tile orientation/flip of the alphabet
    and one more for the tiles outside it."""
    values = np.asarray(cover.values).reshape(aperture.rows, aperture.columns)
    kinds = classify_tiles(cover, aperture, shapes)
    keys = sorted({k for k in kinds if k is not None})
    palette = []  # golden-ratio hues, the last for tiles outside the alphabet
    for i in range(len(keys) + 1):
        r, g, b = colorsys.hls_to_rgb((i * 0.618034) % 1.0, 0.55, 0.75)
        palette.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    color_of = [palette[keys.index(k)] if k is not None else palette[-1] for k in kinds]

    width = aperture.columns * CELL_PX
    height = aperture.rows * CELL_PX
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    for n in range(aperture.rows, 0, -1):
        for m in range(1, aperture.columns + 1):
            q = int(values[n - 1, m - 1])
            x = (m - 1) * CELL_PX
            y = (aperture.rows - n) * CELL_PX
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL_PX}" height="{CELL_PX}" '
                f'fill="{color_of[q - 1]}" stroke="none"/>'
            )
    # tile boundaries: edges between different tile ids, plus the outline
    edges = []
    for n in range(1, aperture.rows + 1):
        for m in range(1, aperture.columns + 1):
            q = values[n - 1, m - 1]
            x = (m - 1) * CELL_PX
            y = (aperture.rows - n) * CELL_PX
            if m == aperture.columns or values[n - 1, m] != q:
                edges.append((x + CELL_PX, y, x + CELL_PX, y + CELL_PX))
            if m == 1:
                edges.append((x, y, x, y + CELL_PX))
            if n == aperture.rows or values[n, m - 1] != q:
                edges.append((x, y, x + CELL_PX, y))
            if n == 1:
                edges.append((x, y + CELL_PX, x + CELL_PX, y + CELL_PX))
    for x1, y1, x2, y2 in edges:
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="#222" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def far_field_cut(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    weights: np.ndarray,
    cut: str = "azimuth",
    points: int = 361,
) -> list[tuple[float, float]]:
    """(angle_deg, power_dB) samples along the azimuth or elevation cut of
    the V port driven by the (M*N,) element weights.

    Azimuth sweeps phi at theta = 90 deg; elevation sweeps theta at
    phi = 0. Power is the total of both field components.
    """
    if cut not in ("azimuth", "elevation"):
        raise ValueError(f"cut must be azimuth or elevation, got {cut!r}")
    out = []
    for angle in np.linspace(-90.0, 90.0, points):
        if cut == "azimuth":
            theta, phi = np.pi / 2.0, np.radians(angle)
        else:
            theta, phi = np.radians(90.0 - angle), 0.0
        field = far_field(geometry, pattern, weights, theta, phi, "V")
        power = float(np.sum(np.abs(field) ** 2))
        out.append((float(angle), 10.0 * np.log10(power) if power > 0 else float("-inf")))
    return out


def _write_csv(path, meta: dict, columns: str, form: str, rows) -> None:
    with open(path, "w") as fh:
        write_header(fh, meta, columns)
        fh.writelines(form % tuple(row) for row in rows)


def write_far_field_csv(path, rows, meta: dict) -> None:
    _write_csv(path, meta, "angle_deg,power_db", "%.6g,%.10g\n", rows)


def write_distribution_csv(path, dist: CapacityDistribution, meta: dict) -> None:
    """One row per bin: lower edge, PDF mass, CDF value."""
    rows = zip(dist.bin_edges[:-1], dist.pdf, dist.cdf)
    _write_csv(path, meta, "bin_lower_edge_bps_hz,pdf,cdf", "%.12g,%.12g,%.12g\n", rows)
