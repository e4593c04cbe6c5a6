"""Tilings as arrays of per-pixel tile ids, the baseline layout, cover files.

Re-exports the numpy-free exact-cover search of `search`, which finds them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .search import (  # re-exported, but for _cover_ascii
    Aperture, IncidenceMatrix, _cover_ascii, _CoverSearch, build_incidence_matrix,
    count_exact_covers, generate_placements,
)


@dataclass
class AggregationVector:
    """Per-element tile membership for one complete tiling.

    values[i - 1] is the tile id (1..Q) of pixel i; `placements` lists the
    chosen placement ids in tile-id order when the tiling came from the
    enumerator (None for directly constructed layouts).
    """

    values: np.ndarray
    tile_count: int
    placements: tuple[int, ...] | None = None

    def validate(self) -> None:
        vals = np.asarray(self.values).ravel()
        q = self.tile_count
        # every id in 1..q occurs and nothing else does; bincount, because the
        # first call of np.unique imports numpy.ma (about 0.6 MB resident)
        exact = vals.size > 0 and vals.min() == 1 and vals.max() == q
        if exact:
            ids = vals.astype(np.intp)
            exact = np.array_equal(ids, vals) and np.count_nonzero(np.bincount(ids)) == q
        if not exact:
            raise ValueError(
                f"tile ids must be exactly 1..{q}, got {sorted(set(vals.tolist()))}"
            )
        if self.placements is not None and len(self.placements) != self.tile_count:
            raise ValueError("placement list length disagrees with tile count")

    def tile_sizes(self) -> np.ndarray:
        """Number of elements in each tile, indexed by tile id - 1."""
        return np.bincount(np.asarray(self.values), minlength=self.tile_count + 1)[1:]

    def tile_cells(self) -> list[np.ndarray]:
        """Each tile's 0-based pixel indices in ascending order, in tile-id order."""
        order = np.argsort(np.asarray(self.values), kind="stable")
        return np.split(order, np.cumsum(self.tile_sizes())[:-1])


def _cover_from_rows(rows: tuple[int, ...], cells, element_count) -> AggregationVector:
    """The cover made of incidence rows `rows` (0-based, in tile-id order),
    given each row's 0-based pixel indices."""
    values = np.empty(element_count, dtype=np.int32)
    for q, k in enumerate(rows, start=1):
        values[cells[k]] = q
    return AggregationVector(
        values=values, tile_count=len(rows), placements=tuple(k + 1 for k in rows)
    )


def enumerate_exact_covers(L: IncidenceMatrix) -> Iterator[AggregationVector]:
    """Stream every complete tiling encoded in the incidence matrix.

    Tile ids follow placement order within each cover, so the first tile
    placed gets id 1. The stream is exhaustive, duplicate-free, and
    deterministic; infeasible instances yield nothing.
    """
    cells = [np.array(pixels, dtype=np.intp) - 1 for pixels in L.rows]
    for _t, rows in _CoverSearch(L).stream():
        yield _cover_from_rows(rows, cells, L.aperture.size)


def baseline_tiling(aperture: Aperture) -> AggregationVector:
    """Regular reference layout: vertical 1x6 tiles, column-major tile ids.

    Requires the row count to be divisible by 6.
    """
    if aperture.rows % 6 != 0:
        raise ValueError(
            f"baseline needs rows divisible by 6, got {aperture.rows}"
        )
    per_column = aperture.rows // 6
    values = np.empty(aperture.size, dtype=np.int32)
    for n in range(1, aperture.rows + 1):
        for m in range(1, aperture.columns + 1):
            q = (m - 1) * per_column + (n - 1) // 6 + 1
            values[aperture.pixel_index(m, n) - 1] = q
    return AggregationVector(values=values, tile_count=aperture.columns * per_column)


# --- cover import/export -------------------------------------------------

def cover_to_json(cover: AggregationVector, aperture: Aperture) -> dict:
    return {
        "columns": aperture.columns,
        "rows": aperture.rows,
        "tile_count": cover.tile_count,
        "values_row_major": np.asarray(cover.values).tolist(),
        "placements": list(cover.placements) if cover.placements else None,
    }


def cover_from_json(doc: dict) -> tuple[AggregationVector, Aperture]:
    aperture = Aperture(int(doc["columns"]), int(doc["rows"]))
    values = np.array(doc["values_row_major"], dtype=np.int32)
    if values.size != aperture.size:
        raise ValueError("cover length disagrees with aperture size")
    placements = doc.get("placements")
    cover = AggregationVector(
        values=values,
        tile_count=int(doc["tile_count"]),
        placements=tuple(placements) if placements else None,
    )
    cover.validate()
    return cover, aperture


def load_cover(path) -> tuple[AggregationVector, Aperture]:
    with open(path) as fh:
        return cover_from_json(json.load(fh))


def cover_to_ascii(cover: AggregationVector, aperture: Aperture) -> str:
    """Grid with one symbol per tile id, top row = highest n (panel top)."""
    cells = [pixels.tolist() for pixels in cover.tile_cells()]
    return _cover_ascii(aperture, cells)(tuple(range(cover.tile_count)))
