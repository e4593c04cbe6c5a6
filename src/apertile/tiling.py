"""Aperture pixels, tile placements, incidence matrix, exact-cover streaming.

The aperture is an M x N grid of unit pixels, one per array element, with
the 1-based pixel index i = m + (n - 1) * M (column m runs fastest). A
placement is one shape in one admissible position/orientation; the incidence
matrix links placements (rows) to the pixels they cover (columns). Complete
tilings are exactly the exact covers of that matrix and are streamed lazily
by a backtracking enumerator that always branches on the uncovered pixel
with the fewest remaining candidate placements (lowest pixel index on ties,
candidate placements tried in increasing placement id). Cover counts of
subtrees let a strided or resumed stream jump straight to the covers it
wants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .shapes import PolyominoShape, orientations


@dataclass(frozen=True)
class Aperture:
    """Rectangular pixel grid: `columns` (M) wide, `rows` (N) tall."""

    columns: int
    rows: int

    def __post_init__(self):
        if self.columns < 1 or self.rows < 1:
            raise ValueError("aperture must have positive dimensions")

    @property
    def size(self) -> int:
        return self.columns * self.rows

    def pixel_index(self, m: int, n: int) -> int:
        """1-based pixel index of column m in [1, M], row n in [1, N]."""
        if not (1 <= m <= self.columns and 1 <= n <= self.rows):
            raise ValueError(f"element ({m}, {n}) outside {self.columns}x{self.rows} aperture")
        return m + (n - 1) * self.columns

    def pixel_coords(self, i: int) -> tuple[int, int]:
        """Inverse of pixel_index: i in [1, I] -> (m, n)."""
        if not (1 <= i <= self.size):
            raise ValueError(f"pixel {i} outside [1, {self.size}]")
        return ((i - 1) % self.columns + 1, (i - 1) // self.columns + 1)


@dataclass(frozen=True)
class Placement:
    """One admissible positioned/oriented tile instance."""

    placement_id: int
    shape_id: int
    orientation: tuple[int, bool]  # (rotation_deg, flipped)
    anchor: int  # pixel index of the bounding-box origin cell position
    covered: tuple[int, ...]  # sorted 1-based pixel indices


@dataclass
class IncidenceMatrix:
    """Sparse binary placement-by-pixel matrix (row k covers its pixel set)."""

    aperture: Aperture
    placements: list[Placement]
    rows: tuple[tuple[int, ...], ...]  # per placement, sorted 1-based pixel ids

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), self.aperture.size)

    def dense(self) -> np.ndarray:
        """Materialize as a (K, I) boolean array."""
        out = np.zeros(self.shape, dtype=bool)
        for k, pixels in enumerate(self.rows):
            out[k, [i - 1 for i in pixels]] = True
        return out


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
        vals = np.asarray(self.values)
        ids = np.unique(vals)
        if ids.size != self.tile_count or ids[0] != 1 or ids[-1] != self.tile_count:
            raise ValueError(
                f"tile ids must be exactly 1..{self.tile_count}, got {ids.tolist()}"
            )
        if self.placements is not None and len(self.placements) != self.tile_count:
            raise ValueError("placement list length disagrees with tile count")

    def tile_sizes(self) -> np.ndarray:
        """Number of elements in each tile, indexed by tile id - 1."""
        return np.bincount(np.asarray(self.values), minlength=self.tile_count + 1)[1:]


def generate_placements(
    aperture: Aperture,
    shapes: list[PolyominoShape],
    allow_rotations: bool = True,
    allow_flips: bool = True,
) -> list[Placement]:
    """All distinct placements of the shapes fully inside the aperture.

    Ordering is deterministic: shape id, then orientation variant, then
    anchor in row-major order (rows outer, columns inner). Shapes too large
    for the aperture simply contribute nothing.
    """
    if not shapes:
        raise ValueError("no shapes given")
    ids = [s.shape_id for s in shapes]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate shape ids: {ids}")

    out: list[Placement] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    for shape in shapes:
        for tag, cells in orientations(shape, allow_rotations, allow_flips):
            height = 1 + max(r for r, _ in cells)
            width = 1 + max(c for _, c in cells)
            for n0 in range(1, aperture.rows - height + 2):
                for m0 in range(1, aperture.columns - width + 2):
                    covered = tuple(
                        sorted(aperture.pixel_index(m0 + c, n0 + r) for r, c in cells)
                    )
                    key = (shape.shape_id, covered)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(
                        Placement(
                            placement_id=len(out) + 1,
                            shape_id=shape.shape_id,
                            orientation=tag,
                            anchor=aperture.pixel_index(m0, n0),
                            covered=covered,
                        )
                    )
    return out


def build_incidence_matrix(
    placements: list[Placement], aperture: Aperture
) -> IncidenceMatrix:
    """Binary matrix with one row per placement, in placement order."""
    if not placements:
        raise ValueError("no placements given")
    for p in placements:
        for i in p.covered:
            if not (1 <= i <= aperture.size):
                raise ValueError(
                    f"placement {p.placement_id} covers pixel {i} outside [1, {aperture.size}]"
                )
    return IncidenceMatrix(
        aperture=aperture,
        placements=list(placements),
        rows=tuple(p.covered for p in placements),
    )


class _CoverSearch:
    """Exact-cover search over one incidence matrix, with counted subtrees.

    Rows and pixels live in integer bitmasks, so backtracking restores state
    exactly by construction (the masks passed down are immutable). The rows
    still active at a node are the rows disjoint from its covered pixels,
    and the branching pixel depends only on those, so the number of covers
    below a node is a function of the covered mask. Counting memoizes it
    for subtrees holding at least two covers (dead ends and single paths are
    cheap to recount), and `stream` uses the counts to step over subtrees
    that hold no wanted cover index.
    """

    def __init__(self, L: IncidenceMatrix):
        I = L.aperture.size
        K = len(L.rows)
        cand = [0] * I  # per pixel: bitmask of rows covering it
        for k, pixels in enumerate(L.rows):
            for i in pixels:
                cand[i - 1] |= 1 << k
        # per row: rows that overlap it (share at least one pixel; includes itself)
        conflict = [0] * K
        cell_bits = [0] * K
        for k, pixels in enumerate(L.rows):
            cmask = 0
            bits = 0
            for i in pixels:
                cmask |= cand[i - 1]
                bits |= 1 << (i - 1)
            conflict[k] = cmask
            cell_bits[k] = bits
        self.rows_all = (1 << K) - 1
        self.full = (1 << I) - 1
        self.cand = cand
        self.conflict = conflict
        self.cell_bits = cell_bits
        self.memo: dict[int, int] = {}

    def _counter(self) -> Callable[[int, int], int]:
        """Return below(active, covered), the number of covers under a node."""
        K = len(self.conflict)
        full = self.full
        cand = self.cand
        conflict = self.conflict
        cell_bits = self.cell_bits
        memo = self.memo

        def below(active: int, covered: int) -> int:
            if covered == full:
                return 1
            total = memo.get(covered)
            if total is not None:
                return total
            # the branching rule of `stream`
            free = full & ~covered
            best_rows = 0
            best_n = K + 1
            while free:
                low = free & -free
                free ^= low
                rows_i = cand[low.bit_length() - 1] & active
                n = rows_i.bit_count()
                if n < best_n:
                    if n == 0:
                        return 0
                    best_n = n
                    best_rows = rows_i
                    if n == 1:
                        break
            total = 0
            m = best_rows
            while m:
                low = m & -m
                m ^= low
                k = low.bit_length() - 1
                total += below(active & ~conflict[k], covered | cell_bits[k])
            if total >= 2:
                memo[covered] = total
            return total

        return below

    def count(self) -> int:
        """Number of exact covers of the whole matrix."""
        return self._counter()(self.rows_all, 0)

    def stream(
        self, start: int = 1, step: int = 1
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield (t, rows) for covers t = start, start + step, ... in order.

        t is the 1-based position in the full depth-first order and rows
        are the cover's 0-based row indices. While covers remain to be
        passed before the next wanted one, the search counts each child
        before descending and steps over it if it holds no more than that.
        For start = step = 1 nothing is ever counted.
        """
        if start < 1 or step < 1:
            raise ValueError(f"start and step must be >= 1, got {start}, {step}")
        K = len(self.conflict)
        full = self.full
        cand = self.cand
        conflict = self.conflict
        cell_bits = self.cell_bits
        count = self._counter()
        chosen: list[int] = []
        want = start  # index of the next cover to yield
        skip = start - 1  # covers to pass before it

        def search(active: int, covered: int) -> Iterator[tuple[int, tuple[int, ...]]]:
            nonlocal want, skip
            if covered == full:
                # only reached with skip == 0, so this is cover `want`
                yield want, tuple(chosen)
                want += step
                skip = step - 1
                return
            # uncovered pixel with fewest active candidates, lowest index on
            # ties; `_counter` inlines the same rule, and the two must agree
            free = full & ~covered
            best_rows = 0
            best_n = K + 1
            while free:
                low = free & -free
                free ^= low
                rows_i = cand[low.bit_length() - 1] & active
                n = rows_i.bit_count()
                if n < best_n:
                    if n == 0:
                        return
                    best_n = n
                    best_rows = rows_i
                    if n == 1:
                        break
            m = best_rows
            while m:
                low = m & -m
                m ^= low
                k = low.bit_length() - 1
                # the only test on the path of a full enumeration (skip == 0)
                if skip:
                    covers = count(active & ~conflict[k], covered | cell_bits[k])
                    if covers <= skip:
                        skip -= covers
                        continue
                chosen.append(k)
                yield from search(active & ~conflict[k], covered | cell_bits[k])
                chosen.pop()

        yield from search(self.rows_all, 0)


def _cover_stream(
    L: IncidenceMatrix, start: int = 1, step: int = 1
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (t, rows) for exact covers t = start, start + step, ...

    Rows are 0-based row indices; t counts every cover in enumeration order.
    """
    return _CoverSearch(L).stream(start, step)


def enumerate_exact_covers(L: IncidenceMatrix) -> Iterator[AggregationVector]:
    """Stream every complete tiling encoded in the incidence matrix.

    Tile ids follow placement order within each cover, so the first tile
    placed gets id 1. The stream is exhaustive, duplicate-free, and
    deterministic; infeasible instances yield nothing.
    """
    cells = [np.array(pixels, dtype=np.intp) - 1 for pixels in L.rows]
    I = L.aperture.size
    for _t, rows in _cover_stream(L):
        values = np.empty(I, dtype=np.int32)
        for q, k in enumerate(rows, start=1):
            values[cells[k]] = q
        yield AggregationVector(
            values=values,
            tile_count=len(rows),
            placements=tuple(k + 1 for k in rows),
        )


def count_exact_covers(L: IncidenceMatrix) -> int:
    """Number of exact covers, without materializing the tilings."""
    return sum(1 for _ in _cover_stream(L))


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

_ASCII_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


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


def save_cover(cover: AggregationVector, aperture: Aperture, path) -> None:
    with open(path, "w") as fh:
        json.dump(cover_to_json(cover, aperture), fh, indent=2)
        fh.write("\n")


def load_cover(path) -> tuple[AggregationVector, Aperture]:
    with open(path) as fh:
        return cover_from_json(json.load(fh))


def cover_to_ascii(cover: AggregationVector, aperture: Aperture) -> str:
    """Grid with one symbol per tile id, top row = highest n (panel top)."""
    values = np.asarray(cover.values).reshape(aperture.rows, aperture.columns)
    lines = []
    for n in range(aperture.rows, 0, -1):
        row = values[n - 1]
        lines.append("".join(_ASCII_SYMBOLS[(q - 1) % len(_ASCII_SYMBOLS)] for q in row))
    return "\n".join(lines)
