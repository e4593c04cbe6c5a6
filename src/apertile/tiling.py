"""Aperture pixels, tile placements, incidence matrix, exact-cover streaming.

The aperture is an M x N grid of unit pixels, one per array element, with
the 1-based pixel index i = m + (n - 1) * M (column m runs fastest). A
placement is one shape in one admissible position/orientation; the incidence
matrix links placements (rows) to the pixels they cover (columns). Complete
tilings are exactly the exact covers of that matrix and are streamed lazily
by a backtracking enumerator that always branches on the uncovered pixel
with the fewest remaining candidate placements (lowest pixel index on ties,
candidate placements tried in increasing placement id). One depth-first
walk counts and streams the covers; a memo of every node with a cover below
it (its cover count and its live branches) lets the walk pass a subtree it
has met before in one step, or enter it without searching it again.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterator

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


def generate_placements(aperture: Aperture, shapes: list[PolyominoShape]) -> list[Placement]:
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
        for tag, cells in orientations(shape):
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
    """Exact-cover search over one incidence matrix, with a memo of live nodes.

    Rows and pixels live in integer bitmasks, so backtracking restores state
    exactly by construction (the masks passed down are immutable). The rows
    still active at a node are the rows disjoint from its covered pixels,
    and the branching pixel depends only on those, so everything below a
    node is a function of its covered mask.

    One depth-first walk both counts and streams. It keeps `seen`, the
    number of covers reached so far. A cover adds 1 and is yielded when
    `seen` reaches the next wanted index; a stored node whose covers all
    come before that index adds its count without being entered; a node met
    for the first time is expanded by the branching rule, and stored once
    the walk has left it. `count()` is the walk with no cover wanted.

    `memo` maps the covered mask of every node with a cover below it to the
    tuple (covers below, *live rows): the rows tried at the node, in search
    order, whose child holds a cover (one tuple per entry keeps the memo
    small: three quarters of the live nodes on 8x12 P have one live row). A
    walk enters a stored node through its live rows only, so it never
    visits a dead end again, and a walk stopped early leaves only complete
    entries behind. Dead ends are not stored: on 8x12 P they are three
    quarters of the distinct masks, met only below the first expansion of
    a live node.
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
        self.conflict = conflict
        self.cell_bits = cell_bits
        self.memo: dict[int, tuple[int, ...]] = {}
        self._branch = self._branch_rule(cand, K)

    def _branch_rule(self, cand: list[int], K: int) -> Callable[[int, int], list[int]]:
        """Return branch(active, covered): the active rows that cover the
        uncovered pixel with fewest of them (lowest pixel index on ties), in
        increasing row id; empty when some uncovered pixel has none."""
        full = self.full
        ids = list(range(K))  # one int object per row id, shared by the memo

        def branch(active: int, covered: int) -> list[int]:
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
                        return []
                    best_n = n
                    best_rows = rows_i
                    if n == 1:
                        break
            rows = []
            while best_rows:
                low = best_rows & -best_rows
                best_rows ^= low
                rows.append(ids[low.bit_length() - 1])
            return rows

        return branch

    def _walk(self, want: float, step: int) -> Generator[tuple[int, tuple[int, ...]], None, int]:
        """Yield (t, rows) for covers t = want, want + step, ... in
        depth-first order; return the number of covers."""
        full = self.full
        conflict = self.conflict
        cell_bits = self.cell_bits
        memo = self.memo
        branch = self._branch
        chosen: list[int] = []
        seen = 0  # covers reached so far

        def walk(active: int, covered: int) -> Iterator[tuple[int, tuple[int, ...]]]:
            nonlocal seen, want
            if covered == full:
                seen += 1
                if seen == want:
                    yield seen, tuple(chosen)
                    want += step
                return
            entry = memo.get(covered)
            if entry is None:
                rows = branch(active, covered)
            elif seen + entry[0] < want:
                seen += entry[0]  # passed without entering
                return
            else:
                rows = entry[1:]
            first = seen
            live = []
            for k in rows:
                before = seen
                chosen.append(k)
                yield from walk(active & ~conflict[k], covered | cell_bits[k])
                chosen.pop()
                if seen != before:
                    live.append(k)
            if live and entry is None:
                memo[covered] = (seen - first, *live)

        yield from walk(self.rows_all, 0)
        return seen

    def count(self) -> int:
        """Number of exact covers of the whole matrix."""
        try:
            next(self._walk(math.inf, 1))
        except StopIteration as done:
            return done.value
        raise AssertionError("a walk that wants no cover yielded one")

    def stream(self, start: int = 1, step: int = 1) -> Iterator[tuple[int, tuple[int, ...]]]:
        """Yield (t, rows) for covers t = start, start + step, ... in order:
        t is the 1-based position in the full depth-first order, rows are
        the cover's 0-based row indices."""
        if start < 1 or step < 1:
            raise ValueError(f"start and step must be >= 1, got {start}, {step}")
        return self._walk(start, step)


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


def count_exact_covers(L: IncidenceMatrix) -> int:
    """Number of exact covers, without materializing the tilings."""
    return _CoverSearch(L).count()


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


def _cover_json_line(L: IncidenceMatrix) -> Callable[[tuple[int, ...]], str]:
    """Return line(rows): the JSON line (with its newline) of the cover with
    these 0-based rows of L, byte for byte `json.dumps(cover_to_json(...))`
    of that cover, filled into a template without building the cover."""
    aperture = L.aperture
    cells = [[i - 1 for i in pixels] for pixels in L.rows]
    text = [str(i) for i in range(max(len(L.rows), aperture.size) + 1)]
    head = f'{{"columns": {aperture.columns}, "rows": {aperture.rows}, "tile_count": '
    values = [""] * aperture.size  # refilled completely by every exact cover

    def line(rows: tuple[int, ...]) -> str:
        for q, k in enumerate(rows, start=1):
            tile = text[q]
            for i in cells[k]:
                values[i] = tile
        placements = ", ".join([text[k + 1] for k in rows])
        return (
            f'{head}{len(rows)}, "values_row_major": [{", ".join(values)}], '
            f'"placements": [{placements}]}}\n'
        )

    return line


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
    values = np.asarray(cover.values).reshape(aperture.rows, aperture.columns)
    lines = []
    for n in range(aperture.rows, 0, -1):
        row = values[n - 1]
        lines.append("".join(_ASCII_SYMBOLS[(q - 1) % len(_ASCII_SYMBOLS)] for q in row))
    return "\n".join(lines)
