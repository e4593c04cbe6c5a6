"""Aperture pixels, tile placements, incidence matrix, exact-cover search.

The aperture is an M x N grid of unit pixels, one per array element, with
the 1-based pixel index i = m + (n - 1) * M (column m runs fastest). A
placement is one shape in one admissible position/orientation; the incidence
matrix links placements (rows) to the pixels they cover (columns). Complete
tilings are exactly the exact covers of that matrix and are streamed lazily
by a backtracking enumerator that always branches on the uncovered pixel
with the fewest remaining candidate placements (lowest pixel index on ties,
candidate placements tried in increasing placement id). One depth-first
walk counts and streams the covers: a single loop over an explicit stack of
frames, so a cover leaves the walk straight from that loop. A memo of every
node with a cover below it (its cover count and its live branches) lets the
walk pass a subtree it has met before in one step, or enter it without
searching it again. Plain Python on integer bitmasks: `apertile enumerate`
runs without numpy, and `tiling`, which makes covers arrays, re-exports this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterator

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


@dataclass
class IncidenceMatrix:
    """Sparse binary placement-by-pixel matrix (row k covers its pixel set)."""

    aperture: Aperture
    rows: tuple[tuple[int, ...], ...]  # per placement, sorted 1-based pixel ids


def generate_placements(aperture: Aperture, shapes: list[PolyominoShape]) -> list[tuple[int, ...]]:
    """All placements of the shapes fully inside the aperture, each as its
    sorted 1-based pixel indices, distinct within a shape by construction.

    Ordering is deterministic: shape id, then orientation variant, then
    anchor in row-major order (rows outer, columns inner). Shapes too large
    for the aperture simply contribute nothing.
    """
    if not shapes:
        raise ValueError("no shapes given")
    ids = [s.shape_id for s in shapes]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate shape ids: {ids}")

    out: list[tuple[int, ...]] = []
    for shape in shapes:
        for cells in orientations(shape):
            height = 1 + max(r for r, _ in cells)
            width = 1 + max(c for _, c in cells)
            for n0 in range(1, aperture.rows - height + 2):
                for m0 in range(1, aperture.columns - width + 2):
                    out.append(
                        tuple(sorted(aperture.pixel_index(m0 + c, n0 + r) for r, c in cells))
                    )
    return out


def build_incidence_matrix(placements, aperture: Aperture) -> IncidenceMatrix:
    """Binary matrix with one row per placement, in placement order; each
    placement is a sequence of 1-based pixel indices."""
    if not placements:
        raise ValueError("no placements given")
    rows = tuple(tuple(p) for p in placements)
    for k, pixels in enumerate(rows, start=1):
        for i in pixels:
            if not (1 <= i <= aperture.size):
                raise ValueError(f"placement {k} covers pixel {i} outside [1, {aperture.size}]")
    return IncidenceMatrix(aperture=aperture, rows=rows)


class _CoverSearch:
    """Exact-cover search over one incidence matrix, with a memo of live nodes.

    Rows and pixels live in integer bitmasks, so backtracking restores state
    exactly by construction (each frame keeps its node's own masks). The rows
    still active at a node are the rows disjoint from its covered pixels,
    and the branching pixel depends only on those, so everything below a
    node is a function of its covered mask.

    One depth-first walk both counts and streams. It keeps `seen`, the
    number of covers reached so far. A cover adds 1 and is yielded when
    `seen` reaches the next wanted index; a stored node whose covers all
    come before that index adds its count without being entered; a node met
    for the first time is expanded by the branching rule, and stored once
    the walk has left it. `count()` is the walk with no cover wanted.

    The walk is one loop over an explicit stack, not a recursion: the node
    being expanded lives in local variables, and descending pushes its
    frame (masks, rows to try, next index, whether it is new, `seen` on
    entry, live rows so far, `seen` before the child). Covers and passed
    children are settled in the loop without a frame, and a cover is
    yielded from the loop itself, not handed up through one generator per
    level. The branching rule is read from `self._branch` when a walk
    starts.

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
        entry = memo.get(0)
        if entry is not None and entry[0] < want:
            return entry[0]  # the whole search passed without entering
        active = self.rows_all  # the frame of the node being expanded
        covered = 0
        new = entry is None
        rows = branch(active, covered) if new else entry[1:]
        i = 0
        seen = first = 0  # seen: covers reached so far
        live: list[int] = []
        stack = []  # the frames of the nodes above, each with `seen` before its child
        chosen: list[int] = []  # the row taken at each of those nodes
        while True:
            if i < len(rows):
                k = rows[i]
                i += 1
                child = covered | cell_bits[k]
                if child == full:
                    seen += 1
                    if seen == want:
                        yield seen, (*chosen, k)
                        want += step
                    live.append(k)
                    continue
                entry = memo.get(child)
                if entry is not None and seen + entry[0] < want:
                    seen += entry[0]  # passed without entering
                    live.append(k)
                    continue
                stack.append((active, covered, rows, i, new, first, live, seen))
                chosen.append(k)
                active &= ~conflict[k]
                covered = child
                new = entry is None
                rows = branch(active, covered) if new else entry[1:]
                i = 0
                first = seen
                live = []
            else:
                if live and new:
                    memo[covered] = (seen - first, *live)
                if not stack:
                    return seen
                active, covered, rows, i, new, first, live, before = stack.pop()
                k = chosen.pop()
                if seen != before:
                    live.append(k)

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


def count_exact_covers(L: IncidenceMatrix) -> int:
    """Number of exact covers, without materializing the tilings."""
    return _CoverSearch(L).count()


def _relabeller(cells, slots: list[str], labels: list[str]) -> Callable[[tuple[int, ...]], int]:
    """Return relabel(rows): write labels[q] into `slots` at cells[k] for
    each tile q, row k of this cover, from the first tile where it differs
    from the previous call's cover; return that q. That is exact for exact
    covers in any order: two covers that share their first q tiles leave
    the same pixels to the rest, which the new cover's rest covers once."""
    previous: list[int] = []  # the previous cover's rows

    def relabel(rows: tuple[int, ...]) -> int:
        j = 0
        for k, old in zip(rows, previous):
            if k != old:
                break
            j += 1
        for q in range(j, len(rows)):
            label = labels[q]
            for i in cells[rows[q]]:
                slots[i] = label
        previous[j:] = rows[j:]
        return j

    return relabel


def _cover_json_line(L: IncidenceMatrix) -> Callable[[tuple[int, ...]], str]:
    """Return line(rows): the JSON line (with its newline) of the cover with
    these 0-based rows of L, byte for byte `json.dumps(cover_to_json(...))`
    of that cover, filled into a template without building the cover."""
    aperture = L.aperture
    text = [str(i) for i in range(max(len(L.rows), aperture.size) + 1)]
    head = f'{{"columns": {aperture.columns}, "rows": {aperture.rows}, "tile_count": '
    values = [""] * aperture.size  # pixel -> tile id string of the previous cover
    relabel = _relabeller([[i - 1 for i in pixels] for pixels in L.rows], values, text[1:])
    placements: list[str] = []  # the previous cover's placement id strings

    def line(rows: tuple[int, ...]) -> str:
        j = relabel(rows)
        placements[j:] = [text[k + 1] for k in rows[j:]]
        return (
            f'{head}{len(rows)}, "values_row_major": [{", ".join(values)}], '
            f'"placements": [{", ".join(placements)}]}}\n'
        )

    return line


_ASCII_SYMBOLS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _cover_ascii(aperture: Aperture, cells) -> Callable[[tuple[int, ...]], str]:
    """Return grid(rows): the lines, top row (n = N) first, of the cover whose
    tile q lies on the 0-based pixels cells[rows[q - 1]], each marked with q's
    symbol; a call rewrites only the tiles from the first that differs from
    the previous call's cover. The one writer of the ASCII grid."""
    M, N = aperture.columns, aperture.rows
    # the grid's lines; 0-based pixel i sits in column i % M of row n = i // M + 1
    chars = (([""] * M + ["\n"]) * N)[:-1]
    where = [(N - 1 - i // M) * (M + 1) + i % M for i in range(M * N)]
    symbols = [_ASCII_SYMBOLS[q % len(_ASCII_SYMBOLS)] for q in range(M * N)]
    relabel = _relabeller([[where[i] for i in pixels] for pixels in cells], chars, symbols)

    def grid(rows: tuple[int, ...]) -> str:
        relabel(rows)
        return "".join(chars)

    return grid
