"""Polyomino tile shapes and their rotation/flip variants.

Cells are (row, col) offsets normalized so the minimum row and column are
both zero. Rows run along the vertical (z) axis of the panel, columns along
the horizontal (y) axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Cell = tuple[int, int]


def normalize_cells(cells) -> tuple[Cell, ...]:
    """Shift offsets so min row = min col = 0 and sort them."""
    r0 = min(r for r, _ in cells)
    c0 = min(c for _, c in cells)
    return tuple(sorted((r - r0, c - c0) for r, c in cells))


def _rotate90(cells):
    return [(-c, r) for r, c in cells]


def _flip(cells):
    return [(r, -c) for r, c in cells]


def _connected(cells) -> bool:
    todo = {cells[0]}
    seen = set()
    cellset = set(cells)
    while todo:
        r, c = todo.pop()
        seen.add((r, c))
        for nb in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if nb in cellset and nb not in seen:
                todo.add(nb)
    return len(seen) == len(cells)


@dataclass(frozen=True)
class PolyominoShape:
    """One tile shape: id, display name, normalized cell offsets.

    `vertical_only` keeps just the variants whose bounding box is taller
    than wide (long segment along the panel's vertical axis).
    """

    shape_id: int
    name: str
    cells: tuple[Cell, ...]
    allow_rotations: bool = True
    allow_flips: bool = True
    vertical_only: bool = False

    def __post_init__(self):
        if len(self.cells) < 2:
            raise ValueError(f"shape {self.name!r} needs at least 2 cells")
        if len(set(self.cells)) != len(self.cells):
            raise ValueError(f"shape {self.name!r} has duplicate cells")
        if self.cells != normalize_cells(self.cells):
            raise ValueError(f"shape {self.name!r} cells are not normalized")
        if not _connected(self.cells):
            raise ValueError(f"shape {self.name!r} cells are not edge-connected")

    @property
    def size(self) -> int:
        return len(self.cells)


# (rotation_deg, flipped) tag attached to each distinct variant
OrientationTag = tuple[int, bool]


def orientations(shape: PolyominoShape) -> list[tuple[OrientationTag, tuple[Cell, ...]]]:
    """Distinct cell sets of a shape under the transforms it permits.

    Variants are generated in a fixed order (no flip then flip, rotations
    0/90/180/270 within each) and deduplicated keeping the first tag, so
    symmetric shapes contribute each geometry once.
    """
    out: list[tuple[OrientationTag, tuple[Cell, ...]]] = []
    seen: set[tuple[Cell, ...]] = set()
    for flipped in (False, True) if shape.allow_flips else (False,):
        cells = list(_flip(shape.cells)) if flipped else list(shape.cells)
        for quarter in range(4) if shape.allow_rotations else range(1):
            variant = normalize_cells(cells)
            if variant not in seen:
                seen.add(variant)
                height = 1 + max(r for r, _ in variant)
                width = 1 + max(c for _, c in variant)
                if not shape.vertical_only or height > width:
                    out.append(((quarter * 90, flipped), variant))
            cells = _rotate90(cells)
    return out


# Built-in shape geometries. The domino base is horizontal so its variants
# enumerate horizontal before vertical; the hexomino bases put the long
# segment along the rows (vertical on the panel).
_BUILTIN_CELLS: dict[str, tuple[Cell, ...]] = {
    "domino": ((0, 0), (0, 1)),
    "tromino_i": ((0, 0), (0, 1), (0, 2)),
    "tromino_l": ((0, 0), (0, 1), (1, 0)),
    "hexomino_p": ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 0)),
    "hexomino_l": ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (4, 1)),
    "hexomino_i": ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0)),
}


def builtin_shape(name: str, shape_id: int = 1, **kwargs) -> PolyominoShape:
    try:
        cells = _BUILTIN_CELLS[name]
    except KeyError:
        raise ValueError(
            f"unknown shape {name!r}; known: {sorted(_BUILTIN_CELLS)}"
        ) from None
    return PolyominoShape(shape_id, name, cells, **kwargs)


#: Named alphabets selectable from run configurations. "baseline" is the
#: vertical 1x6 bar with rotations disabled, which admits exactly the regular
#: column layout. "P+L" restricts both shapes to their vertically-elongated
#: variants; the full 8+8 orientation union admits ~18M tilings of the 8x12
#: panel, while the vertical-only union admits the documented 81986.
_ALPHABETS: dict[str, tuple[tuple[str, dict], ...]] = {
    "P": (("hexomino_p", {}),),
    "L": (("hexomino_l", {}),),
    "P+L": (
        ("hexomino_p", {"vertical_only": True}),
        ("hexomino_l", {"vertical_only": True}),
    ),
    "baseline": (("hexomino_i", {"allow_rotations": False}),),
    "domino": (("domino", {}),),
    "tromino_i": (("tromino_i", {}),),
    "tromino_l": (("tromino_l", {}),),
}


def alphabet(selector: str) -> list[PolyominoShape]:
    """Resolve a named alphabet to a list of shapes with ids 1..F."""
    if selector not in _ALPHABETS:
        raise ValueError(
            f"unknown alphabet {selector!r}; known: {sorted(_ALPHABETS)}"
        )
    return [
        builtin_shape(name, shape_id=f, **kwargs)
        for f, (name, kwargs) in enumerate(_ALPHABETS[selector], start=1)
    ]


def load_alphabet(path) -> list[PolyominoShape]:
    """Load shapes from a JSON file.

    Format::

        {"shapes": [{"name": "P", "cells": [[0, 0], [0, 1], ...],
                     "rotations": true, "flips": true,
                     "vertical_only": false}, ...]}
    """
    with open(path) as fh:
        doc = json.load(fh)
    shapes = []
    for f, entry in enumerate(doc["shapes"], start=1):
        cells = normalize_cells(tuple((int(r), int(c)) for r, c in entry["cells"]))
        shapes.append(
            PolyominoShape(
                shape_id=f,
                name=str(entry["name"]),
                cells=cells,
                allow_rotations=bool(entry.get("rotations", True)),
                allow_flips=bool(entry.get("flips", True)),
                vertical_only=bool(entry.get("vertical_only", False)),
            )
        )
    if not shapes:
        raise ValueError(f"no shapes defined in {path}")
    return shapes


def save_alphabet(shapes: list[PolyominoShape], path) -> None:
    doc = {
        "shapes": [
            {
                "name": s.name,
                "cells": [list(c) for c in s.cells],
                "rotations": s.allow_rotations,
                "flips": s.allow_flips,
                "vertical_only": s.vertical_only,
            }
            for s in shapes
        ]
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
