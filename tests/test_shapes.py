import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apertile.shapes import (
    PolyominoShape,
    alphabet,
    builtin_shape,
    load_alphabet,
    normalize_cells,
    orientations,
    save_alphabet,
)


def variant_count(name, **kwargs):
    return len(orientations(builtin_shape(name, 1, **kwargs)))


def test_variant_counts():
    assert variant_count("domino") == 2
    assert variant_count("tromino_i") == 2
    assert variant_count("tromino_l") == 4
    assert variant_count("hexomino_p") == 8
    assert variant_count("hexomino_l") == 8
    assert variant_count("hexomino_i") == 2


def test_domino_enumerates_horizontal_first():
    first, second = orientations(builtin_shape("domino", 1))
    assert first == ((0, 0), (0, 1))  # horizontal
    assert second == ((0, 0), (1, 0))  # vertical


def test_vertical_only_keeps_tall_variants():
    shape = builtin_shape("hexomino_p", 1, vertical_only=True)
    variants = orientations(shape)
    assert len(variants) == 4
    for cells in variants:
        height = 1 + max(r for r, _ in cells)
        width = 1 + max(c for _, c in cells)
        assert height > width


def test_rotations_flag_limits_variants():
    assert variant_count("hexomino_i", allow_rotations=False) == 1
    assert variant_count("hexomino_p", allow_flips=False) == 4


def test_orientation_tags_are_unique_cells():
    for name in ("domino", "tromino_l", "hexomino_p", "hexomino_l"):
        cellsets = orientations(builtin_shape(name, 1))
        assert len(set(cellsets)) == len(cellsets)
        for cells in cellsets:
            assert cells == normalize_cells(cells)


def test_shape_validation_rejects_bad_cells():
    with pytest.raises(ValueError, match="at least 2"):
        PolyominoShape(1, "dot", ((0, 0),))
    with pytest.raises(ValueError, match="duplicate"):
        PolyominoShape(1, "dup", ((0, 0), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="not normalized"):
        PolyominoShape(1, "offset", ((1, 1), (1, 2)))
    with pytest.raises(ValueError, match="edge-connected"):
        PolyominoShape(1, "split", ((0, 0), (1, 1)))


def test_alphabet_registry():
    assert [s.name for s in alphabet("P")] == ["hexomino_p"]
    assert [s.name for s in alphabet("P+L")] == ["hexomino_p", "hexomino_l"]
    assert all(s.vertical_only for s in alphabet("P+L"))
    base = alphabet("baseline")[0]
    assert not base.allow_rotations
    with pytest.raises(ValueError, match="unknown alphabet"):
        alphabet("Z")


def test_alphabet_file_round_trip(tmp_path):
    path = tmp_path / "alpha.json"
    shapes = [
        builtin_shape("hexomino_p", 1),
        builtin_shape("hexomino_i", 2, allow_rotations=False),
    ]
    save_alphabet(shapes, path)
    loaded = load_alphabet(path)
    assert loaded == shapes


def test_alphabet_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"shapes": []}))
    with pytest.raises(ValueError, match="no shapes"):
        load_alphabet(path)


@st.composite
def connected_polyominoes(draw):
    """Grow a random edge-connected polyomino of 2..6 cells."""
    size = draw(st.integers(min_value=2, max_value=6))
    cells = [(0, 0)]
    while len(cells) < size:
        r, c = cells[draw(st.integers(0, len(cells) - 1))]
        dr, dc = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]))
        if (r + dr, c + dc) not in cells:
            cells.append((r + dr, c + dc))
    return normalize_cells(cells)


@given(connected_polyominoes())
def test_orientations_of_random_shapes_are_canonical(cells):
    shape = PolyominoShape(1, "random", cells)
    variants = orientations(shape)
    assert 1 <= len(variants) <= 8
    assert variants[0] == cells
    seen = set()
    for variant in variants:
        assert variant == normalize_cells(variant)
        assert len(variant) == len(cells)
        assert variant not in seen
        seen.add(variant)
