import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apertile.shapes import alphabet, builtin_shape
from apertile.tiling import (
    AggregationVector,
    Aperture,
    Placement,
    _cover_json_line,
    _CoverSearch,
    baseline_tiling,
    build_incidence_matrix,
    count_exact_covers,
    cover_from_json,
    cover_to_ascii,
    cover_to_json,
    enumerate_exact_covers,
    generate_placements,
)

from oracles import brute_force_covers, brute_force_placements, reference_covers


def matrix_for(columns, rows, selector):
    aperture = Aperture(columns, rows)
    placements = generate_placements(aperture, alphabet(selector))
    return build_incidence_matrix(placements, aperture), aperture


def assert_valid_cover(cover, aperture, matrix):
    cover.validate()
    values = np.asarray(cover.values)
    assert values.shape == (aperture.size,)
    # union covers every pixel, tiles are disjoint, and each tile is one row
    assert cover.placements is not None
    seen = set()
    for q, k in enumerate(cover.placements, start=1):
        pixels = set(matrix.rows[k - 1])
        assert not (pixels & seen)
        seen.update(pixels)
        assert {int(i) for i in np.flatnonzero(values == q) + 1} == pixels
    assert seen == set(range(1, aperture.size + 1))


# --- apertures and placements ----------------------------------------------

@given(st.integers(1, 9), st.integers(1, 9))
def test_pixel_index_bijection(columns, rows):
    aperture = Aperture(columns, rows)
    seen = set()
    for n in range(1, rows + 1):
        for m in range(1, columns + 1):
            i = aperture.pixel_index(m, n)
            assert aperture.pixel_coords(i) == (m, n)
            seen.add(i)
    assert seen == set(range(1, aperture.size + 1))


def test_pixel_index_rejects_out_of_range():
    aperture = Aperture(3, 2)
    with pytest.raises(ValueError):
        aperture.pixel_index(4, 1)
    with pytest.raises(ValueError):
        aperture.pixel_coords(7)


def test_domino_3x2_has_seven_placements_in_reference_order():
    aperture = Aperture(3, 2)
    placements = generate_placements(aperture, alphabet("domino"))
    covered = [p.covered for p in placements]
    assert covered == [
        (1, 2), (2, 3), (4, 5), (5, 6),  # horizontal, row-major anchors
        (1, 4), (2, 5), (3, 6),  # vertical
    ]
    assert [p.placement_id for p in placements] == list(range(1, 8))


def test_domino_does_not_fit_1x1():
    placements = generate_placements(Aperture(1, 1), alphabet("domino"))
    assert placements == []


def test_placements_match_brute_force_scan():
    aperture = Aperture(8, 12)
    shape = builtin_shape("hexomino_p", 1)
    fast = {frozenset(p.covered) for p in generate_placements(aperture, [shape])}
    assert fast == brute_force_placements(aperture, shape)
    # distinctness: one placement per covered set
    assert len(fast) == len(generate_placements(aperture, [shape]))


def test_duplicate_shape_ids_rejected():
    shapes = [builtin_shape("domino", 1), builtin_shape("tromino_i", 1)]
    with pytest.raises(ValueError, match="duplicate shape ids"):
        generate_placements(Aperture(4, 4), shapes)


def test_empty_shape_list_rejected():
    with pytest.raises(ValueError, match="no shapes"):
        generate_placements(Aperture(4, 4), [])


# --- incidence matrix --------------------------------------------------------

def test_incidence_matrix_matches_reference_figure():
    matrix, _ = matrix_for(3, 2, "domino")
    assert matrix.shape == (7, 6)
    assert sum(len(pixels) for pixels in matrix.rows) == 14  # two ones per row
    assert matrix.rows[0] == (1, 2)
    assert matrix.rows[2] == (4, 5)
    assert matrix.rows[6] == (3, 6)


def test_incidence_entries_equal_membership():
    matrix, aperture = matrix_for(4, 3, "tromino_l")
    for pixels, placement in zip(matrix.rows, matrix.placements, strict=True):
        for i in range(1, aperture.size + 1):
            assert (i in pixels) == (i in placement.covered)


def test_single_full_cover_placement_gives_all_ones_row():
    aperture = Aperture(2, 1)
    placements = generate_placements(aperture, alphabet("domino"))
    matrix = build_incidence_matrix(placements, aperture)
    assert matrix.shape == (1, 2)
    assert matrix.rows == ((1, 2),)


def test_incidence_rejects_out_of_aperture_pixels():
    aperture = Aperture(2, 2)
    bogus = Placement(1, 1, (0, False), 1, (1, 5))
    with pytest.raises(ValueError, match="outside"):
        build_incidence_matrix([bogus], aperture)


def test_incidence_rejects_empty_placements():
    with pytest.raises(ValueError, match="no placements"):
        build_incidence_matrix([], Aperture(2, 2))


# --- exact covers ------------------------------------------------------------

def test_domino_3x2_covers():
    matrix, aperture = matrix_for(3, 2, "domino")
    covers = list(enumerate_exact_covers(matrix))
    assert len(covers) == 3
    first = covers[0]
    assert first.values.tolist() == [1, 1, 2, 3, 3, 2]
    assert set(first.placements) == {1, 3, 7}
    for cover in covers:
        assert_valid_cover(cover, aperture, matrix)


def test_domino_2x2_has_two_covers():
    matrix, _ = matrix_for(2, 2, "domino")
    assert count_exact_covers(matrix) == 2


def test_count_matches_stream_length():
    matrix, _ = matrix_for(4, 3, "tromino_l")
    assert count_exact_covers(matrix) == len(list(enumerate_exact_covers(matrix)))


def test_enumeration_is_deterministic():
    matrix, _ = matrix_for(4, 4, "domino")
    first = [c.values.tolist() for c in enumerate_exact_covers(matrix)]
    second = [c.values.tolist() for c in enumerate_exact_covers(matrix)]
    assert first == second


def test_infeasible_instance_yields_empty_stream():
    matrix, _ = matrix_for(3, 3, "domino")  # odd pixel count
    assert list(enumerate_exact_covers(matrix)) == []
    assert count_exact_covers(matrix) == 0


@pytest.mark.parametrize(
    "columns,rows,selector,total",
    [(4, 6, "P", 8), (4, 6, "P+L", 16), (6, 6, "P", 48), (6, 6, "P+L", 64)],
)
def test_strided_stream_equals_filtered_full_stream(columns, rows, selector, total):
    matrix, _ = matrix_for(columns, rows, selector)
    full = list(_CoverSearch(matrix).stream())
    assert [t for t, _ in full] == list(range(1, total + 1))
    search = _CoverSearch(matrix)  # its memo persists across the streams below
    assert search.count() == total
    for step in (1, 2, 3, 7, total - 1, total):
        for start in range(1, total + 2):
            expected = full[start - 1 :: step]
            assert list(_CoverSearch(matrix).stream(start, step)) == expected
            assert list(search.stream(start, step)) == expected


def warm_memo(search, state, total):
    """Bring a fresh search's memo into one of MEMO_STATES."""
    if state == "count":
        assert search.count() == total
    elif state == "stream":
        assert sum(1 for _ in search.stream()) == total
    elif state == "half":
        stream = search.stream()
        for _ in range(total // 2):
            next(stream)
        stream.close()


MEMO_STATES = ("cold", "count", "stream", "half")


@pytest.mark.parametrize("state", MEMO_STATES)
@pytest.mark.parametrize(
    "columns,rows,selector",
    [(4, 6, "P"), (4, 6, "P+L"), (6, 6, "P"), (6, 6, "P+L"), (6, 8, "P"), (6, 8, "P+L")],
)
def test_memoized_search_equals_the_unmemoized_reference(columns, rows, selector, state):
    matrix, _ = matrix_for(columns, rows, selector)
    reference = reference_covers(matrix)
    total = len(reference)
    starts = {1, 2, total // 2, total - 1, total, total + 1} | set(
        range(1, total + 2, max(1, total // 12))
    )
    for step in sorted({1, 2, 3, 7, total - 1, total}):
        for start in sorted(starts - {0}):
            search = _CoverSearch(matrix)
            warm_memo(search, state, total)
            expected = [(t, reference[t - 1]) for t in range(start, total + 1, step)]
            assert list(search.stream(start, step)) == expected
            assert search.count() == total
            # what the memo holds now still streams every cover in order
            assert [r for _, r in search.stream()] == reference


@pytest.mark.parametrize("columns,rows,selector", [(6, 6, "P"), (6, 8, "P")])
def test_count_in_the_middle_of_a_stream(columns, rows, selector):
    # the count stores nodes the suspended stream is still walking
    matrix, _ = matrix_for(columns, rows, selector)
    reference = reference_covers(matrix)
    total = len(reference)
    for start, step in ((1, 1), (2, 3)):
        search = _CoverSearch(matrix)
        stream = search.stream(start, step)
        head = [next(stream) for _ in range(len(range(start, total + 1, step)) // 2)]
        assert search.count() == total
        expected = [(t, reference[t - 1]) for t in range(start, total + 1, step)]
        assert head + list(stream) == expected


def test_stream_of_a_stored_node_expands_nothing():
    matrix, _ = matrix_for(6, 8, "P")
    search = _CoverSearch(matrix)
    covers = list(search.stream())  # a cold step-1 stream never counts
    assert search.count() == len(covers) == 202
    expanded = []
    search._branch = lambda active, covered: expanded.append(covered)
    assert list(search.stream()) == covers
    assert list(search.stream(5, 7)) == covers[4::7]
    assert expanded == []


def test_cold_step_one_stream_counts_nothing():
    # a cold stream expands nodes as it reaches them, not by counting first,
    # and enters each stored node through its live rows alone
    matrix, _ = matrix_for(6, 8, "P")

    def expansions(walk):
        search = _CoverSearch(matrix)
        branch = search._branch
        expanded = []

        def counted(active, covered):
            expanded.append(covered)
            return branch(active, covered)

        search._branch = counted
        walk(search)
        return len(expanded)

    counting = expansions(lambda search: search.count())
    assert expansions(lambda search: next(search.stream())) * 10 < counting
    assert expansions(lambda search: sum(1 for _ in search.stream())) == counting


@pytest.mark.parametrize(
    "columns,rows,selector", [(6, 6, "P"), (6, 6, "P+L"), (6, 4, "domino")]
)
def test_cover_json_lines_equal_json_dumps(columns, rows, selector):
    matrix, aperture = matrix_for(columns, rows, selector)
    line = _cover_json_line(matrix)
    covers = list(enumerate_exact_covers(matrix))
    assert len(covers) > 1
    assert [line(r) for _, r in _CoverSearch(matrix).stream()] == [
        json.dumps(cover_to_json(cover, aperture)) + "\n" for cover in covers
    ]


def test_stream_rejects_nonpositive_start_or_step():
    matrix, _ = matrix_for(3, 2, "domino")
    with pytest.raises(ValueError):
        next(_CoverSearch(matrix).stream(start=0))
    with pytest.raises(ValueError):
        next(_CoverSearch(matrix).stream(step=0))


@pytest.mark.parametrize(
    "columns,rows,selector",
    [
        (3, 2, "domino"),
        (4, 3, "domino"),
        (2, 6, "domino"),
        (3, 3, "tromino_l"),
        (4, 3, "tromino_l"),
        (3, 4, "tromino_i"),
        (2, 6, "P"),
        (4, 3, "P"),
        (6, 2, "L"),
    ],
)
def test_cover_sets_equal_brute_force(columns, rows, selector):
    matrix, aperture = matrix_for(columns, rows, selector)
    rows_sets = [frozenset(r) for r in matrix.rows]
    expected = brute_force_covers(rows_sets, aperture.size)
    got = {
        frozenset(k - 1 for k in cover.placements)
        for cover in enumerate_exact_covers(matrix)
    }
    assert got == expected


@given(
    st.sampled_from(["domino", "tromino_l", "tromino_i"]),
    st.integers(1, 4),
    st.integers(1, 4),
)
def test_random_small_instances_agree_with_brute_force(selector, columns, rows):
    aperture = Aperture(columns, rows)
    placements = generate_placements(aperture, alphabet(selector))
    if not placements:
        return
    matrix = build_incidence_matrix(placements, aperture)
    rows_sets = [frozenset(r) for r in matrix.rows]
    got = {
        frozenset(k - 1 for k in cover.placements)
        for cover in enumerate_exact_covers(matrix)
    }
    assert got == brute_force_covers(rows_sets, aperture.size)
    for cover in enumerate_exact_covers(matrix):
        assert_valid_cover(cover, aperture, matrix)


def test_single_shape_covers_use_expected_tile_count():
    matrix, aperture = matrix_for(4, 3, "domino")
    for cover in enumerate_exact_covers(matrix):
        assert cover.tile_count == aperture.size // 2
        assert sorted(np.unique(cover.values)) == list(range(1, cover.tile_count + 1))


# --- baseline ----------------------------------------------------------------

def test_baseline_8x12_is_sixteen_vertical_tiles():
    aperture = Aperture(8, 12)
    cover = baseline_tiling(aperture)
    cover.validate()
    assert cover.tile_count == 16
    values = cover.values.reshape(12, 8)
    for q in range(1, 17):
        rows_idx, cols_idx = np.nonzero(values == q)
        assert len(set(cols_idx)) == 1  # one column
        assert sorted(rows_idx) == list(range(min(rows_idx), min(rows_idx) + 6))
    # column-major ids: first column holds tiles 1 and 2
    assert sorted(set(values[:, 0])) == [1, 2]
    assert sorted(set(values[:, 7])) == [15, 16]


def test_baseline_single_column():
    cover = baseline_tiling(Aperture(1, 6))
    assert cover.tile_count == 1
    assert cover.values.tolist() == [1] * 6


def test_baseline_matches_exact_cover_of_vertical_bars():
    aperture = Aperture(8, 12)
    matrix = build_incidence_matrix(
        generate_placements(aperture, alphabet("baseline")), aperture
    )
    covers = list(enumerate_exact_covers(matrix))
    assert len(covers) == 1
    # same partition as the direct construction, up to tile relabeling
    direct = baseline_tiling(aperture)
    partition = lambda values: {
        frozenset(np.flatnonzero(np.asarray(values) == q) + 1)
        for q in range(1, 17)
    }
    assert partition(covers[0].values) == partition(direct.values)


def test_baseline_rejects_indivisible_rows():
    with pytest.raises(ValueError, match="divisible by 6"):
        baseline_tiling(Aperture(8, 10))


@pytest.mark.parametrize(
    "values,tile_count",
    [([1, 2, 4], 3), ([0, 1, 2], 2), ([2, 2], 1), ([1, 1.5, 2], 2), ([], 0), ([1, 1, 1], 2)],
)
def test_validate_rejects_tile_ids_other_than_one_to_q(values, tile_count):
    with pytest.raises(ValueError, match=f"tile ids must be exactly 1..{tile_count}"):
        AggregationVector(np.array(values), tile_count).validate()


def test_validate_accepts_every_id_once_or_more():
    AggregationVector(np.array([[1, 3], [2, 3]]), 3).validate()
    AggregationVector(np.array([2.0, 1.0, 1.0]), 2).validate()


def test_tile_cells_list_each_tiles_pixels_in_ascending_order():
    cover = AggregationVector(np.array([2, 1, 3, 1, 2, 3, 3]), 3)
    assert [cells.tolist() for cells in cover.tile_cells()] == [[1, 3], [0, 4], [2, 5, 6]]


def test_validate_does_not_import_numpy_ma():
    # np.unique imports numpy.ma (about 0.6 MB resident) on its first call
    code = (
        "import sys, numpy as np\n"
        "from apertile.tiling import AggregationVector\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "AggregationVector(np.array([1, 2, 2, 3], dtype=np.int32), 3).validate()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# --- serialization -------------------------------------------------------------

def test_cover_json_round_trip():
    matrix, aperture = matrix_for(3, 2, "domino")
    cover = next(enumerate_exact_covers(matrix))
    doc = cover_to_json(cover, aperture)
    restored, restored_aperture = cover_from_json(doc)
    assert restored.values.tolist() == cover.values.tolist()
    assert restored.tile_count == cover.tile_count
    assert restored.placements == cover.placements
    assert (restored_aperture.columns, restored_aperture.rows) == (3, 2)


def test_cover_json_rejects_wrong_length():
    matrix, aperture = matrix_for(3, 2, "domino")
    doc = cover_to_json(next(enumerate_exact_covers(matrix)), aperture)
    doc["values_row_major"] = doc["values_row_major"][:-1]
    with pytest.raises(ValueError, match="length"):
        cover_from_json(doc)


def test_ascii_render():
    matrix, aperture = matrix_for(3, 2, "domino")
    cover = next(enumerate_exact_covers(matrix))
    art = cover_to_ascii(cover, aperture)
    assert art.splitlines() == ["221", "001"]  # top row is n=2
