import warnings

import numpy as np
import pytest

from apertile.channel import (
    ChannelModel,
    ChannelStack,
    LinkBudget,
    aggregate_channel,
    assemble_channel,
    effective_channels,
    placement_table,
)
from apertile.geometry import ElementPattern, expand_weights_dual
from apertile.scenario import UEDrop
from apertile.shapes import alphabet, builtin_shape, load_alphabet, save_alphabet
from apertile.tiling import (
    AggregationVector,
    Aperture,
    baseline_tiling,
    build_incidence_matrix,
    enumerate_exact_covers,
    generate_placements,
)
from apertile.units import watts_to_dbm

from oracles import element_position, linear_to_db, los_green, reduceat_aggregate
from test_geometry import reference_geometry


def simple_drop(positions, index=1):
    return UEDrop(index=index, positions=np.asarray(positions, dtype=float))


# --- link budget ---------------------------------------------------------------

def test_budget_from_dbm():
    budget = LinkBudget.from_dbm(43.0, -92.0, -120.0)
    assert budget.tx_power_w == pytest.approx(10 ** 1.3)
    assert budget.noise_power_w == pytest.approx(10 ** -12.2)
    assert budget.coverage_threshold_w == pytest.approx(1e-15)


def test_zero_watts_is_minus_infinite_dbm_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert watts_to_dbm(0.0) == -np.inf
        np.testing.assert_array_equal(watts_to_dbm([0.0, 1e-3]), [-np.inf, 0.0])


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        LinkBudget(0.0, 1e-12, 1e-15)


@pytest.mark.parametrize("index", [0, 1, 2])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_budget_rejects_nan_and_infinite_powers(index, bad):
    powers = [1.0, 1e-6, 1e-18]
    powers[index] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        LinkBudget(*powers)


def test_channel_model_rejects_nan():
    for exponent in (float("nan"), float("inf"), 0.0):
        with pytest.raises(ValueError, match="exponent must be positive and finite"):
            ChannelModel("ploss_exp", exponent)
    with pytest.raises(ValueError, match="penetration loss must be finite"):
        ChannelModel(penetration_loss_db=float("nan"))


# --- single coupling --------------------------------------------------------------

def test_copolar_boresight_is_friis():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    d = 120.0
    g = los_green(geom, pattern, (1, 1, "V"), (d, 0.0, 0.0), "V")
    friis = pattern.power_gain(np.pi / 2, 0.0) * (geom.wavelength_m / (4 * np.pi * d)) ** 2
    assert abs(g) ** 2 == pytest.approx(friis, rel=1e-12)
    assert np.angle(g) == pytest.approx(np.angle(np.exp(-2j * np.pi * d / geom.wavelength_m)))


def test_cross_polar_coupling_is_zero():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    g = los_green(geom, pattern, (1, 1, "V"), (50.0, 3.0, -2.0), "H")
    assert g == pytest.approx(0.0, abs=1e-15)


def test_distance_doubling_drops_6db():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    p1 = abs(los_green(geom, pattern, (1, 1, "V"), (100.0, 0.0, 0.0), "V")) ** 2
    p2 = abs(los_green(geom, pattern, (1, 1, "V"), (200.0, 0.0, 0.0), "V")) ** 2
    assert linear_to_db(p1 / p2) == pytest.approx(6.02, abs=0.01)


def test_exponent_mode_reduces_to_free_space_at_alpha_two():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    rx = (77.0, 5.0, 1.5)
    g_fs = los_green(geom, pattern, (1, 1, "H"), rx, "H")
    g_exp = los_green(
        geom, pattern, (1, 1, "H"), rx, "H", ChannelModel("ploss_exp", 2.0)
    )
    assert g_fs == pytest.approx(g_exp, rel=1e-12)


def test_exponent_mode_steeper_decay():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    model = ChannelModel("ploss_exp", 4.0)
    p1 = abs(los_green(geom, pattern, (1, 1, "V"), (100.0, 0.0, 0.0), "V", model)) ** 2
    p2 = abs(los_green(geom, pattern, (1, 1, "V"), (200.0, 0.0, 0.0), "V", model)) ** 2
    assert linear_to_db(p1 / p2) == pytest.approx(12.04, abs=0.01)


def test_penetration_loss_scales_power():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    rx = (150.0, 0.0, 0.0)
    p0 = abs(los_green(geom, pattern, (1, 1, "V"), rx, "V")) ** 2
    p20 = abs(
        los_green(geom, pattern, (1, 1, "V"), rx, "V", ChannelModel(penetration_loss_db=20.0))
    ) ** 2
    assert linear_to_db(p0 / p20) == pytest.approx(20.0, abs=1e-9)


def test_zero_distance_raises():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    position = element_position(geom, 1, 1)
    with pytest.raises(ValueError, match="coincides"):
        assemble_channel(geom, ElementPattern(), simple_drop([position]))


def test_channel_model_validation():
    with pytest.raises(ValueError, match="unknown channel mode"):
        ChannelModel("quadriga")
    assert ChannelModel("ploss_exp", 3.0, 5.0).tag == "ploss_exp(3)+pen(5dB)"


# --- full matrix --------------------------------------------------------------------

def test_single_element_single_user_block_structure():
    geom = reference_geometry(columns=1, rows=1, h=0.0)
    pattern = ElementPattern()
    channel = assemble_channel(geom, pattern, simple_drop([(60.0, -4.0, 2.0)]))
    assert channel.matrix.shape == (2, 2)
    for chi_idx, chi in enumerate(("V", "H")):
        for psi_idx, psi in enumerate(("V", "H")):
            expected = los_green(geom, pattern, (1, 1, psi), (60.0, -4.0, 2.0), chi)
            assert channel.matrix[chi_idx, psi_idx] == pytest.approx(expected)


def test_entries_match_elementwise_oracle(rng):
    geom = reference_geometry(columns=3, rows=2, h=12.0)
    pattern = ElementPattern()
    positions = rng.uniform([30, -40, 1.5], [300, 40, 20], size=(2, 3))
    channel = assemble_channel(geom, pattern, simple_drop(positions))
    mn = 6
    for u in range(2):
        for chi_idx, chi in enumerate(("V", "H")):
            row = 2 * u + chi_idx
            for n in range(1, 3):
                for m in range(1, 4):
                    i = m + (n - 1) * 3
                    for psi_idx, psi in enumerate(("V", "H")):
                        col = psi_idx * mn + (i - 1)
                        expected = los_green(
                            geom, pattern, (m, n, psi), positions[u], chi
                        )
                        assert channel.matrix[row, col] == pytest.approx(
                            expected, rel=1e-12
                        )


def test_permuting_users_permutes_row_blocks(rng):
    geom = reference_geometry(columns=2, rows=2, h=9.0)
    pattern = ElementPattern()
    positions = rng.uniform([40, -30, 1.5], [200, 30, 10], size=(3, 3))
    direct = assemble_channel(geom, pattern, simple_drop(positions)).matrix
    swapped = assemble_channel(geom, pattern, simple_drop(positions[[2, 0, 1]])).matrix
    np.testing.assert_allclose(swapped[0:2], direct[4:6])
    np.testing.assert_allclose(swapped[2:4], direct[0:2])
    np.testing.assert_allclose(swapped[4:6], direct[2:4])


def test_assembly_is_deterministic(rng):
    geom = reference_geometry(columns=2, rows=3)
    pattern = ElementPattern()
    positions = rng.uniform([40, -30, 1.5], [200, 30, 10], size=(2, 3))
    a = assemble_channel(geom, pattern, simple_drop(positions)).matrix
    b = assemble_channel(geom, pattern, simple_drop(positions)).matrix
    np.testing.assert_array_equal(a, b)


def test_assemble_rejects_bad_positions():
    geom = reference_geometry(columns=1, rows=1)
    with pytest.raises(ValueError, match=r"\(U, 3\)"):
        assemble_channel(geom, ElementPattern(), simple_drop(np.zeros((0, 3))))


# --- aggregation ----------------------------------------------------------------------

def test_single_tile_sums_all_columns(rng):
    G = rng.normal(size=(4, 12)) + 1j * rng.normal(size=(4, 12))
    cover = AggregationVector(values=np.ones(6, dtype=int), tile_count=1)
    H = aggregate_channel(G, cover)
    assert H.shape == (4, 2)
    np.testing.assert_allclose(H[:, 0], G[:, :6].sum(axis=1))
    np.testing.assert_allclose(H[:, 1], G[:, 6:].sum(axis=1))


def test_one_element_tiles_are_identity(rng):
    G = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    cover = AggregationVector(values=np.arange(1, 5), tile_count=4)
    np.testing.assert_allclose(aggregate_channel(G, cover), G)


def test_aggregation_matches_membership_masks(rng):
    cover = baseline_tiling(Aperture(4, 12))
    mn, q = 48, 8
    G = rng.normal(size=(6, 2 * mn)) + 1j * rng.normal(size=(6, 2 * mn))
    H = aggregate_channel(G, cover)
    for tile in range(1, q + 1):
        mask = np.asarray(cover.values) == tile
        np.testing.assert_allclose(H[:, tile - 1], G[:, :mn][:, mask].sum(axis=1))
        np.testing.assert_allclose(H[:, q + tile - 1], G[:, mn:][:, mask].sum(axis=1))


def test_aggregation_commutes_with_expansion(rng):
    # aggregate(G, s) @ v == G @ expand(s, v), the defining identity
    for _ in range(20):
        cover = baseline_tiling(Aperture(4, 6))
        mn, q = 24, 4
        G = rng.normal(size=(8, 2 * mn)) + 1j * rng.normal(size=(8, 2 * mn))
        v = rng.normal(size=2 * q) + 1j * rng.normal(size=2 * q)
        left = aggregate_channel(G, cover) @ v
        right = G @ expand_weights_dual(cover, v)
        np.testing.assert_allclose(left, right, rtol=1e-13)


def test_aggregation_broadcasts_over_drops(rng):
    cover = baseline_tiling(Aperture(4, 6))
    G = rng.normal(size=(5, 4, 48)) + 1j * rng.normal(size=(5, 4, 48))
    batched = aggregate_channel(G, cover)
    for p in range(5):
        np.testing.assert_array_equal(batched[p], aggregate_channel(G[p], cover))


def test_aggregation_rejects_mismatched_width(rng):
    cover = baseline_tiling(Aperture(4, 6))
    with pytest.raises(ValueError, match="TX columns"):
        aggregate_channel(np.zeros((2, 50)), cover)


def complex_stack(rng, drops, ports, columns):
    shape = (drops, ports, columns)
    scale = 10.0 ** rng.integers(-9, -3, size=shape)
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def assert_bit_identical(G, cover):
    """Row-major and column-major inputs both give the reduceat bytes."""
    expected = reduceat_aggregate(G, cover)
    for channels in (G, ChannelStack.fill(G, len(G))):
        got = aggregate_channel(channels, cover)
        assert got.flags.c_contiguous
        assert got.shape == expected.shape
        assert np.array_equal(got.view(float), expected.view(float))


def labels_from_sizes(rng, sizes):
    """A random pixel-to-tile assignment with the given tile sizes."""
    values = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    return AggregationVector(values=rng.permutation(values), tile_count=len(sizes))


def test_aggregation_is_bit_identical_to_reduceat_for_tile_sizes_1_to_20(rng):
    for n in range(1, 21):
        cover = labels_from_sizes(rng, [n] * 3)
        assert_bit_identical(complex_stack(rng, 3, 4, 2 * 3 * n), cover)


def test_aggregation_is_bit_identical_to_reduceat_for_mixed_sizes(rng):
    for sizes in ([1, 2, 3, 4, 5, 6, 7, 8], [20, 1, 13, 6, 6, 9], [64, 65, 1, 130]):
        cover = labels_from_sizes(rng, sizes)
        G = complex_stack(rng, 2, 6, 2 * sum(sizes))
        assert_bit_identical(G, cover)
        # real channels follow numpy's real pairwise order, which differs
        real = np.ascontiguousarray(G.real)
        assert np.array_equal(aggregate_channel(real, cover), reduceat_aggregate(real, cover))


def placement_cover(aperture, pixels):
    """Placement `pixels` (1-based) as one tile among single-pixel tiles,
    the tiles numbered by first pixel, like enumerated covers."""
    tile = np.zeros(aperture.size, dtype=bool)
    tile[np.asarray(pixels) - 1] = True
    keys = np.where(tile, np.flatnonzero(tile)[0], np.arange(aperture.size))
    _, values = np.unique(keys, return_inverse=True)
    return AggregationVector(values=values + 1, tile_count=int(values.max()) + 1)


@pytest.mark.parametrize("shapes", ["P", "P+L"])
def test_aggregation_is_bit_identical_for_every_placement(rng, shapes):
    # each placement as one tile among single-pixel tiles, on the 8x12 panel
    aperture = Aperture(8, 12)
    G = complex_stack(rng, 2, 4, 2 * aperture.size)
    matrix = build_incidence_matrix(generate_placements(aperture, alphabet(shapes)), aperture)
    for pixels in matrix.rows:
        assert_bit_identical(G, placement_cover(aperture, pixels))
    assert_bit_identical(G, baseline_tiling(aperture))


def mixed_alphabet(tmp_path):
    """Dominoes, L trominoes and P hexominoes, read back from a custom
    alphabet file."""
    path = tmp_path / "mixed.json"
    save_alphabet(
        [
            builtin_shape("domino", 1),
            builtin_shape("tromino_l", 2),
            builtin_shape("hexomino_p", 3),
        ],
        path,
    )
    return load_alphabet(path)


@pytest.mark.parametrize(
    "shapes, aperture",
    [("P+L", Aperture(8, 12)), ("mixed", Aperture(4, 6))],
    ids=["P+L-8x12", "mixed-4x6"],
)
def test_placement_table_rows_are_aggregated_columns_bit_for_bit(rng, tmp_path, shapes, aperture):
    G = complex_stack(rng, 3, 4, 2 * aperture.size)
    stack = ChannelStack.fill(G, len(G))
    chosen = mixed_alphabet(tmp_path) if shapes == "mixed" else alphabet(shapes)
    matrix = build_incidence_matrix(generate_placements(aperture, chosen), aperture)
    table = placement_table(stack, [np.asarray(p) - 1 for p in matrix.rows])
    # placement-major: (sets, chi, V or H, drops, ports) for a 1x1 coupling
    assert table.shape == (len(matrix.rows), 1, 2, 3, 4) and table.flags.c_contiguous
    if shapes == "mixed":
        assert {len(p) for p in matrix.rows} == {2, 3, 6}
    # aggregate_channel builds such a table, so both are checked against
    # the reduceat oracle
    for k, pixels in enumerate(matrix.rows):
        cover = placement_cover(aperture, pixels)
        H = reduceat_aggregate(G, cover)
        tile = cover.values[pixels[0] - 1] - 1
        for half in (0, 1):  # V then H columns
            want = H[..., half * cover.tile_count + tile]
            assert table[k, 0, half].tobytes() == want.tobytes()
    # a tiling's effective channels are one gather of its placements' rows
    covers = 0
    for cover in enumerate_exact_covers(matrix):
        H = reduceat_aggregate(G, cover)
        assert aggregate_channel(stack, cover).tobytes() == H.tobytes()
        gathered = effective_channels(table, np.array(cover.placements) - 1)
        assert gathered.flags.c_contiguous
        assert gathered.tobytes() == H.tobytes()
        covers += 1
        if covers == 200:
            break
    assert covers > 0


def test_channel_stack_fill_checks_the_drop_count(rng):
    # a whole channel is its own base, column-major, with a 1x1 coupling
    G = complex_stack(rng, 3, 2, 8)
    stack = ChannelStack.fill(G, 3)
    assert stack.base.shape == (8, 3, 2)
    assert stack.coupling.tolist() == [[1.0]]
    for p in range(3):
        assert stack.base[:, p, :].T.tobytes() == G[p].tobytes()
    with pytest.raises(ValueError, match="expected 4 channels"):
        ChannelStack.fill(G, 4)


SLANTS = {"+-45": (-45.0, 45.0), "0/30": (0.0, 30.0)}


def assembled(pattern, count=3, users=3):
    """Drops on a 4x6 panel: their factored stack and their assembled matrices."""
    rng = np.random.default_rng(7)
    geom = reference_geometry(columns=4, rows=6, h=10.0)
    xy = np.column_stack((rng.uniform(20, 200, count * users), rng.uniform(-80, 80, count * users)))
    drops = [
        simple_drop(np.column_stack((ue, np.full(users, 1.5))), p)
        for p, ue in enumerate(xy.reshape(count, users, 2))
    ]
    stack = ChannelStack.assemble(geom, pattern, drops, ChannelModel())
    return stack, [assemble_channel(geom, pattern, d).matrix for d in drops]


@pytest.mark.parametrize("slants", SLANTS.values(), ids=SLANTS.keys())
def test_assembled_stack_holds_the_factors_of_every_channel(slants):
    pattern = ElementPattern(slant_v_deg=slants[0], slant_h_deg=slants[1])
    stack, matrices = assembled(pattern)
    assert stack.base.shape == (24, 3, 3)
    assert stack.coupling.shape == (2, 2)
    if slants == (0.0, 30.0):
        assert stack.coupling[0, 1] == pytest.approx(np.cos(np.radians(30.0)))
    for p, G in enumerate(matrices):
        for chi in (0, 1):
            for psi in (0, 1):
                block = G[chi::2, psi * 24 : (psi + 1) * 24]
                product = stack.base[:, p, :].T * stack.coupling[chi, psi]
                assert product.tobytes() == block.tobytes()


@pytest.mark.parametrize("slants", SLANTS.values(), ids=SLANTS.keys())
def test_factored_tables_equal_the_expanded_ones_bit_for_bit(rng, slants):
    pattern = ElementPattern(slant_v_deg=slants[0], slant_h_deg=slants[1])
    stack, matrices = assembled(pattern)
    expanded = ChannelStack.fill(matrices, len(matrices))
    aperture = Aperture(4, 6)
    matrix = build_incidence_matrix(generate_placements(aperture, alphabet("P+L")), aperture)
    cells = [np.asarray(p) - 1 for p in matrix.rows]
    cells += baseline_tiling(aperture).tile_cells()
    table = placement_table(stack, cells)
    assert table.shape == (len(cells), 2, 2, 3, 3) and table.flags.c_contiguous
    # every set's columns, the factored table's chi axis moved into the ports
    every_set = effective_channels(table)
    assert every_set.tobytes() == effective_channels(placement_table(expanded, cells)).tobytes()
    assert every_set.tobytes() == effective_channels(table, np.arange(len(cells))).tobytes()
    for r in range(len(cells)):
        for half in (0, 1):
            for chi in (0, 1):
                want = every_set[:, chi::2, half * len(cells) + r]
                assert table[r, chi, half].tobytes() == want.tobytes()
    covers = [*enumerate_exact_covers(matrix), baseline_tiling(aperture)]
    covers += [labels_from_sizes(rng, sizes) for sizes in ([1] * 24, [24], [5, 7, 12])]
    G = np.stack(matrices)
    for cover in covers:
        H = aggregate_channel(stack, cover)
        assert H.flags.c_contiguous
        assert H.tobytes() == aggregate_channel(expanded, cover).tobytes()
        assert H.tobytes() == reduceat_aggregate(G, cover).tobytes()


def test_a_raw_channel_is_a_stack_with_a_unit_coupling(rng):
    # a non-separable array: the same tables whether filled or passed raw
    G = complex_stack(rng, 3, 6, 48)
    stack = ChannelStack.fill(G, len(G))
    aperture = Aperture(4, 6)
    matrix = build_incidence_matrix(generate_placements(aperture, alphabet("P+L")), aperture)
    cells = [np.asarray(p) - 1 for p in matrix.rows]
    table = placement_table(stack, cells)
    assert table.tobytes() == placement_table(ChannelStack(np.moveaxis(G, -1, 0)), cells).tobytes()
    for cover in enumerate_exact_covers(matrix):
        H = reduceat_aggregate(G, cover)
        assert aggregate_channel(stack, cover).tobytes() == H.tobytes()
        assert aggregate_channel(G, cover).tobytes() == H.tobytes()
        gathered = effective_channels(table, np.array(cover.placements) - 1)
        assert gathered.tobytes() == H.tobytes()
