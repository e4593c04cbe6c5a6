import json

import numpy as np
import pytest

from apertile.scenario import (
    ScenarioParams,
    UEDrop,
    drops_fingerprint,
    floor_height,
    point_in_hexagon,
    sample_drop,
    sample_drops,
    save_drops,
)

from oracles import load_drops, point_in_hexagon_crossings, scenario_defaults


def uma(**overrides):
    return scenario_defaults("uma", **overrides)


# --- hexagon test -----------------------------------------------------------

def test_center_is_inside():
    assert point_in_hexagon((10.0, -3.0), (10.0, -3.0), 100.0)


def test_twice_the_circumradius_is_outside():
    assert not point_in_hexagon((200.0, 0.0), (0.0, 0.0), 100.0)


def test_vertices_and_apothem_direction():
    edge = 100.0
    # just inside a vertex (circumradius = edge)
    assert point_in_hexagon((edge * 0.999, 0.0), (0.0, 0.0), edge)
    assert not point_in_hexagon((edge * 1.001, 0.0), (0.0, 0.0), edge)
    # the apothem direction exits at edge * sqrt(3)/2
    apothem = edge * np.sqrt(3) / 2
    assert point_in_hexagon((0.0, apothem * 0.999), (0.0, 0.0), edge)
    assert not point_in_hexagon((0.0, apothem * 1.001), (0.0, 0.0), edge)


def test_against_half_plane_oracle(rng):
    center = np.array([166.67, 0.0])
    edge = 166.67
    points = rng.uniform([-100, -300], [500, 300], size=(10_000, 2))
    for p in points:
        assert point_in_hexagon(p, center, edge) == point_in_hexagon_crossings(
            p, center, edge
        )


def test_vectorized_matches_scalar(rng):
    center, edge = (50.0, -10.0), 80.0
    pts = rng.uniform(-200, 200, size=(64, 2))
    flags = point_in_hexagon(pts, center, edge)
    assert flags.shape == (64,)
    for p, f in zip(pts, flags):
        assert bool(f) == point_in_hexagon(tuple(p), center, edge)


def test_rejects_bad_edge():
    with pytest.raises(ValueError):
        point_in_hexagon((0, 0), (0, 0), 0.0)


# --- scenario params ----------------------------------------------------------

def test_table_defaults():
    assert uma().isd_m == 500.0
    assert uma().bs_height_m == 25.0
    assert uma().hex_edge_m == pytest.approx(500.0 / 3.0)
    umi = scenario_defaults("umi")
    assert (umi.isd_m, umi.bs_height_m) == (200.0, 10.0)
    with pytest.raises(ValueError):
        scenario_defaults("rural")


def test_centroid_defaults_to_edge_distance():
    params = uma()
    np.testing.assert_allclose(params.centroid, [500.0 / 3.0, 0.0])
    shifted = uma(centroid_x_m=10.0, centroid_y_m=-5.0)
    np.testing.assert_allclose(shifted.centroid, [10.0, -5.0])


def test_params_validation():
    with pytest.raises(ValueError):
        ScenarioParams(kind="uma", isd_m=-1.0, bs_height_m=25.0)
    with pytest.raises(ValueError):
        uma(drops=0)
    with pytest.raises(ValueError):
        uma(ue_height_mode="roof")


# --- drops ----------------------------------------------------------------------

def test_all_positions_inside_and_fixed_height(rng):
    params = uma(users=16, drops=1)
    drop = sample_drop(params, 1, rng)
    assert drop.positions.shape == (16, 3)
    for x, y, z in drop.positions:
        assert point_in_hexagon((x, y), params.centroid, params.hex_edge_m)
        assert z == 1.5


def test_same_seed_is_bit_identical():
    params = uma(drops=4, users=8, seed=42)
    a = sample_drops(params)
    b = sample_drops(params)
    assert drops_fingerprint(a) == drops_fingerprint(b)
    for da, db in zip(a, b):
        np.testing.assert_array_equal(da.positions, db.positions)
    c = sample_drops(uma(drops=4, users=8, seed=43))
    assert drops_fingerprint(a) != drops_fingerprint(c)


def test_floor_heights_hit_exact_support(rng):
    values = {floor_height(rng) for _ in range(20_000)}
    assert values == {1.5, 4.5, 7.5, 10.5, 13.5, 16.5, 19.5, 22.5}


def test_floor_mode_produces_floor_heights_and_exceeds_umi_site(rng):
    params = scenario_defaults("umi", ue_height_mode="floor", drops=30, users=8, seed=3)
    drops = sample_drops(params)
    heights = np.concatenate([d.positions[:, 2] for d in drops])
    assert set(np.unique(heights)) <= {1.5, 4.5, 7.5, 10.5, 13.5, 16.5, 19.5, 22.5}
    assert heights.max() > params.bs_height_m  # some UEs above the 10 m site


def test_upper_floors_are_rarer(rng):
    samples = np.array([floor_height(rng) for _ in range(40_000)])
    # floor 1 is reachable for every building height, floor 8 only when
    # the building has 8 floors, so 1.5 m dominates 22.5 m strongly
    assert np.mean(samples == 1.5) > 5 * np.mean(samples == 22.5)


def test_radial_density_matches_truncated_uniform_law(rng):
    # radius uniform on [0, edge], thinned by the in-hexagon arc fraction
    params = uma(users=1)
    edge = params.hex_edge_m
    center = params.centroid
    local_rng = np.random.default_rng(2024)
    radii = []
    for _ in range(100_000):
        while True:
            r = local_rng.uniform(0, edge)
            a = local_rng.uniform(0, 2 * np.pi)
            xy = center + r * np.array([np.cos(a), np.sin(a)])
            if point_in_hexagon(xy, center, edge):
                radii.append(r)
                break
    radii = np.sort(radii)

    apothem = edge * np.sqrt(3) / 2
    grid = np.linspace(0, edge, 4001)
    accept = np.where(
        grid <= apothem,
        1.0,
        1.0 - (6.0 / np.pi) * np.arccos(np.clip(apothem / np.maximum(grid, 1e-12), -1, 1)),
    )
    cdf = np.cumsum((accept[1:] + accept[:-1]) / 2 * np.diff(grid))
    cdf = np.concatenate([[0.0], cdf / cdf[-1]])

    empirical = np.arange(1, len(radii) + 1) / len(radii)
    analytic = np.interp(radii, grid, cdf)
    ks = np.max(np.abs(empirical - analytic))
    assert ks < 0.01  # 1.36/sqrt(1e5) ~ 0.0043 at the 5% level


def test_drop_json_round_trip(tmp_path, rng):
    params = uma(drops=3, users=4, seed=9)
    drops = sample_drops(params)
    path = tmp_path / "drops.json"
    save_drops(drops, path)
    loaded = load_drops(path)
    assert [d.index for d in loaded] == [1, 2, 3]
    for a, b in zip(drops, loaded):
        np.testing.assert_allclose(a.positions, b.positions)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "ue_drops"
    assert {row["p"] for row in doc["drops"]} == {1, 2, 3}
