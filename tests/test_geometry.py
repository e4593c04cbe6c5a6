import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apertile.geometry import (
    ArrayGeometry,
    BeamWeights,
    ElementPattern,
    element_field,
    expand_weights,
    expand_weights_dual,
    far_field,
    port_offset,
)
from apertile.tiling import AggregationVector, Aperture, baseline_tiling
from apertile.units import SPEED_OF_LIGHT_M_S

from oracles import element_position, naive_far_field


def reference_geometry(columns=8, rows=12, f_hz=3.5e9, h=25.0, dy_wl=0.5, dz_wl=0.7):
    lam = SPEED_OF_LIGHT_M_S / f_hz
    return ArrayGeometry(
        columns=columns,
        rows=rows,
        spacing_y_m=dy_wl * lam,
        spacing_z_m=dz_wl * lam,
        bs_height_m=h,
        frequency_hz=f_hz,
    )


# --- element positions -------------------------------------------------------

def test_first_column_sits_at_y_zero():
    grid = reference_geometry().element_positions()
    for n in range(1, 13):
        assert grid[(n - 1) * 8][1] == 0.0


def test_center_row_sits_at_bs_height():
    grid = reference_geometry(rows=11).element_positions()
    assert grid[3 + 5 * 8 - 1][2] == pytest.approx(25.0)


def test_all_positions_match_scalar_recomputation():
    geom = reference_geometry()
    lam = geom.wavelength_m
    grid = geom.element_positions()
    for n in range(1, 13):
        for m in range(1, 9):
            i = m + (n - 1) * 8
            expected = (0.0, (m - 1) * 0.5 * lam, 25.0 + (n - 6.5) * 0.7 * lam)
            assert element_position(geom, m, n) == pytest.approx(expected)
            assert grid[i - 1] == pytest.approx(expected)


def test_wavelength():
    geom = reference_geometry()
    assert geom.wavelength_m == pytest.approx(SPEED_OF_LIGHT_M_S / 3.5e9)


# --- element pattern ----------------------------------------------------------

def test_boresight_gain():
    pattern = ElementPattern()
    assert pattern.power_gain_db(np.pi / 2, 0.0) == pytest.approx(8.0)
    field = element_field(pattern, np.pi / 2, 0.0, "V")
    assert np.sum(np.abs(field) ** 2) == pytest.approx(10 ** 0.8)


def test_boresight_power_independent_of_slant_sign():
    pattern = ElementPattern()
    pv = np.sum(np.abs(element_field(pattern, np.pi / 2, 0.0, "V")) ** 2)
    ph = np.sum(np.abs(element_field(pattern, np.pi / 2, 0.0, "H")) ** 2)
    assert pv == pytest.approx(ph)


def test_gain_drops_3db_at_half_beamwidth():
    pattern = ElementPattern()
    half_az = np.radians(65.0 / 2)
    assert pattern.power_gain_db(np.pi / 2, half_az) == pytest.approx(5.0, abs=0.01)
    assert pattern.power_gain_db(np.pi / 2, -half_az) == pytest.approx(5.0, abs=0.01)
    half_el = np.radians(65.0 / 2)
    assert pattern.power_gain_db(np.pi / 2 + half_el, 0.0) == pytest.approx(5.0, abs=0.01)


def test_back_lobe_is_front_to_back_down():
    pattern = ElementPattern()
    assert pattern.power_gain_db(np.pi / 2, np.pi) == pytest.approx(8.0 - 30.0)


@given(st.floats(0.0, np.pi), st.floats(-np.pi, np.pi))
def test_pattern_finite_everywhere(theta, phi):
    pattern = ElementPattern()
    value = pattern.power_gain_db(theta, phi)
    assert np.isfinite(value)
    assert 8.0 - 30.0 <= value <= 8.0 + 1e-12


def test_pattern_rejects_bad_beamwidth():
    with pytest.raises(ValueError):
        ElementPattern(azimuth_beamwidth_deg=0.0)


def test_port_offset():
    assert port_offset("V") == 1
    assert port_offset("H") == 2
    with pytest.raises(ValueError):
        port_offset("X")


# --- weight expansion -----------------------------------------------------------

def test_expand_all_ones():
    cover = baseline_tiling(Aperture(8, 12))
    w = expand_weights(cover, np.ones(16))
    assert w.shape == (96,)
    assert np.all(w == 1.0)


def test_expand_single_tile_constant():
    cover = AggregationVector(values=np.ones(6, dtype=int), tile_count=1)
    w = expand_weights(cover, np.array([3.5 + 1j]))
    assert np.all(w == 3.5 + 1j)


def test_expand_matches_membership_lookup(rng):
    cover = baseline_tiling(Aperture(4, 12))
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = expand_weights(cover, v)
    for i, q in enumerate(cover.values):
        assert w[i] == v[q - 1]
    # vertical clustering gives block-constant columns
    grid = w.reshape(12, 4)
    assert np.all(grid[:6] == grid[0])
    assert np.all(grid[6:] == grid[6])


def test_expand_with_identity_tiling_is_identity(rng):
    # one-element tiles make expansion the identity map, so re-expanding an
    # already-expanded vector changes nothing
    cover = AggregationVector(values=np.arange(1, 9), tile_count=8)
    w = rng.normal(size=8) + 1j * rng.normal(size=8)
    np.testing.assert_array_equal(expand_weights(cover, w), w)
    np.testing.assert_array_equal(
        expand_weights(cover, expand_weights(cover, w)), w
    )


def test_expand_is_linear(rng):
    cover = baseline_tiling(Aperture(4, 6))
    v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
    v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
    np.testing.assert_allclose(
        expand_weights(cover, 2.0 * v1 - 3j * v2),
        2.0 * expand_weights(cover, v1) - 3j * expand_weights(cover, v2),
        rtol=1e-15,
    )


def test_expand_rejects_wrong_tile_count():
    cover = baseline_tiling(Aperture(4, 6))
    with pytest.raises(ValueError, match="4 tiles"):
        expand_weights(cover, np.ones(5))


def test_expand_dual_stacks_polarizations(rng):
    cover = baseline_tiling(Aperture(4, 6))
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    w = expand_weights_dual(cover, v)
    assert w.shape == (48,)
    np.testing.assert_array_equal(w[:24], expand_weights(cover, v[:4]))
    np.testing.assert_array_equal(w[24:], expand_weights(cover, v[4:]))
    with pytest.raises(ValueError, match="expected 8"):
        expand_weights_dual(cover, np.ones(7))


def test_beam_weights_validation(rng):
    cover = baseline_tiling(Aperture(4, 6))
    coeffs = rng.normal(size=(2, 2, 4))
    weights = BeamWeights(cover, coeffs)
    assert weights.beam_count == 2
    assert weights.element_weights().shape == (2, 2, 24)
    with pytest.raises(ValueError, match=r"\(B, 2, Q"):
        BeamWeights(cover, rng.normal(size=(2, 2, 5)))


# --- far field --------------------------------------------------------------------

def uniform_weights(cover):
    return BeamWeights(cover, np.ones((1, 2, cover.tile_count), dtype=complex))


def test_uniform_broadside_sums_coherently():
    geom = reference_geometry()
    pattern = ElementPattern()
    cover = baseline_tiling(Aperture(8, 12))
    field = far_field(geom, pattern, uniform_weights(cover), np.pi / 2, 0.0, 1, "V")
    single = element_field(pattern, np.pi / 2, 0.0, "V")
    np.testing.assert_allclose(field, 96 * single, rtol=1e-12)


def test_single_active_element_reduces_to_element_phase():
    geom = reference_geometry(columns=2, rows=6)
    pattern = ElementPattern()
    values = np.ones(12, dtype=int)
    values[5] = 2  # element (m=2, n=3) alone in tile 2
    cover = AggregationVector(values=values, tile_count=2)
    coeffs = np.zeros((1, 2, 2), dtype=complex)
    coeffs[0, :, 1] = 1.0
    theta, phi = 1.1, -0.4
    field = far_field(geom, pattern, BeamWeights(cover, coeffs), theta, phi, 1, "H")
    pos = element_position(geom, 2, 3)
    k = 2 * np.pi / geom.wavelength_m
    phase = np.exp(1j * k * (pos[1] * np.sin(theta) * np.sin(phi) + pos[2] * np.cos(theta)))
    np.testing.assert_allclose(field, element_field(pattern, theta, phi, "H") * phase, rtol=1e-12)


def test_far_field_matches_naive_double_loop(rng):
    geom = reference_geometry(columns=3, rows=6, h=10.0)
    pattern = ElementPattern()
    cover = baseline_tiling(Aperture(3, 6))
    coeffs = rng.normal(size=(2, 2, 3)) + 1j * rng.normal(size=(2, 2, 3))
    weights = BeamWeights(cover, coeffs)
    for _ in range(5):
        theta = rng.uniform(0.2, np.pi - 0.2)
        phi = rng.uniform(-np.pi, np.pi)
        beam = int(rng.integers(1, 3))
        pol = ("V", "H")[int(rng.integers(0, 2))]
        got = far_field(geom, pattern, weights, theta, phi, beam, pol)
        w_elements = weights.element_weights()[beam - 1, ("V", "H").index(pol)]
        expected = naive_far_field(geom, pattern, w_elements, theta, phi, pol)
        np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_far_field_linear_in_weights(rng):
    geom = reference_geometry(columns=2, rows=6)
    pattern = ElementPattern()
    cover = baseline_tiling(Aperture(2, 6))
    c1 = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    c2 = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    theta, phi = 1.3, 0.7
    f1 = far_field(geom, pattern, BeamWeights(cover, c1), theta, phi, 1, "V")
    f2 = far_field(geom, pattern, BeamWeights(cover, c2), theta, phi, 1, "V")
    f12 = far_field(geom, pattern, BeamWeights(cover, c1 + c2), theta, phi, 1, "V")
    np.testing.assert_allclose(f12, f1 + f2, rtol=1e-12)


def test_half_wavelength_neighbors_differ_by_pi():
    geom = reference_geometry(columns=2, rows=1, dy_wl=0.5, dz_wl=0.7, h=0.0)
    k = 2 * np.pi / geom.wavelength_m
    theta, phi = np.pi / 2, np.pi / 2
    phases = [
        k * (element_position(geom, m, 1)[1] * np.sin(theta) * np.sin(phi)) for m in (1, 2)
    ]
    assert phases[1] - phases[0] == pytest.approx(np.pi)


def test_far_field_rejects_bad_beam():
    geom = reference_geometry(columns=2, rows=6)
    cover = baseline_tiling(Aperture(2, 6))
    with pytest.raises(ValueError, match="beam"):
        far_field(geom, ElementPattern(), uniform_weights(cover), 1.0, 0.0, 2, "V")
