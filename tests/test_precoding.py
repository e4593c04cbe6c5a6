import numpy as np
import pytest

from apertile.precoding import (
    ChannelRankError,
    PrecodingMatrix,
    normalize_beams,
    save_precoders,
    zero_forcing,
)
from apertile.tiling import AggregationVector, Aperture, baseline_tiling

from oracles import element_weight_norms, same_npz_members, savez_precoders


def random_full_rank(rng, ports, dof):
    return rng.normal(size=(ports, dof)) + 1j * rng.normal(size=(ports, dof))


def one_element_cover(count):
    return AggregationVector(values=np.arange(1, count + 1), tile_count=count)


# --- zero forcing ------------------------------------------------------------

def test_identity_channel_gives_identity_precoder():
    V = zero_forcing(np.eye(4))
    np.testing.assert_allclose(V.coefficients, np.eye(4), atol=1e-14)


def test_scalar_channel_inverts_the_scalar():
    V = zero_forcing(2.5 * np.eye(3))
    np.testing.assert_allclose(V.coefficients, np.eye(3) / 2.5, atol=1e-14)


def test_random_channels_invert_to_tolerance(rng):
    for _ in range(25):
        H = random_full_rank(rng, 8, 8)
        V = zero_forcing(H).coefficients
        residual = np.max(np.abs(H @ V - np.eye(8)))
        assert residual < 1e-10
        # independent check: the Gram-system solution from the pseudoinverse
        np.testing.assert_allclose(V, np.linalg.pinv(H), rtol=1e-8, atol=1e-12)


def test_wide_channel_gives_minimum_norm_right_inverse(rng):
    H = random_full_rank(rng, 4, 10)
    V = zero_forcing(H).coefficients
    np.testing.assert_allclose(H @ V, np.eye(4), atol=1e-12)
    # any other right inverse has column norms at least as large
    null_proj = np.eye(10) - np.linalg.pinv(H) @ H
    for _ in range(10):
        W = V + null_proj @ random_full_rank(rng, 10, 4)
        np.testing.assert_allclose(H @ W, np.eye(4), atol=1e-10)
        assert np.all(
            np.linalg.norm(V, axis=0) <= np.linalg.norm(W, axis=0) + 1e-12
        )


def test_real_channel_matches_moore_penrose(rng):
    H = rng.normal(size=(5, 9))
    V = zero_forcing(H).coefficients
    np.testing.assert_allclose(V.imag, 0.0, atol=1e-12)
    np.testing.assert_allclose(V.real, np.linalg.pinv(H), rtol=1e-9, atol=1e-12)


def test_rank_deficient_raises(rng):
    H = random_full_rank(rng, 3, 6)
    H[2] = H[0] + H[1]
    with pytest.raises(ChannelRankError, match="rank deficient|condition"):
        zero_forcing(H)


def test_condition_cap_raises(rng):
    H = np.diag([1.0, 1e-7]).astype(complex)
    with pytest.raises(ChannelRankError, match="condition number"):
        zero_forcing(H, condition_cap=1e3)
    zero_forcing(H, condition_cap=1e8)  # generous cap accepts it


def test_more_ports_than_dof_raises(rng):
    with pytest.raises(ChannelRankError, match="exceed"):
        zero_forcing(random_full_rank(rng, 5, 4))


# --- normalization ------------------------------------------------------------

def test_unit_columns_unchanged():
    cover = one_element_cover(3)
    coeffs = np.eye(6, 4, dtype=complex)
    out = normalize_beams(PrecodingMatrix(coeffs), cover)
    np.testing.assert_allclose(out.coefficients, coeffs)
    np.testing.assert_allclose(out.scale, np.ones(4))


def test_scaled_column_gets_inverse_scalar():
    cover = one_element_cover(2)
    coeffs = np.eye(4, dtype=complex)
    coeffs[:, 1] *= 3.0
    out = normalize_beams(PrecodingMatrix(coeffs), cover)
    np.testing.assert_allclose(out.scale, [1.0, 1 / 3.0, 1.0, 1.0])
    np.testing.assert_allclose(np.linalg.norm(out.coefficients, axis=0), 1.0)


def test_normalized_expansion_has_unit_norm(rng):
    cover = baseline_tiling(Aperture(4, 12))
    coeffs = rng.normal(size=(16, 5)) + 1j * rng.normal(size=(16, 5))
    out = normalize_beams(PrecodingMatrix(coeffs), cover)
    norms = element_weight_norms(out, cover)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # scale recovers the raw precoder
    np.testing.assert_allclose(out.coefficients / out.scale, coeffs, rtol=1e-12)


def test_zero_column_rejected():
    cover = one_element_cover(2)
    coeffs = np.eye(4, dtype=complex)
    coeffs[:, 2] = 0.0
    with pytest.raises(ValueError, match="all-zero"):
        normalize_beams(PrecodingMatrix(coeffs), cover)


def test_row_count_must_match_tiling(rng):
    cover = baseline_tiling(Aperture(4, 6))  # Q = 4
    with pytest.raises(ValueError, match="coefficient rows"):
        normalize_beams(PrecodingMatrix(np.ones((6, 2), dtype=complex)), cover)


def test_nulls_survive_normalization(rng):
    cover = baseline_tiling(Aperture(4, 12))  # Q = 8
    for _ in range(10):
        H = random_full_rank(rng, 16, 16)
        out = normalize_beams(zero_forcing(H), cover)
        product = H @ out.coefficients
        diag = np.abs(np.diag(product))
        off = np.abs(product - np.diag(np.diag(product)))
        assert np.max(off) / np.min(diag) < 1e-9


def test_precoder_export_round_trip(rng, tmp_path):
    cover = baseline_tiling(Aperture(4, 6))
    precoders = [
        normalize_beams(zero_forcing(random_full_rank(rng, 8, 8)), cover)
        for _ in range(3)
    ]
    path = tmp_path / "precoders.npz"
    save_precoders(precoders, path, {"seed": 7})
    with np.load(path, allow_pickle=False) as data:
        assert str(data["meta_seed"]) == "7"
        np.testing.assert_array_equal(data["coefficients"], [p.coefficients for p in precoders])
        np.testing.assert_array_equal(data["scales"], [p.scale for p in precoders])
    assert [f.name for f in tmp_path.iterdir()] == ["precoders.npz"]


def test_precoders_are_written_as_np_savez_writes_them(rng, tmp_path):
    # save_precoders streams one drop at a time; its members match the
    # np.savez file of the stacked arrays, with scales and without
    cover = baseline_tiling(Aperture(4, 6))
    raw = [zero_forcing(random_full_rank(rng, 8, 8)) for _ in range(3)]
    for tag, precoders in (("scaled", [normalize_beams(v, cover) for v in raw]), ("raw", raw)):
        meta = {"config_hash": "abc", "seed": 7}
        save_precoders(precoders, tmp_path / f"{tag}.npz", meta)
        savez_precoders(precoders, tmp_path / f"{tag}-savez.npz", meta)
        assert same_npz_members(tmp_path / f"{tag}.npz", tmp_path / f"{tag}-savez.npz"), tag
    with np.load(tmp_path / "raw.npz") as data:
        assert "scales" not in data.files
    # like np.savez, it adds the .npz suffix that a path lacks
    save_precoders(raw, tmp_path / "suffixless", meta)
    assert same_npz_members(tmp_path / "suffixless.npz", tmp_path / "raw-savez.npz")
