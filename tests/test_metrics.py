import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apertile.channel import LinkBudget, aggregate_channel
from apertile.metrics import PortPowerReport, distribution, eta_statistics, port_powers
from apertile.optimizer import evaluate_tiling
from apertile.precoding import PrecodingMatrix, normalize_beams, zero_forcing
from apertile.tiling import AggregationVector, Aperture, baseline_tiling


def flat_budget(tx_w=4.0, noise_w=1.0, threshold_w=1e-15):
    return LinkBudget(tx_power_w=tx_w, noise_power_w=noise_w, coverage_threshold_w=threshold_w)


def random_evaluation(rng):
    """A tiling, random 2-drop channels for it, and evaluate(floor_w), which
    scores that tiling on them under the given coverage floor."""
    cover = baseline_tiling(Aperture(4, 6))  # Q = 4, 8 RX ports
    G = rng.normal(size=(2, 8, 48)) + 1j * rng.normal(size=(2, 8, 48))

    def evaluate(floor_w):
        return evaluate_tiling(cover, G, flat_budget(threshold_w=floor_w), beams=4)

    return cover, G, evaluate


# --- port powers -----------------------------------------------------------

def test_identity_product_gives_unit_desired_no_interference():
    # H V = I with per-beam power 1 (tx = beams)
    budget = flat_budget(tx_w=2.0, noise_w=1.0)
    V = PrecodingMatrix(np.eye(4, dtype=complex))
    h_row = np.eye(4)[1]
    report = port_powers(h_row, V, budget, port=1, beams=2)
    assert report.desired_w == pytest.approx(1.0)
    assert report.interference_w == pytest.approx(0.0, abs=1e-15)
    assert report.noise_w == 1.0


def test_two_beams_with_cross_gain():
    budget = flat_budget(tx_w=6.0, noise_w=0.5)
    g = 0.3 - 0.4j
    product_row = np.array([1.0, g])  # port 0 sees its beam at 1 and the other at g
    V = PrecodingMatrix(np.eye(2, dtype=complex))
    report = port_powers(product_row, V, budget, port=0, beams=1)
    assert report.desired_w == pytest.approx(6.0)
    assert report.interference_w == pytest.approx(6.0 * abs(g) ** 2)


def test_port_powers_random_matches_direct_sum(rng):
    budget = flat_budget(tx_w=3.0, noise_w=0.1)
    H = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    V = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    a = 2
    report = port_powers(H[a], V, budget, port=a, beams=2)
    gains = H[a] @ V
    scale = 3.0 / 2
    assert report.desired_w == pytest.approx(scale * abs(gains[a]) ** 2, rel=1e-12)
    expected_mui = scale * sum(abs(gains[o]) ** 2 for o in range(4) if o != a)
    assert report.interference_w == pytest.approx(expected_mui, rel=1e-12)


def test_port_powers_rejects_bad_port():
    with pytest.raises(ValueError, match="port"):
        port_powers(np.ones(2), PrecodingMatrix(np.eye(2, dtype=complex)), flat_budget(), 5)


# --- sinr / capacity ----------------------------------------------------------

def test_sinr_examples():
    assert PortPowerReport(1.0, 0.0, 1.0).sinr == pytest.approx(1.0)
    assert PortPowerReport(1.0, 1e12, 1.0).sinr == pytest.approx(0.0, abs=1e-12)


def test_sinr_random_ratio(rng):
    for _ in range(20):
        d, i, n = rng.uniform(0.01, 10.0, size=3)
        assert PortPowerReport(d, i, n).sinr == pytest.approx(d / (i + n), rel=1e-15)


# --- coverage ------------------------------------------------------------------

def test_coverage_boundary_is_inclusive(rng):
    # the floor is decided in evaluate_tiling: covered iff the minimum
    # desired power over all ports and drops is >= the floor
    _, _, evaluate = random_evaluation(rng)
    floor = evaluate(1e-300).min_desired_power_w
    assert evaluate(floor).covered
    assert not evaluate(np.nextafter(floor, np.inf)).covered


def test_capacity_monotone_in_tx_power(rng):
    # desired and interference both scale with the TX power, the noise does
    # not, so raising the power never lowers any port capacity
    H = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    V = PrecodingMatrix(rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4)))
    powers = [0.5, 1.0, 2.0, 8.0, 64.0]
    for port in range(4):
        caps = [
            port_powers(H[port], V, flat_budget(tx_w=p), port, beams=2).capacity_bps_hz
            for p in powers
        ]
        assert all(b >= a for a, b in zip(caps, caps[1:]))


def test_coverage_random_min_oracle(rng):
    cover, G, evaluate = random_evaluation(rng)
    desired = [
        port_powers(H[a], normalize_beams(zero_forcing(H), cover), flat_budget(), a, 4).desired_w
        for H in aggregate_channel(G, cover)
        for a in range(8)
    ]
    floor = min(desired)
    assert evaluate(1e-300).min_desired_power_w == pytest.approx(floor, rel=1e-9)
    for threshold in floor * rng.uniform(0.5, 2.0, size=20):
        assert evaluate(threshold).covered == (floor >= threshold)


# --- distributions ----------------------------------------------------------------

def test_distribution_single_bin_mass():
    dist = distribution(np.full(50, 3.25))
    assert dist.pdf.tolist() == [1.0]
    assert dist.cdf.tolist() == [1.0]
    assert dist.bin_edges.tolist() == [3.25, 3.25]


def test_distribution_counts_match_direct_histogram(rng):
    values = rng.uniform(0, 50, size=400)
    dist = distribution(values, bins=20)
    assert len(dist.pdf) == 20
    assert dist.pdf.sum() == pytest.approx(1.0, abs=1e-12)
    assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)
    # direct counting oracle
    edges = np.linspace(values.min(), values.max(), 21)
    for b in range(20):
        lower, upper = edges[b], edges[b + 1]
        if b < 19:
            count = np.sum((values >= lower) & (values < upper))
        else:
            count = np.sum((values >= lower) & (values <= upper))
        assert dist.pdf[b] == pytest.approx(count / 400)


@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=300))
def test_distribution_properties(values):
    dist = distribution(values)
    assert dist.pdf.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(dist.cdf) >= -1e-15)
    assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)


def test_distribution_rejects_empty():
    with pytest.raises(ValueError):
        distribution([])


# --- eta statistics -----------------------------------------------------------------

def test_eta_constant_vector_has_zero_variance():
    stats = eta_statistics([-70.0, -70.0, -70.0])
    assert stats["min"] == stats["max"] == stats["avg"] == -70.0
    assert stats["var_db2"] == 0.0


def test_eta_two_value_hand_stats():
    assert eta_statistics([-80.0, -60.0]) == {
        "min": -80.0,
        "max": -60.0,
        "avg": -70.0,
        "var_db2": pytest.approx(100.0),
    }


def test_eta_random_oracle(rng):
    eta = rng.uniform(-100, -50, size=32)
    stats = eta_statistics(eta)
    assert stats["min"] == pytest.approx(eta.min())
    assert stats["max"] == pytest.approx(eta.max())
    assert stats["avg"] == pytest.approx(eta.mean())
    assert stats["var_db2"] == pytest.approx(np.mean((eta - eta.mean()) ** 2))


def test_zero_forcing_interference_negligible_on_well_conditioned_drops(rng):
    # with equal port counts and a well-conditioned channel, the residual
    # interference after normalization is numerically zero relative to the
    # desired power (the ratio degrades only near rank deficiency)
    for users in (4, 8, 16):
        cover = AggregationVector(values=np.arange(1, users + 1), tile_count=users)
        for _ in range(10):
            H = rng.normal(size=(2 * users, 2 * users)) + 1j * rng.normal(
                size=(2 * users, 2 * users)
            )
            V = normalize_beams(zero_forcing(H, condition_cap=1e6), cover)
            budget = flat_budget(tx_w=float(users), noise_w=1e-9)
            for port in range(2 * users):
                report = port_powers(H[port], V, budget, port, beams=users)
                assert report.interference_w / report.desired_w < 1e-15
