"""The batched zero-forcing kernel: certified cap decisions, bit-identical
records, batched precoders, and the allocation pattern of an evaluation."""

import resource
import sys

import numpy as np
import pytest

import apertile.precoding as precoding
from apertile.channel import LinkBudget, aggregate_channel, assemble_channel
from apertile.config import ApertureConfig, RunConfig
from apertile.optimizer import _cover_from_rows, _evaluate, evaluate_tiling, tiling_precoders
from apertile.precoding import ChannelRankError, _zero_force, normalize_beams, zero_forcing
from apertile.scenario import ScenarioParams, sample_drops
from apertile.tiling import _CoverSearch, build_incidence_matrix, generate_placements

from oracles import (
    column_major_stack,
    eigvalsh_cap_decision,
    eigvalsh_first_capacities,
    normal_equations_record,
    normal_equations_zero_force,
)

CAPS = (1e2, 1e4, 1e8, 1e10)
CONDS = (1.0, 3.0, 1e1, 1e2, 5e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12)


def unitary(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols)))
    return q


def channels_with_conditions(rng, ports, dof, conds):
    """(P, A, 2Q) channels whose singular values span exactly cond(H)."""
    out = []
    for cond in conds:
        sv = np.geomspace(1.0, 1.0 / cond, ports) * 10.0 ** rng.uniform(-7, -4)
        H = unitary(rng, ports, ports) @ np.diag(sv) @ unitary(rng, dof, ports).conj().T
        out.append(H)
    return np.stack(out)


def weights(rng, dof):
    tiles = rng.integers(1, 7, size=dof // 2)
    return np.concatenate([tiles, tiles]).astype(float)


def counting_cap_decision(monkeypatch):
    """Record how many drops each call hands to eigvalsh."""
    seen = []
    real = precoding._cap_decision

    def counting(gram, cap):
        seen.append(len(gram))
        return real(gram, cap)

    monkeypatch.setattr(precoding, "_cap_decision", counting)
    return seen


@pytest.mark.parametrize("ports,dof", [(8, 8), (6, 10)])
@pytest.mark.parametrize("cap", CAPS)
def test_certified_decision_equals_eigvalsh_decision(rng, monkeypatch, ports, dof, cap):
    seen = counting_cap_decision(monkeypatch)
    H = channels_with_conditions(rng, ports, dof, CONDS * 3)
    w = weights(rng, dof)
    ok, V, _, _ = _zero_force(H, w, cap)
    reference = eigvalsh_cap_decision(H, cap)
    np.testing.assert_array_equal(ok, reference)
    # eigvalsh sees only what the certificate leaves open: a drop passes it
    # when 2 ||H||_F ||V||_F <= tau, and ||H||_F ||V||_F lies in [cond, A cond]
    tau = min(cap / 100, 1e6)
    certified = len(H) - sum(seen)
    assert 3 * sum(c <= tau / (2 * ports) for c in CONDS) <= certified
    assert certified <= 3 * sum(c <= tau / 2 for c in CONDS)
    # zero_forcing is this kernel on one drop: it raises exactly where the
    # eigenvalues reject the drop, and otherwise returns the same raw beams
    if V is None:  # solve met an exactly singular Gram matrix
        V = np.empty((len(H), dof, ports), dtype=complex)
        V[reference] = _zero_force(H[reference], w, cap)[1]
    for p in range(len(H)):
        if reference[p]:
            assert zero_forcing(H[p], cap).coefficients.tobytes() == V[p].tobytes()
        else:
            with pytest.raises(ChannelRankError):
                zero_forcing(H[p], cap)


@pytest.mark.parametrize("cap", CAPS)
def test_exactly_singular_drops_fall_back_to_eigvalsh(rng, cap):
    H = channels_with_conditions(rng, 8, 8, (1.0, 10.0, 100.0, 1e3))
    zero_row = H.copy()
    zero_row[2, 5] = 0.0
    repeated = H.copy()
    repeated[1, 7] = repeated[1, 6]
    for singular in (zero_row, repeated):
        ok = _zero_force(singular, weights(rng, 8), cap)[0]
        np.testing.assert_array_equal(ok, eigvalsh_cap_decision(singular, cap))
        assert not ok.all()


def same_bytes(got, want):
    if want is None:
        return got is None
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ports,dof", [(8, 8), (6, 10)])
@pytest.mark.parametrize("cap", CAPS)
def test_the_kernel_keeps_every_bit_of_the_normal_equations_reference(rng, ports, dof, cap):
    # the whole batch, the drops that pass the cap, each drop alone, and
    # the exactly singular batches of the eigvalsh fallback
    H = channels_with_conditions(rng, ports, dof, CONDS * 3)
    w = weights(rng, dof)
    passing = eigvalsh_cap_decision(H, cap)
    zero_row = H.copy()
    zero_row[2, 5] = 0.0
    repeated = H.copy()
    repeated[1, ports - 1] = repeated[1, ports - 2]
    batches = [H, H[passing], zero_row, repeated] + [H[p : p + 1] for p in range(len(H))]
    budget = LinkBudget.from_dbm(43.0, -92.0, -120.0)
    for batch in batches:
        got, want = _zero_force(batch, w, cap), normal_equations_zero_force(batch, w, cap)
        assert all(same_bytes(g, r) for g, r in zip(got, want))
        record = _evaluate([batch], len(batch), w, budget, None, cap, 0, None)
        per_drop, average, eta, min_power, covered, feasible, per_ue = normal_equations_record(
            batch, w, budget, None, cap
        )
        assert same_bytes(record.per_drop_sum_rates, per_drop)
        assert same_bytes(record.average_sum_rate, average)
        assert same_bytes(record.eta_desired_w, eta)
        assert same_bytes(record.min_desired_power_w, min_power)
        assert (record.covered, record.feasible) == (covered, feasible)
        assert same_bytes(record.per_ue_capacities, per_ue)
    # a zero row makes the Gram matrix exactly singular
    assert _zero_force(zero_row, w, cap)[1] is None


@pytest.mark.parametrize("block", [1, 2, 5])
def test_any_split_of_the_drops_gives_the_record_of_one_block(rng, block):
    # seven drops under the cap, scored in consecutive blocks of `block`
    H = channels_with_conditions(rng, 8, 10, CONDS[:7])
    w = weights(rng, 10)
    budget = LinkBudget.from_dbm(43.0, -92.0, -120.0)
    whole = _evaluate([H], len(H), w, budget, None, 1e8, 3, "key")
    written = []
    blocks = [H[start : start + block] for start in range(0, len(H), block)]
    split = _evaluate(blocks, len(H), w, budget, None, 1e8, 3, "key", written.extend)
    assert split.feasible and (split.tiling_index, split.drops_fingerprint) == (3, "key")
    for name in (
        "per_drop_sum_rates", "average_sum_rate", "eta_desired_w",
        "min_desired_power_w", "covered", "per_ue_capacities",
    ):
        assert same_bytes(getattr(split, name), getattr(whole, name)), name
    _, V, norms, _ = _zero_force(H, w, 1e8)
    assert same_bytes([p.coefficients for p in written], V / norms[:, None, :])
    assert same_bytes([p.scale for p in written], 1.0 / norms)


def test_the_first_block_over_the_cap_ends_the_loop(rng):
    # drop 2 of 5 is over the cap: the second of three blocks of two drops
    H = channels_with_conditions(rng, 8, 10, (1.0, 10.0, 1e10, 3.0, 1e2))
    w = weights(rng, 10)
    budget = LinkBudget.from_dbm(43.0, -92.0, -120.0)
    formed, written = [], []

    def blocks():
        for start in range(0, len(H), 2):
            formed.append(start)
            yield H[start : start + 2]

    record = _evaluate(blocks(), len(H), w, budget, None, 1e8, 7, None, written.extend)
    # the first block's precoders are written, and the last block is never formed
    assert formed == [0, 2] and len(written) == 2
    per_drop, average, eta, min_power, covered, feasible, per_ue = normal_equations_record(
        H, w, budget, None, 1e8
    )
    assert not feasible and per_ue is None
    assert same_bytes(record.per_drop_sum_rates, per_drop)
    assert same_bytes(record.average_sum_rate, average)
    assert same_bytes(record.eta_desired_w, eta)
    assert same_bytes(record.min_desired_power_w, min_power)
    assert (record.covered, record.feasible, record.per_ue_capacities) == (False, False, None)


def test_certificate_checks_the_solve_it_is_given(rng, monkeypatch):
    # a solve that returns a small wrong answer must not certify a drop whose
    # condition number is over the cap: the residual ||HV - I|| catches it
    H = channels_with_conditions(rng, 8, 8, (1e3, 1e12))
    H *= 1e-3 / np.linalg.norm(H, axis=(1, 2))[:, None, None]
    # a copy, as a real solve returns: _zero_force may reuse the buffer
    monkeypatch.setattr(np.linalg, "solve", lambda gram, H: H.copy())
    ok = _zero_force(H, weights(rng, 8), 1e8)[0]
    np.testing.assert_array_equal(ok, eigvalsh_cap_decision(H, 1e8))


# --- a 200-drop sample of the 8x12 P study ---------------------------------------

@pytest.fixture(scope="module")
def study200():
    cfg = RunConfig(
        aperture=ApertureConfig(8, 12),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=200, users=16, seed=1
        ),
    )
    geometry = cfg.geometry()
    drops = sample_drops(cfg.scenario)
    G = np.stack(
        [assemble_channel(geometry, cfg.pattern, d, cfg.channel).matrix for d in drops]
    )
    aperture = cfg.aperture_grid()
    L = build_incidence_matrix(generate_placements(aperture, cfg.shapes()), aperture)
    cells = [np.array(p, dtype=np.intp) - 1 for p in L.rows]
    covers = [
        _cover_from_rows(rows, cells, aperture.size)
        for _, rows in _CoverSearch(L).stream(1, 3000)
    ]
    return cfg, G, column_major_stack(G), covers


def test_study_sample_records_equal_the_eigvalsh_first_evaluation(study200):
    cfg, G, stack, covers = study200
    budget = cfg.link_budget()
    for cover in covers[:12]:
        sizes = np.concatenate([cover.tile_sizes()] * 2).astype(float)
        H = aggregate_channel(stack, cover)
        for cap in (1e4, 1e8):
            np.testing.assert_array_equal(
                _zero_force(H, sizes, cap)[0], eigvalsh_cap_decision(H, cap)
            )
        record = evaluate_tiling(cover, stack, budget, beams=16)
        reference = eigvalsh_first_capacities(H, sizes, 1e8, budget, 16)
        assert record.feasible == (reference is not None)
        if reference is not None:
            capacity, p_des = reference
            assert record.per_drop_sum_rates.tobytes() == capacity.sum(axis=1).tobytes()
            assert record.eta_desired_w.tobytes() == p_des.min(axis=0).tobytes()
        # the row-major stack gives the same record
        same = evaluate_tiling(cover, G, budget, beams=16)
        assert same.per_drop_sum_rates.tobytes() == record.per_drop_sum_rates.tobytes()


def test_low_cap_records_equal_the_eigvalsh_first_evaluation(study200, monkeypatch):
    # at cap 1e3, tau = 10 < 2 sqrt(32) - 1, so no drop can be certified and
    # eigvalsh decides every drop after the solve
    cfg, G, _, covers = study200
    budget = cfg.link_budget()
    cap = 1e3
    seen = counting_cap_decision(monkeypatch)
    outcomes = set()
    for p in range(0, 60, 2):
        pair = column_major_stack(G[p : p + 2])
        for cover in covers[:4]:
            H = aggregate_channel(pair, cover)
            passes = bool(eigvalsh_cap_decision(H, cap).all())
            seen.clear()
            record = evaluate_tiling(cover, pair, budget, beams=16, condition_cap=cap)
            assert record.feasible == passes
            assert seen == [2]
            outcomes.add(passes)
            if passes:
                sizes = np.concatenate([cover.tile_sizes()] * 2).astype(float)
                capacity, p_des = eigvalsh_first_capacities(H, sizes, cap, budget, 16)
                assert record.per_drop_sum_rates.tobytes() == capacity.sum(axis=1).tobytes()
                assert record.eta_desired_w.tobytes() == p_des.min(axis=0).tobytes()
    assert outcomes == {True, False}


def test_batched_precoders_match_per_drop_zero_forcing(study200):
    cfg, G, stack, covers = study200
    cover = covers[1]
    precoders = tiling_precoders(cover, stack, cfg.zf_condition_cap)
    assert len(precoders) == len(G)
    for channel, batched in zip(G, precoders):
        single = normalize_beams(
            zero_forcing(aggregate_channel(channel, cover), cfg.zf_condition_cap), cover
        )
        pairs = ((batched.coefficients, single.coefficients), (batched.scale, single.scale))
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_batched_precoders_refuse_a_drop_over_the_cap(study200):
    _, G, stack, covers = study200
    with pytest.raises(ChannelRankError, match="condition cap"):
        tiling_precoders(covers[0], stack, 1.0)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_minflt counts are Linux-specific")
def test_evaluation_reuses_its_memory(study200):
    # a gather per tile column instead of one per tile size took about 10k
    # minor page faults per evaluation at this size
    cfg, _, stack, covers = study200
    budget = cfg.link_budget()
    for cover in covers[:3]:
        evaluate_tiling(cover, stack, budget, beams=16)
    faults = []
    for cover in (covers * 2)[:20]:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        evaluate_tiling(cover, stack, budget, beams=16)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults) < 100, faults
