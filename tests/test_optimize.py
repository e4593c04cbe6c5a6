import os
import signal
import sys

import numpy as np
import pytest

import apertile
import apertile.optimizer as opt
from apertile.channel import (
    ChannelMatrix,
    ChannelStack,
    LinkBudget,
    aggregate_channel,
    assemble_channel,
)
from apertile.config import ApertureConfig, BudgetConfig, RunConfig
from apertile.metrics import EvaluationRecord, port_powers
from apertile.optimizer import (
    LEDGER_COLUMNS,
    LedgerRow,
    compare_to_baseline,
    evaluate_tiling,
    optimize,
    read_ledger,
    result_to_json,
    summarize_ledger,
    tiling_precoders,
)
from apertile.precoding import normalize_beams, zero_forcing
from apertile.scenario import ScenarioParams, sample_drops
from apertile.tiling import (
    AggregationVector,
    Aperture,
    baseline_tiling,
    build_incidence_matrix,
    count_exact_covers,
    enumerate_exact_covers,
    generate_placements,
)
from apertile.shapes import alphabet, builtin_shape, save_alphabet

from test_acceptance import PINNED_SCENARIOS


def toy_config(**overrides):
    defaults = dict(
        aperture=ApertureConfig(columns=3, rows=2),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=3, seed=5
        ),
        alphabet="domino",
        workers=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def p_config(**overrides):
    # 4x6 P: 8 tilings, 4 users, and a 4-tile baseline layout
    return toy_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=3, users=4, seed=5
        ),
        alphabet="P",
        **overrides,
    )


def expansion_matrix(cover):
    """One-hot (2MN, 2Q) map from stacked coefficients to element weights."""
    values = np.asarray(cover.values)
    mn, q = values.size, cover.tile_count
    S = np.zeros((2 * mn, 2 * q))
    for i, tile in enumerate(values):
        S[i, tile - 1] = 1.0
        S[mn + i, q + tile - 1] = 1.0
    return S


# --- evaluate_tiling ---------------------------------------------------------

def test_identity_effective_channel_closed_form():
    cover = baseline_tiling(Aperture(4, 6))  # Q = 4, six-element tiles
    S = expansion_matrix(cover)
    G = np.linalg.pinv(S)  # (2Q, 2MN) with G @ S = I
    budget = LinkBudget(tx_power_w=20.0, noise_power_w=1e-3, coverage_threshold_w=1e-15)
    record = evaluate_tiling(cover, G[None], budget, beams=4)
    expected = 8 * np.log2(1.0 + (20.0 / (4 * 1e-3)) / 6.0)
    assert record.average_sum_rate == pytest.approx(expected, rel=1e-12)
    assert record.covered and record.feasible


def test_capacity_invariant_under_tile_relabeling(rng):
    cover = baseline_tiling(Aperture(4, 12))
    cfg = toy_config(aperture=ApertureConfig(4, 12), scenario=ScenarioParams(
        kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=8, seed=5
    ))
    geometry = cfg.geometry()
    drops = sample_drops(cfg.scenario)
    G = np.stack(
        [assemble_channel(geometry, cfg.pattern, d, cfg.channel).matrix for d in drops]
    )
    budget = cfg.link_budget()
    base = evaluate_tiling(cover, G, budget, beams=8)
    perm = rng.permutation(cover.tile_count) + 1
    relabeled = AggregationVector(
        values=perm[np.asarray(cover.values) - 1], tile_count=cover.tile_count
    )
    swapped = evaluate_tiling(relabeled, G, budget, beams=8)
    # identical up to the column permutation seen by the factorizations
    assert swapped.average_sum_rate == pytest.approx(base.average_sum_rate, rel=1e-9)


def test_baseline_regression_value_is_stable():
    # frozen on first run of this configuration; guards numerical drift
    cfg = RunConfig(
        aperture=ApertureConfig(8, 12),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=3, users=16, seed=1
        ),
    )
    geometry = cfg.geometry()
    drops = sample_drops(cfg.scenario)
    G = np.stack(
        [assemble_channel(geometry, cfg.pattern, d, cfg.channel).matrix for d in drops]
    )
    record = evaluate_tiling(
        baseline_tiling(cfg.aperture_grid()), G, cfg.link_budget(), beams=16
    )
    assert record.average_sum_rate == pytest.approx(95.6530147031734, rel=1e-9)
    np.testing.assert_allclose(
        record.per_drop_sum_rates,
        [138.053355723, 75.0853128742, 73.8203755119],
        rtol=1e-9,
    )
    assert record.feasible
    assert not record.covered  # this seed's worst port sits below -120 dBm


def test_rank_deficient_drop_marks_record_infeasible(rng):
    cover = baseline_tiling(Aperture(4, 6))
    G = rng.normal(size=(1, 8, 48)) + 1j * rng.normal(size=(1, 8, 48))
    G[0, 7] = G[0, 6]  # duplicated RX port
    budget = LinkBudget(1.0, 1e-6, 1e-18)
    record = evaluate_tiling(cover, G, budget, beams=4)
    assert not record.feasible
    assert not record.covered
    assert np.isnan(record.average_sum_rate)
    assert np.isnan(record.min_desired_power_w)
    assert np.isnan(record.per_drop_sum_rates).all() and record.per_drop_sum_rates.shape == (1,)
    assert np.isnan(record.eta_desired_w).all() and record.eta_desired_w.shape == (8,)
    assert record.per_ue_capacities is None


def test_condition_cap_marks_infeasible(rng):
    cover = baseline_tiling(Aperture(4, 6))
    G = rng.normal(size=(1, 8, 48)) + 1j * rng.normal(size=(1, 8, 48))
    fresh = rng.normal(size=48) + 1j * rng.normal(size=48)
    G[0, 7] = G[0, 6] + 1e-5 * fresh  # nearly dependent RX ports
    budget = LinkBudget(1.0, 1e-6, 1e-18)
    strict = evaluate_tiling(cover, G, budget, beams=4, condition_cap=1e3)
    assert not strict.feasible
    loose = evaluate_tiling(cover, G, budget, beams=4, condition_cap=1e8)
    assert loose.feasible


def test_posterior_precoders_zero_force_each_drop():
    cfg = toy_config()
    geometry = cfg.geometry()
    drops = sample_drops(cfg.scenario)
    channels = [assemble_channel(geometry, cfg.pattern, d, cfg.channel) for d in drops]
    matrix = build_incidence_matrix(
        generate_placements(cfg.aperture_grid(), cfg.shapes()), cfg.aperture_grid()
    )
    cover = next(enumerate_exact_covers(matrix))
    precoders = tiling_precoders(cover, ChannelStack.fill(channels, len(drops)))
    assert len(precoders) == len(drops)
    for channel, precoder in zip(channels, precoders):
        H = aggregate_channel(channel, cover)
        product = H @ precoder.coefficients
        off = product - np.diag(np.diag(product))
        assert np.max(np.abs(off)) / np.min(np.abs(np.diag(product))) < 1e-9


def test_channels_must_be_a_stack_or_a_3d_array(rng):
    cover = baseline_tiling(Aperture(4, 6))
    G = rng.normal(size=(8, 48)) + 1j * rng.normal(size=(8, 48))
    budget = LinkBudget(1.0, 1e-6, 1e-18)
    for channels in (G, ChannelMatrix(G), [ChannelMatrix(G)] * 2):
        with pytest.raises(ValueError, match=r"ChannelStack or a \(P, 2U, 2MN\) array"):
            evaluate_tiling(cover, channels, budget, beams=4)
        with pytest.raises(ValueError, match=r"ChannelStack or a \(P, 2U, 2MN\) array"):
            tiling_precoders(cover, channels)
    assert evaluate_tiling(cover, G[None], budget, beams=4).feasible
    assert len(tiling_precoders(cover, ChannelStack.fill([G], 1))) == 1


# --- optimize ------------------------------------------------------------------

def test_toy_optimize_argmax_matches_hand_evaluation():
    cfg = toy_config()
    result = optimize(cfg)
    assert result.total_tilings == 3
    assert result.evaluated_tilings == 3
    assert result.exhaustive

    # independent pass: public single-matrix operations, drop by drop
    geometry = cfg.geometry()
    budget = cfg.link_budget()
    drops = sample_drops(cfg.scenario)
    channels = [assemble_channel(geometry, cfg.pattern, d, cfg.channel) for d in drops]
    matrix = build_incidence_matrix(
        generate_placements(cfg.aperture_grid(), cfg.shapes()), cfg.aperture_grid()
    )
    by_hand = []
    for cover in enumerate_exact_covers(matrix):
        drop_rates = []
        for channel in channels:
            H = aggregate_channel(channel, cover)
            V = normalize_beams(zero_forcing(H), cover)
            reports = [
                port_powers(H[a], V, budget, a, beams=cfg.scenario.users)
                for a in range(H.shape[0])
            ]
            drop_rates.append(sum(r.capacity_bps_hz for r in reports))
        by_hand.append(float(np.mean(drop_rates)))

    for row, expected in zip(result.ledger, by_hand):
        assert row.capacity_bps_hz == pytest.approx(expected, rel=1e-9)
    assert result.best.tiling_index == int(np.argmax(by_hand)) + 1


def test_ledger_is_exhaustive_and_deterministic(tmp_path):
    cfg = toy_config(aperture=ApertureConfig(4, 3), scenario=ScenarioParams(
        kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=8
    ))
    matrix = build_incidence_matrix(
        generate_placements(cfg.aperture_grid(), cfg.shapes()), cfg.aperture_grid()
    )
    expected_rows = count_exact_covers(matrix)

    first = optimize(cfg, ledger_path=tmp_path / "a.csv")
    second = optimize(cfg, ledger_path=tmp_path / "b.csv")
    assert len(first.ledger) == expected_rows
    assert [r.tiling_index for r in first.ledger] == list(range(1, expected_rows + 1))
    assert first.ledger == second.ledger
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    cfg1 = toy_config(workers=1)
    cfg2 = toy_config(workers=2)
    res1 = optimize(cfg1, ledger_path=tmp_path / "w1.csv")
    res2 = optimize(cfg2, ledger_path=tmp_path / "w2.csv")
    assert res1.ledger == res2.ledger
    assert res1.best.tiling_index == res2.best.tiling_index
    # the config hash leaves the worker count out, so whole files agree
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_pool_workers_take_the_default_sigterm_action(tmp_path, monkeypatch):
    # a Python SIGTERM handler in the caller must not reach the fork workers,
    # which Pool.terminate stops with SIGTERM, and the serial path must leave
    # the caller's handler in place
    log = tmp_path / "handlers.txt"
    real_init = opt._init_worker

    def recording_init(*args):
        default = signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {'default' if default else 'python'}\n")
        real_init(*args)

    def handler(*_):
        sys.exit(143)  # as a harness that reaps its children on SIGTERM does

    monkeypatch.setattr(opt, "_init_worker", recording_init)
    previous = signal.signal(signal.SIGTERM, handler)
    try:
        optimize(toy_config(workers=2), ledger_path=tmp_path / "w2.csv")
        pool_lines = log.read_text().split()
        optimize(toy_config(workers=1), ledger_path=tmp_path / "w1.csv")
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert pool_lines[1::2] == ["default", "default"]
    assert str(os.getpid()) not in pool_lines[0::2]
    assert log.read_text().split()[4:] == [str(os.getpid()), "python"]


def test_channels_assembled_once_per_drop(monkeypatch):
    calls = {"n": 0}
    real = assemble_channel

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(opt, "assemble_channel", counting)
    cfg = toy_config()
    optimize(cfg)
    assert calls["n"] == cfg.scenario.drops


def resume_config(**overrides):
    # 4x3 dominoes: 11 tilings, the best covered one at t = 7
    return toy_config(
        aperture=ApertureConfig(4, 3),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=8
        ),
        **overrides,
    )


def ledger_lines(path):
    """A ledger's lines, and the index of its first row."""
    lines = path.read_text().splitlines(keepends=True)
    return lines, next(i for i, l in enumerate(lines) if l.startswith("t,")) + 1


def write_partial_ledger(full_path, path, keep):
    """Copy the header and the first `keep` rows of a ledger."""
    lines, first = ledger_lines(full_path)
    path.write_text("".join(lines[: first + keep]))


def assert_resume_matches(cfg, tmp_path, keep, resume_cfg=None):
    full_path = tmp_path / "full.csv"
    full = optimize(cfg, ledger_path=full_path)
    partial_path = tmp_path / f"partial{keep}.csv"
    write_partial_ledger(full_path, partial_path, keep)

    resumed = optimize(resume_cfg or cfg, ledger_path=partial_path, resume=True)
    assert resumed.ledger == full.ledger
    assert resumed.total_tilings == full.total_tilings
    assert partial_path.read_bytes() == full_path.read_bytes()
    assert resumed.best.tiling_index == full.best.tiling_index
    assert resumed.best.average_sum_rate == pytest.approx(
        full.best.average_sum_rate, rel=1e-12
    )
    np.testing.assert_array_equal(resumed.best_cover.values, full.best_cover.values)
    assert resumed.best_cover.placements == full.best_cover.placements
    np.testing.assert_array_equal(
        resumed.best_unconstrained_cover.values, full.best_unconstrained_cover.values
    )


def test_resume_reproduces_full_ledger(tmp_path):
    cfg = resume_config()
    # interrupted before the best tiling (found again by evaluation) and
    # after it (its cover is looked up by index)
    for keep in (2, 8):
        assert_resume_matches(cfg, tmp_path, keep)
        # the config hash leaves the worker count out, so another may resume
        assert_resume_matches(cfg, tmp_path, keep, resume_config(workers=2))


def test_resume_of_strided_ledger_continues_by_position(tmp_path):
    cfg = resume_config(tiling_stride=2)  # rows t = 1, 3, ..., 11
    for keep in (2, 4):
        assert_resume_matches(cfg, tmp_path, keep)


def test_resume_refuses_ledger_with_gap(tmp_path):
    for stride in (1, 2):
        cfg = resume_config(tiling_stride=stride)
        path = tmp_path / f"gap{stride}.csv"
        optimize(cfg, ledger_path=path)
        lines, first = ledger_lines(path)
        del lines[first + 1]  # the second row
        path.write_text("".join(lines[: first + 3]))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="cannot resume"):
            optimize(cfg, ledger_path=path, resume=True)
        assert path.read_bytes() == before


@pytest.mark.parametrize(
    "cut", [6, -1, None], ids=["inside-a-float", "after-the-last-comma", "before-the-newline"]
)
def test_resume_drops_an_unterminated_last_line(tmp_path, cut):
    # a run killed mid-write leaves its last row cut short, without a newline
    cfg = resume_config()
    full_path = tmp_path / "full.csv"
    full = optimize(cfg, ledger_path=full_path)
    lines, first = ledger_lines(full_path)
    path = tmp_path / "torn.csv"
    path.write_text("".join(lines[: first + 3]) + lines[first + 3].rstrip("\n")[:cut])
    messages = []
    resumed = optimize(cfg, ledger_path=path, resume=True, log=messages.append)
    assert path.read_bytes() == full_path.read_bytes()
    assert resumed.ledger == full.ledger
    assert resumed.best.tiling_index == full.best.tiling_index
    assert any("unterminated last line" in m for m in messages)


def test_resume_refuses_a_malformed_line_that_is_terminated(tmp_path):
    cfg = resume_config()
    path = tmp_path / "ledger.csv"
    optimize(cfg, ledger_path=path)
    lines, first = ledger_lines(path)
    lines[first + 1] = lines[first + 1][:6] + "\n"
    path.write_text("".join(lines[: first + 3]) + lines[first + 3][:6])
    before = path.read_bytes()
    with pytest.raises(ValueError, match="malformed ledger line"):
        optimize(cfg, ledger_path=path, resume=True)
    assert path.read_bytes() == before  # the torn last line too


def test_resume_rejects_foreign_ledger(tmp_path):
    cfg = toy_config()
    path = tmp_path / "ledger.csv"
    optimize(cfg, ledger_path=path)
    other = toy_config(scenario=ScenarioParams(
        kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=3, seed=6
    ))
    with pytest.raises(ValueError, match="different config"):
        optimize(other, ledger_path=path, resume=True)


def test_resume_refuses_rows_without_a_config_hash(tmp_path):
    # rows with no header cannot be told apart from another config's rows
    cfg = toy_config()
    for text in ("1,999.0,-50.0,1,1\n", LEDGER_COLUMNS + "\n1,999.0,-50.0,1,1\n2,1."):
        path = tmp_path / "headerless.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="different config"):
            optimize(cfg, ledger_path=path, resume=True)
        assert path.read_text() == text


def test_resume_writes_an_empty_ledger_or_a_cut_header_again(tmp_path):
    cfg = resume_config()
    full_path = tmp_path / "full.csv"
    optimize(cfg, ledger_path=full_path)
    lines, first = ledger_lines(full_path)
    for text in ("", lines[0] + lines[1][:9], "".join(lines[:first])):
        path = tmp_path / "partial.csv"
        path.write_text(text)
        optimize(cfg, ledger_path=path, resume=True)
        assert path.read_bytes() == full_path.read_bytes()


def test_ledger_header_records_the_package_and_numpy_versions(tmp_path):
    path = tmp_path / "ledger.csv"
    optimize(toy_config(), ledger_path=path)
    meta, _ = read_ledger(path)
    assert meta["apertile_version"] == apertile.__version__
    assert meta["numpy_version"] == np.__version__


def test_resume_logs_a_ledger_written_under_other_versions(tmp_path):
    # another numpy or apertile build may change rows in their last bits;
    # the resume goes on and says so
    cfg = resume_config()
    full_path = tmp_path / "full.csv"
    full = optimize(cfg, ledger_path=full_path)
    path = tmp_path / "partial.csv"
    write_partial_ledger(full_path, path, 4)
    messages = []
    optimize(cfg, ledger_path=path, resume=True, log=messages.append)
    assert not [m for m in messages if "last bits" in m]

    write_partial_ledger(full_path, path, 4)
    current = f"# numpy_version={np.__version__}\n"
    path.write_text(path.read_text().replace(current, "# numpy_version=1.0.0\n"))
    messages = []
    resumed = optimize(cfg, ledger_path=path, resume=True, log=messages.append)
    assert [m for m in messages if "last bits" in m] == [
        f"{path} was written with numpy_version 1.0.0 (running {np.__version__}); "
        "resumed and new rows may differ in their last bits"
    ]
    meta, rows = read_ledger(path)
    assert meta["numpy_version"] == "1.0.0"
    assert rows == resumed.ledger == full.ledger


@pytest.mark.parametrize("workers", [1, 2])
def test_the_placement_table_leaves_the_ledger_unchanged(tmp_path, monkeypatch, workers):
    # each worker builds one full table: one set per placement, then the
    # baseline's 4 tiles. With no byte budget it builds none and sums each
    # task's sets from the channel stack: one call per ledger row, one for
    # the baseline and one for the best tiling (also the unconstrained best)
    log = tmp_path / "tables.txt"
    log.touch()
    real = opt.placement_table

    def logging(G, cells):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(cells)}\n")
        return real(G, cells)

    monkeypatch.setattr(opt, "placement_table", logging)
    cfg = p_config(workers=workers)
    placements = len(generate_placements(cfg.aperture_grid(), cfg.shapes()))

    def calls():
        return [line.split() for line in log.read_text().splitlines()]

    def full_tables():
        return [pid for pid, sets in calls() if int(sets) == placements + 4]

    result = optimize(cfg, ledger_path=tmp_path / "table.csv")
    assert result.best.tiling_index == result.best_unconstrained.tiling_index
    assert len(full_tables()) == len(set(full_tables())) == workers
    assert len(calls()) == workers
    monkeypatch.setattr(opt, "TABLE_BUDGET_BYTES", 0)
    optimize(cfg, ledger_path=tmp_path / "stack.csv")
    assert len(full_tables()) == workers
    assert len(calls()) == workers + len(result.ledger) + 2
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "stack.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_optimize_evaluates_without_aggregate_channel(monkeypatch, workers):
    # the baseline and the best tiling are rows of the placement table,
    # like every ledger row; aggregate_channel serves evaluate_tiling and
    # tiling_precoders
    def refuse(*args, **kwargs):
        raise AssertionError("optimize called aggregate_channel")

    monkeypatch.setattr(opt, "aggregate_channel", refuse)
    result = optimize(p_config(workers=workers))
    assert result.baseline.feasible and result.best_precoders


@pytest.mark.parametrize("budget", [opt.TABLE_BUDGET_BYTES, 0])
@pytest.mark.parametrize("workers", [1, 2])
def test_the_baseline_layout_ties_the_baseline_on_every_path(
    tmp_path, monkeypatch, workers, budget
):
    # In criterion 8's family the baseline layout is tiling t = 15, and its
    # pinned beating counts hold only if that ledger row has the baseline's
    # capacity bit for bit, with the table and without it
    monkeypatch.setattr(opt, "TABLE_BUDGET_BYTES", budget)
    path = tmp_path / "p_plus_bar.json"
    save_alphabet(
        [builtin_shape("hexomino_p", 1), builtin_shape("hexomino_i", 2, allow_rotations=False)],
        path,
    )
    for tag, scenario_kwargs, _, _ in PINNED_SCENARIOS:
        cfg = RunConfig(
            aperture=ApertureConfig(4, 6),
            scenario=ScenarioParams(drops=5, users=4, **scenario_kwargs),
            alphabet_file=str(path),
            workers=workers,
        )
        result = optimize(cfg)
        row = result.ledger[14]
        assert row.tiling_index == 15, tag
        assert row.capacity_bps_hz == result.baseline.average_sum_rate, tag
    matrix = build_incidence_matrix(
        generate_placements(cfg.aperture_grid(), cfg.shapes()), cfg.aperture_grid()
    )
    cover = next(c for t, c in enumerate(enumerate_exact_covers(matrix), 1) if t == 15)
    tiles = {tuple(c) for c in cover.tile_cells()}
    assert tiles == {tuple(c) for c in result.baseline_cover.tile_cells()}


def test_stride_subsamples_but_counts_everything(tmp_path):
    cfg = toy_config(tiling_stride=2)
    result = optimize(cfg, ledger_path=tmp_path / "strided.csv")
    assert result.total_tilings == 3
    assert [r.tiling_index for r in result.ledger] == [1, 3]
    assert not result.exhaustive
    meta, rows = read_ledger(tmp_path / "strided.csv")
    assert meta["stride"] == "2"
    assert len(rows) == 2


def test_unreachable_coverage_reports_infeasible_with_diagnostic():
    cfg = toy_config(
        budget=__import__("apertile.config", fromlist=["BudgetConfig"]).BudgetConfig(
            coverage_threshold_dbm=40.0
        )
    )
    result = optimize(cfg)
    assert not result.feasible
    assert result.best is None
    assert result.best_unconstrained is not None
    assert result.best_unconstrained.average_sum_rate > 0
    assert result.comparison is None


def test_optimize_logs_progress(monkeypatch):
    monkeypatch.setattr(opt, "PROGRESS_EVERY", 2)
    messages = []
    optimize(resume_config(tiling_stride=2), log=messages.append)
    # set-up first, then the total from the counted search
    assert "placements" in messages[0]
    assert messages[1] == "11 tilings, 6 to evaluate (stride 2)"
    progress = [m for m in messages if m.startswith("evaluated ")]
    assert [m.split(" (")[0] for m in progress] == [
        "evaluated 2 of 6 tilings",
        "evaluated 4 of 6 tilings",
        "evaluated 6 of 6 tilings",
    ]
    assert all("tilings/s, ETA" in m for m in progress)
    assert progress[-1].endswith("ETA 0 s)")
    assert messages[-1].startswith("done:")


# --- baseline comparison ----------------------------------------------------------

def fake_record(capacity, fingerprint="abc", drops=4):
    return EvaluationRecord(
        tiling_index=1,
        tile_count=4,
        per_drop_sum_rates=np.full(drops, capacity),
        average_sum_rate=capacity,
        eta_desired_w=np.full(8, 1e-9),
        min_desired_power_w=1e-9,
        covered=True,
        drops_fingerprint=fingerprint,
    )


def test_identical_records_have_zero_delta():
    cmp = compare_to_baseline(fake_record(100.0), fake_record(100.0))
    assert cmp.delta == 0.0


def test_reference_delta_arithmetic():
    cmp = compare_to_baseline(fake_record(1.1199 * 116.42), fake_record(116.42))
    assert 100 * cmp.delta == pytest.approx(11.99, abs=1e-9)


def test_beating_count_against_counting_oracle(rng):
    baseline = fake_record(50.0)
    rows = [
        LedgerRow(t + 1, float(c), -70.0, True, True)
        for t, c in enumerate(rng.uniform(0, 100, size=200))
    ]
    cmp = compare_to_baseline(fake_record(60.0), baseline, rows)
    expected = sum(1 for r in rows if r.capacity_bps_hz > 50.0)
    assert cmp.beating_count == expected
    assert cmp.beating_fraction == pytest.approx(expected / 200)


def test_mismatched_drops_rejected():
    with pytest.raises(ValueError, match="different drop sets"):
        compare_to_baseline(fake_record(1.0, "aaa"), fake_record(1.0, "bbb"))
    with pytest.raises(ValueError, match="drop counts"):
        compare_to_baseline(fake_record(1.0, drops=3), fake_record(1.0, drops=5))


# --- ledger io / summaries ----------------------------------------------------------

def test_summarize_single_row_equals_row():
    row = LedgerRow(1, 123.5, -70.25, True, True)
    summary = summarize_ledger([row])
    assert summary["capacity"] == {"min": 123.5, "max": 123.5, "avg": 123.5, "var": 0.0}
    assert summary["min_power_dbm"]["avg"] == -70.25
    assert summary["coverage_fraction"] == 1.0


def test_summarize_hand_built_rows():
    rows = [
        LedgerRow(1, 100.0, -80.0, True, True),
        LedgerRow(2, 110.0, -75.0, True, True),
        LedgerRow(3, 90.0, -85.0, False, True),
    ]
    summary = summarize_ledger(rows, baseline_capacity=99.0)
    assert summary["capacity"]["min"] == 90.0
    assert summary["capacity"]["max"] == 110.0
    assert summary["capacity"]["avg"] == pytest.approx(100.0)
    assert summary["capacity"]["var"] == pytest.approx(200.0 / 3)
    assert summary["coverage_fraction"] == pytest.approx(2 / 3)
    assert summary["beating_baseline"] == 2
    assert summary["beating_fraction"] == pytest.approx(2 / 3)


def test_summarize_rejects_empty_and_all_nan():
    with pytest.raises(ValueError, match="empty"):
        summarize_ledger([])
    with pytest.raises(ValueError, match="no feasible"):
        summarize_ledger([LedgerRow(1, float("nan"), float("nan"), False, False)])


def test_read_ledger_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# apertile ledger v1\n" + "t,capacity_bps_hz,min_power_dbm,coverage,feasible\n1,notanumber\n")
    with pytest.raises(ValueError, match="malformed"):
        read_ledger(path)


def test_read_ledger_rejects_row_cut_after_its_last_comma(tmp_path):
    # a row cut just before its feasible flag once read as an infeasible row
    header = "# apertile ledger v1\nt,capacity_bps_hz,min_power_dbm,coverage,feasible\n"
    good = "2,117.73010402125845,-58.96120553044186,1,1\n"
    for bad in (
        "3,117.73010402125845,-58.96120553044186,1,",
        "3,117.73010402125845,-58.96120553044186,1,1,",
        "3,117.73010402125845,-58.96120553044186,1,2",
        "3,117.73010402125845,-58.96120553044186,,1",
    ):
        path = tmp_path / "cut.csv"
        path.write_text(header + good + bad + "\n")
        with pytest.raises(ValueError, match="malformed ledger line"):
            read_ledger(path)
    path.write_text(header + good)
    assert read_ledger(path)[1] == [
        LedgerRow(2, 117.73010402125845, -58.96120553044186, True, True)
    ]


@pytest.mark.parametrize(
    "bad",
    [
        "5,nan,nan,1,0",
        "5,1.0,-100.0,0,0",
        "5,nan,-100.0,0,1",
        "5,1.0,nan,0,0",
        "5,nan,-100.0,0,0",
        "5,nan,nan,0,1",
    ],
)
def test_read_ledger_rejects_flags_that_contradict_the_numbers(tmp_path, bad):
    header = "# apertile ledger v1\nt,capacity_bps_hz,min_power_dbm,coverage,feasible\n"
    path = tmp_path / "ledger.csv"
    path.write_text(header + bad + "\n")
    with pytest.raises(ValueError, match="malformed ledger line"):
        read_ledger(path)
    # the rows the writer emits: infeasible, feasible below the floor, covered
    path.write_text(header + "1,nan,nan,0,0\n2,1.5,-inf,0,1\n3,2.5,-60.0,1,1\n")
    assert [(r.covered, r.feasible) for r in read_ledger(path)[1]] == [
        (False, False),
        (False, True),
        (True, True),
    ]


def test_resume_refuses_a_row_whose_flags_contradict_its_numbers(tmp_path):
    cfg = resume_config()
    path = tmp_path / "ledger.csv"
    optimize(cfg, ledger_path=path)
    lines, first = ledger_lines(path)
    t = lines[first + 1].split(",")[0]
    lines[first + 1] = f"{t},nan,nan,1,0\n"  # covered but infeasible
    path.write_text("".join(lines[: first + 3]))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="malformed ledger line"):
        optimize(cfg, ledger_path=path, resume=True)
    assert path.read_bytes() == before


def test_each_best_tiling_is_evaluated_once(monkeypatch):
    calls = []
    real = opt._score

    def counting(H, *args):
        calls.append(args[-2])  # tiling_index
        return real(H, *args)

    def no_precoders(*args, **kwargs):
        raise AssertionError("optimize takes the precoders from its evaluation")

    monkeypatch.setattr(opt, "_score", counting)
    monkeypatch.setattr(opt, "tiling_precoders", no_precoders)
    cfg = toy_config()
    result = optimize(cfg)
    # three ledger rows, then the best tiling once (it is also the
    # unconstrained best)
    assert result.best.tiling_index == result.best_unconstrained.tiling_index
    assert sorted(calls) == sorted([1, 2, 3, result.best.tiling_index])
    geometry = cfg.geometry()
    channels = [
        assemble_channel(geometry, cfg.pattern, d, cfg.channel)
        for d in sample_drops(cfg.scenario)
    ]
    expected = tiling_precoders(result.best_cover, ChannelStack.fill(channels, len(channels)))
    assert len(result.best_precoders) == len(expected) == cfg.scenario.drops
    for got, want in zip(result.best_precoders, expected):
        np.testing.assert_array_equal(got.coefficients, want.coefficients)
        np.testing.assert_array_equal(got.scale, want.scale)


def test_the_optimize_parent_evaluates_nothing(tmp_path, monkeypatch):
    # 3x6 dominoes: 41 tilings and a baseline; under a -44.7 dBm floor the
    # best covered tiling (t = 40) is not the unconstrained best (t = 41)
    log = tmp_path / "evaluations.txt"
    real = opt._score

    def logging(H, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {args[-2]}\n")  # tiling_index
        return real(H, *args)

    monkeypatch.setattr(opt, "_score", logging)
    cfg = toy_config(
        aperture=ApertureConfig(3, 6),
        budget=BudgetConfig(coverage_threshold_dbm=-44.7),
        workers=2,
    )
    result = optimize(cfg, ledger_path=tmp_path / "ledger.csv")
    assert (result.best.tiling_index, result.best_unconstrained.tiling_index) == (40, 41)
    assert result.baseline is not None and result.best_precoders
    entries = [line.split() for line in log.read_text().splitlines()]
    assert str(os.getpid()) not in {pid for pid, _ in entries}
    indexes = [int(t) for _, t in entries]
    # the baseline (t = 0) once, every ledger row once, and after the
    # stream the two best tilings once each
    assert sorted(indexes[:-2]) == [0, *range(1, 42)]
    assert sorted(indexes[-2:]) == [40, 41]


def test_result_to_json_shape(tmp_path):
    # 6-row aperture so the baseline layout exists
    cfg = toy_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
    )
    result = optimize(cfg)
    doc = result_to_json(result, cfg)
    assert doc["config_hash"] == cfg.config_hash()
    assert doc["total_tilings"] == 8
    assert doc["best"]["covered"] is True
    assert doc["best"]["values_row_major"]
    assert doc["baseline"]["capacity_bps_hz"] == pytest.approx(
        result.baseline.average_sum_rate
    )
    assert "delta_pct" in doc["comparison"]


def test_an_in_process_run_leaves_no_shared_state():
    # without a pool the tasks run here; the channel stack they share must
    # not outlive the run
    optimize(toy_config(workers=1))
    assert opt._SHARED == {}


def test_toy_without_divisible_rows_has_no_baseline():
    result = optimize(toy_config())
    assert result.baseline is None
    assert result.comparison is None
