import dataclasses
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import apertile
import apertile.channel as channel_module
import apertile.optimizer as opt
import apertile.precoding as precoding
from apertile.channel import (
    ChannelMatrix,
    ChannelStack,
    LinkBudget,
    aggregate_channel,
    assemble_channel,
)
from apertile.cli import main
from apertile.config import ApertureConfig, BudgetConfig, ChannelModel, RunConfig
from apertile.ledger import LEDGER_COLUMNS, LedgerRow, read_ledger, summarize_ledger
from apertile.metrics import EvaluationRecord, port_powers
from apertile.optimizer import (
    compare_to_baseline,
    evaluate_tiling,
    optimize,
    result_to_json,
    tiling_precoders,
)
from apertile.precoding import normalize_beams, zero_forcing
from apertile.scenario import ScenarioParams, sample_drops
from apertile.tiling import (
    AggregationVector,
    Aperture,
    _CoverSearch,
    _cover_from_rows,
    baseline_tiling,
    build_incidence_matrix,
    count_exact_covers,
    enumerate_exact_covers,
    generate_placements,
)
from apertile.shapes import alphabet, builtin_shape, save_alphabet

from oracles import column_major_stack, same_npz_members, savez_precoders, summarize_ledger_rows
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
    precoders = tiling_precoders(cover, column_major_stack(channels))
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
    assert len(tiling_precoders(cover, column_major_stack([G]))) == 1


# --- optimize ------------------------------------------------------------------

def test_toy_optimize_argmax_matches_hand_evaluation(tmp_path):
    cfg = toy_config()
    result = optimize(cfg, ledger_path=tmp_path / "ledger.csv")
    assert result.total_tilings == 3
    assert result.evaluated_tilings == 3
    assert result_to_json(result, cfg)["exhaustive"]

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

    rows = read_ledger(tmp_path / "ledger.csv")[1]
    assert len(rows) == len(by_hand)
    for row, expected in zip(rows, by_hand):
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
    optimize(cfg, ledger_path=tmp_path / "b.csv")
    rows = read_ledger(tmp_path / "a.csv")[1]
    assert first.evaluated_tilings == len(rows) == expected_rows
    assert [r.tiling_index for r in rows] == list(range(1, expected_rows + 1))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    cfg1 = toy_config(workers=1)
    cfg2 = toy_config(workers=2)
    res1 = optimize(cfg1, ledger_path=tmp_path / "w1.csv")
    res2 = optimize(cfg2, ledger_path=tmp_path / "w2.csv")
    assert res1.best.tiling_index == res2.best.tiling_index
    # the config hash leaves the worker count out, so whole files agree
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_pool_workers_take_the_default_sigterm_action(tmp_path, monkeypatch):
    # a Python SIGTERM handler in the caller must not reach the forked
    # workers, which a SIGTERM to the run's process group must end, and the
    # serial path must leave the caller's handler in place
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
    # the stack holds each drop's base factor, computed once per drop
    calls = {"n": 0}
    real = channel_module._channel_base

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(channel_module, "_channel_base", counting)
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
    assert resumed.total_tilings == full.total_tilings
    assert resumed.evaluated_tilings == full.evaluated_tilings
    assert resumed.comparison == full.comparison
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
    # 4x6 P has a baseline: the resumed rows count among those that beat it
    assert_resume_matches(p_config(), tmp_path, 5)


def test_resume_of_strided_ledger_continues_by_position(tmp_path):
    cfg = resume_config(tiling_stride=2)  # rows t = 1, 3, ..., 11
    for keep in (2, 4):
        assert_resume_matches(cfg, tmp_path, keep)


SRC = Path(__file__).resolve().parents[1] / "src"

# the versions that this process writes into a ledger header, in their order
RUNNING = {
    "apertile_version": apertile.__version__,
    "numpy_version": np.__version__,
    "blas_core": opt._blas_core(),
}


def launch_optimize(config, out_dir, *flags, stderr=subprocess.DEVNULL):
    """`apertile optimize` in a new session, its log unbuffered on a pipe."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "apertile.cli", "optimize", "--config", str(config),
         "--output-dir", str(out_dir), *flags],
        env=dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
        start_new_session=True,
    )


def finish(proc):
    proc.communicate(timeout=120)
    return proc.returncode


def kill_when(proc, ready):
    """SIGKILL the run's whole process group, its pool workers too, once
    ready() holds; the run must still be going then."""
    deadline = time.monotonic() + 120
    while not ready():
        assert proc.poll() is None, "the run ended before its kill point"
        assert time.monotonic() < deadline
        time.sleep(0.002)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate(timeout=60)


def test_a_killed_cli_run_resumes_to_the_uninterrupted_ledger(tmp_path):
    # 8x12 P, 4 drops, every 32nd tiling: 2686 rows, about 120 KB of ledger,
    # which reaches the file 8 KiB at a time
    cfg = RunConfig(
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=4, users=16, seed=3
        ),
        alphabet="P",
        tiling_stride=32,
        workers=2,
    )
    config = tmp_path / "config.json"
    cfg.save(config)
    full = tmp_path / "full"
    code = finish(launch_optimize(config, full))
    full_ledger = (full / "ledger.csv").read_bytes()
    assert full_ledger.count(b"\n") > 2686

    def size(path):
        return path.stat().st_size if path.exists() else 0

    def during_the_count(proc, ledger):
        # the first line comes once the drops are sampled; the pool forks
        # and the parent counts the 85926 tilings, then opens the ledger
        proc.stdout.readline()
        time.sleep(0.05)
        return True

    def after_the_first_rows(proc, ledger):
        return ledger.exists() and LEDGER_COLUMNS.encode() + b"\n1," in ledger.read_bytes()

    def near_the_end(proc, ledger):
        return size(ledger) >= len(full_ledger) - 3 * 8192

    for point in (during_the_count, after_the_first_rows, near_the_end):
        out = tmp_path / point.__name__
        ledger = out / "ledger.csv"
        proc = launch_optimize(config, out)
        kill_when(proc, lambda: point(proc, ledger))
        assert size(ledger) < len(full_ledger), point.__name__
        if point is during_the_count:
            assert not ledger.exists()
        assert finish(launch_optimize(config, out, "--resume")) == code
        assert ledger.read_bytes() == full_ledger, point.__name__
        with np.load(full / "best_precoders.npz") as want, np.load(out / "best_precoders.npz") as got:
            assert sorted(got.files) == sorted(want.files)
            for name in want.files:
                assert same_bytes(got[name], want[name]), name


def raise_timeout(*_):
    raise TimeoutError("the run did not end")


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)
def test_a_killed_worker_ends_the_run_and_resume_completes_it(tmp_path):
    # the config above; one worker is SIGKILLed, as the OOM killer would,
    # once the first rows are on disk. The run must end at once, name the
    # worker and leave no process behind. The alarm ends the test if the
    # run waits for the worker instead.
    cfg = RunConfig(
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=4, users=16, seed=3
        ),
        alphabet="P",
        tiling_stride=32,
        workers=2,
    )
    config = tmp_path / "config.json"
    cfg.save(config)
    full, out = tmp_path / "full", tmp_path / "killed"
    code = finish(launch_optimize(config, full))
    full_ledger = (full / "ledger.csv").read_bytes()
    ledger = out / "ledger.csv"
    previous = signal.signal(signal.SIGALRM, raise_timeout)
    signal.alarm(60)
    proc = launch_optimize(config, out, stderr=subprocess.PIPE)
    try:
        while not (ledger.exists() and LEDGER_COLUMNS.encode() + b"\n1," in ledger.read_bytes()):
            assert proc.poll() is None, "the run ended before its kill point"
            time.sleep(0.002)
        with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
            workers = fh.read().split()
        assert len(workers) == 2
        killed = time.monotonic()
        os.kill(int(workers[0]), signal.SIGKILL)
        _, err = proc.communicate(timeout=10)
        assert time.monotonic() - killed < 10
        assert proc.returncode != 0
        assert f"worker {workers[0]} ended without its results" in err
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    assert len(ledger.read_bytes()) < len(full_ledger)
    assert finish(launch_optimize(config, out, "--resume")) == code
    assert ledger.read_bytes() == full_ledger


def test_records_larger_than_a_pipe_buffer_reach_the_parent(tmp_path):
    # 4x6 P at 4096 drops: the per-UE capacities of the baseline's and the
    # best tiling's records are 4096 x 4 float64 each, 128 KiB, twice a
    # pipe's buffer; the alarm ends the test if the processes deadlock
    scenario = ScenarioParams(
        kind="uma", isd_m=500.0, bs_height_m=25.0, drops=4096, users=4, seed=5
    )
    results = {}
    previous = signal.signal(signal.SIGALRM, raise_timeout)
    signal.alarm(60)
    try:
        for workers in (1, 2):
            cfg = toy_config(
                aperture=ApertureConfig(4, 6), scenario=scenario, alphabet="P", workers=workers
            )
            results[workers] = optimize(cfg, ledger_path=tmp_path / f"w{workers}.csv")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    for name in ("best", "best_unconstrained", "baseline"):
        want, got = getattr(results[1], name), getattr(results[2], name)
        assert want.per_ue_capacities.nbytes == 128 * 2**10
        assert got.tiling_index == want.tiling_index
        assert got.average_sum_rate == want.average_sum_rate
        for field in ("per_drop_sum_rates", "eta_desired_w", "per_ue_capacities"):
            assert same_bytes(getattr(got, field), getattr(want, field)), (name, field)


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
    assert resumed.evaluated_tilings == full.evaluated_tilings
    assert resumed.best.tiling_index == full.best.tiling_index
    assert any("unterminated last line" in m for m in messages)


def rescored_with_one_bit_moved(monkeypatch):
    """Patch `_eval_task` so that the best covered tiling's re-score, the
    one task given a precoders destination, comes back one bit higher."""
    real = opt._eval_task

    def nudged(task):
        record = real(task)
        if task[2] is None:
            return record
        capacity = np.nextafter(record.average_sum_rate, np.inf)
        return dataclasses.replace(record, average_sum_rate=float(capacity))

    monkeypatch.setattr(opt, "_eval_task", nudged)


def test_a_best_row_that_re_scores_to_other_bits_ends_the_run(tmp_path, monkeypatch):
    cfg = resume_config()  # the best covered tiling is t = 7
    full_path = tmp_path / "full.csv"
    optimize(cfg, ledger_path=full_path)
    lines, first = ledger_lines(full_path)
    row = lines[first + 6].strip()
    cap = float(row.split(",")[1])
    moved = row.replace(repr(cap), repr(float(np.nextafter(cap, np.inf))))
    rescored_with_one_bit_moved(monkeypatch)
    precoders = tmp_path / "precoders.npz"
    with pytest.raises(ValueError) as err:
        optimize(cfg, ledger_path=tmp_path / "ledger.csv", precoders_path=precoders)
    assert str(err.value) == f"t=7: ledger row {row} re-scores as {moved}"

    # a row resumed from a ledger of the running versions is held to its bits
    path = tmp_path / "resumed.csv"
    write_partial_ledger(full_path, path, 8)
    with pytest.raises(ValueError, match=f"^t=7: ledger row {row} re-scores as"):
        optimize(cfg, ledger_path=path, precoders_path=precoders, resume=True)


def test_a_best_row_resumed_from_other_versions_is_logged_when_it_re_scores_apart(
    tmp_path, monkeypatch
):
    cfg = resume_config()
    full_path = tmp_path / "full.csv"
    optimize(cfg, ledger_path=full_path)
    rescored_with_one_bit_moved(monkeypatch)
    current, other = f"# numpy_version={np.__version__}\n", "# numpy_version=1.0.0\n"
    path = tmp_path / "resumed.csv"
    messages = []

    def resume(keep):
        write_partial_ledger(full_path, path, keep)
        path.write_text(path.read_text().replace(current, other))
        return optimize(
            cfg, ledger_path=path, precoders_path=tmp_path / "p.npz", resume=True,
            log=messages.append,
        )

    # the best covered tiling, t = 7, among the resumed rows: logged
    assert resume(8).best.tiling_index == 7
    assert len([m for m in messages if m.startswith("t=7: ledger row 7,")]) == 1
    assert path.read_text().replace(other, current) == full_path.read_text()
    # t = 7 scored in this run, under the running versions: refused
    with pytest.raises(ValueError, match="^t=7: ledger row"):
        resume(4)


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
    # and the BLAS kernel, which numpy's OpenBLAS picks for the CPU it runs on
    path = tmp_path / "ledger.csv"
    optimize(toy_config(), ledger_path=path)
    meta, _ = read_ledger(path)
    assert [key for key in meta if key in RUNNING] == list(RUNNING)
    assert {key: meta[key] for key in RUNNING} == RUNNING


def test_the_blas_core_is_unknown_without_the_library_or_its_symbol(monkeypatch):
    def missing(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(opt.ctypes, "CDLL", missing)
    assert opt._blas_core() == "unknown"
    monkeypatch.setattr(opt.ctypes, "CDLL", lambda _name: SimpleNamespace())
    assert opt._blas_core() == "unknown"


def test_resume_logs_a_ledger_written_under_other_versions(tmp_path):
    # another numpy or apertile build, or another BLAS kernel, may change
    # rows in their last bits; the resume goes on and says so. A ledger
    # written before the header named the kernel (None) resumes so too
    cfg = resume_config()
    full_path = tmp_path / "full.csv"
    full = optimize(cfg, ledger_path=full_path)
    path = tmp_path / "partial.csv"
    write_partial_ledger(full_path, path, 4)
    messages = []
    optimize(cfg, ledger_path=path, resume=True, log=messages.append)
    assert not [m for m in messages if "last bits" in m]

    for key, recorded in ("numpy_version", "1.0.0"), ("blas_core", "Atom"), ("blas_core", None):
        write_partial_ledger(full_path, path, 4)
        current = f"# {key}={RUNNING[key]}\n"
        written = "" if recorded is None else f"# {key}={recorded}\n"
        path.write_text(path.read_text().replace(current, written))
        messages = []
        resumed = optimize(cfg, ledger_path=path, resume=True, log=messages.append)
        assert [m for m in messages if "last bits" in m] == [
            f"{path} was written with {key} {recorded or 'unrecorded'} "
            f"(running {RUNNING[key]}); resumed and new rows may differ in their last bits"
        ]
        meta, rows = read_ledger(path)
        assert meta.get(key) == recorded
        assert rows == read_ledger(full_path)[1]
        assert resumed.evaluated_tilings == full.evaluated_tilings == len(rows)


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
    assert len(calls()) == workers + result.evaluated_tilings + 2
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "stack.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_optimize_evaluates_without_aggregate_channel(tmp_path, monkeypatch, workers):
    # the baseline and the best tiling are rows of the placement table,
    # like every ledger row; aggregate_channel serves evaluate_tiling and
    # tiling_precoders
    def refuse(*args, **kwargs):
        raise AssertionError("optimize called aggregate_channel")

    monkeypatch.setattr(opt, "aggregate_channel", refuse)
    result = optimize(p_config(workers=workers), precoders_path=tmp_path / "precoders.npz")
    assert result.baseline.feasible and (tmp_path / "precoders.npz").is_file()


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
        ledger = tmp_path / f"{tag}.csv"
        result = optimize(cfg, ledger_path=ledger)
        row = read_ledger(ledger)[1][14]
        assert row.tiling_index == 15, tag
        assert row.capacity_bps_hz == result.baseline.average_sum_rate, tag
    matrix = build_incidence_matrix(
        generate_placements(cfg.aperture_grid(), cfg.shapes()), cfg.aperture_grid()
    )
    cover = next(c for t, c in enumerate(enumerate_exact_covers(matrix), 1) if t == 15)
    tiles = {tuple(c) for c in cover.tile_cells()}
    assert tiles == {tuple(c) for c in result.baseline_cover.tile_cells()}


# --- drop blocks and worker set-up ------------------------------------------

def block_config(**overrides):
    # 4x6 P with 5 drops: 8 tilings of 4 tiles, each drop's (A, 2Q) channel
    # 8 x 8, 1 KiB
    return toy_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=5, users=4, seed=5
        ),
        alphabet="P",
        **overrides,
    )


def evaluations_in_blocks(monkeypatch, cfg, stack, block_drops, out=None):
    """The records of opt._eval_task for every tiling of cfg, in a process
    whose assembled channel stack is `stack` and whose drop blocks hold
    `block_drops` drops, each task writing its precoders to out/<t>.npz
    when `out` is given; and the covers of those tilings."""
    aperture = cfg.aperture_grid()
    L = build_incidence_matrix(generate_placements(aperture, cfg.shapes()), aperture)
    cells = [np.array(p, dtype=np.intp) - 1 for p in L.rows]
    tasks = [
        (t, rows, out and (out / f"{t}.npz", {"seed": cfg.scenario.seed}))
        for t, rows in _CoverSearch(L).stream(1, 1)
    ]
    if out:
        out.mkdir()
    monkeypatch.setattr(ChannelStack, "assemble", lambda *args: stack)
    monkeypatch.setattr(opt, "DROP_BLOCK_BYTES", block_drops * 2**10)
    with opt._Workers(0, (cfg, sample_drops(cfg.scenario), cells, "key", True)):
        results = [opt._eval_task(task) for task in tasks]
    covers = [_cover_from_rows(rows, cells, aperture.size) for _, rows, _ in tasks]
    return results, covers


def same_bytes(got, want):
    if got is None or want is None:
        return got is want
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_record(got, want):
    for field in dataclasses.fields(want):
        assert same_bytes(getattr(got, field.name), getattr(want, field.name)), field.name


def with_drop(stack, drop, change):
    """A copy of `stack` with change(base) applied to one drop's (K, U) base."""
    base = stack.base.copy()
    change(base[:, drop])
    return ChannelStack(base, stack.coupling)


def zero_user(base):
    base[:, 1] = 0.0  # a zero row makes the Gram matrix exactly singular


def repeated_user(base):
    base[:, 1] = base[:, 0]


def nearly_repeated_user(base):
    base[:, 1] = base[:, 0] * (1.0 + 1e-11j)  # cond(H) far over the 1e8 cap


# (case, drop changed, change, the outcomes over the 8 tilings); blocks of
# 2 drops split the 5 drops 2 + 2 + 1. An exactly repeated row leaves
# eigvalsh a smallest eigenvalue of rounding size, so its cap decision,
# and whether solve meets a singular Gram matrix, vary from tiling to
# tiling; a tiling whose solve does is infeasible.
BLOCK_CASES = [
    ("feasible", 0, lambda base: None, {"feasible"}),
    ("over the cap in the last block", 4, nearly_repeated_user, {"infeasible"}),
    ("zero row in the first block", 0, zero_user, {"infeasible"}),
    ("zero row in the middle block", 2, zero_user, {"infeasible"}),
    ("repeated row in the last block", 4, repeated_user, {"feasible", "infeasible"}),
]


def outcome_name(record):
    return "feasible" if record.feasible else "infeasible"


@pytest.mark.parametrize("table_budget", [opt.TABLE_BUDGET_BYTES, 0])
@pytest.mark.parametrize(
    "case,drop,change,outcomes", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES]
)
def test_drop_blocks_keep_every_bit(
    tmp_path, monkeypatch, table_budget, case, drop, change, outcomes
):
    # the table and the no-table path, in blocks of 2 drops and in one
    # block, against evaluate_tiling's one pass over the same cover; a
    # feasible tiling's precoders stream to the members that np.savez
    # writes from tiling_precoders, and an infeasible one leaves no file
    monkeypatch.setattr(opt, "TABLE_BUDGET_BYTES", table_budget)
    cfg = block_config()
    stack = with_drop(
        ChannelStack.assemble(cfg.geometry(), cfg.pattern, sample_drops(cfg.scenario), cfg.channel),
        drop,
        change,
    )
    blocked, covers = evaluations_in_blocks(monkeypatch, cfg, stack, 2, tmp_path / "blocked")
    whole, _ = evaluations_in_blocks(monkeypatch, cfg, stack, 5, tmp_path / "whole")
    budget = cfg.link_budget()
    assert {outcome_name(record) for record in blocked} == outcomes
    for t, (record, one_block, cover) in enumerate(zip(blocked, whole, covers), 1):
        evaluated = evaluate_tiling(cover, stack, budget, tiling_index=t, drops_key="key")
        assert_same_record(record, one_block)
        assert_same_record(record, evaluated)
        files = [tmp_path / tag / f"{t}.npz" for tag in ("blocked", "whole")]
        assert [path.exists() for path in files] == [record.feasible] * 2
        if record.feasible:
            reference = tmp_path / f"savez-{t}.npz"
            savez_precoders(tiling_precoders(cover, stack), reference, {"seed": cfg.scenario.seed})
            assert all(same_npz_members(path, reference) for path in files)
    assert not list(tmp_path.glob("*/*.part"))


def test_a_singular_block_makes_the_tiling_infeasible(monkeypatch):
    # solve raises on an exactly singular Gram matrix, and _zero_force
    # re-raises when eigvalsh then passes every drop, as it is made to pass
    # drop 0's zero row here. The tiling is infeasible, in one pass over
    # every drop and in blocks, whether or not another drop fails the cap.
    real = precoding._cap_decision

    def passing_zero_rows(gram, cap):
        return real(gram, cap) | (gram == 0).all(axis=2).any(axis=1)

    monkeypatch.setattr(precoding, "_cap_decision", passing_zero_rows)
    cfg = block_config()
    assembled = ChannelStack.assemble(
        cfg.geometry(), cfg.pattern, sample_drops(cfg.scenario), cfg.channel
    )
    singular = with_drop(assembled, 0, zero_user)
    cover = baseline_tiling(cfg.aperture_grid())
    with pytest.raises(np.linalg.LinAlgError):
        precoding._zero_force(*opt._aggregate(cover, singular), cfg.zf_condition_cap)
    for stack in (singular, with_drop(singular, 4, nearly_repeated_user)):
        blocked, covers = evaluations_in_blocks(monkeypatch, cfg, stack, 2)
        for t, (record, cover) in enumerate(zip(blocked, covers), 1):
            assert not record.feasible and np.isnan(record.per_drop_sum_rates).all()
            evaluated = evaluate_tiling(
                cover, stack, cfg.link_budget(), tiling_index=t, drops_key="key"
            )
            assert_same_record(record, evaluated)


def test_evaluate_builds_no_placement_table(tmp_path, monkeypatch):
    # evaluate runs one task, which reads each of its tiles once, so it
    # sets up without the table that optimize's workers build where it
    # fits, as it does on 4x6 P at 10 drops; the record keeps every bit
    cfg = toy_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=10, users=4, seed=5
        ),
        alphabet="P",
    )
    cfg.save(tmp_path / "config.json")
    real, seen = opt._eval_task, []

    def recording(task):
        seen.append((opt._SHARED["table"], real(task)))
        return seen[-1][1]

    monkeypatch.setattr(opt, "_eval_task", recording)
    assert main(["evaluate", "--config", str(tmp_path / "config.json"), "--tiling", "baseline"]) == 0
    ((table, record),) = seen
    assert table is None and record.feasible
    cover = baseline_tiling(cfg.aperture_grid())
    with opt._Workers(0, (cfg, sample_drops(cfg.scenario), cover.tile_cells(), None, True)):
        assert opt._SHARED["table"] is not None
        assert_same_record(record, real((0, tuple(range(cover.tile_count)), None)))


def task_peaks(run):
    """tracemalloc's peak during run((t, rows)), which must give a feasible
    result, for the first tiling of 8x12 P with 16 users on the no-table
    path, at 32 and at 256 drops; each run once untraced first."""
    cfg = RunConfig(
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=256, users=16, seed=1
        ),
        alphabet="P",
        workers=1,
    )
    aperture = cfg.aperture_grid()
    L = build_incidence_matrix(generate_placements(aperture, cfg.shapes()), aperture)
    cells = [np.array(p, dtype=np.intp) - 1 for p in L.rows]
    task = next(_CoverSearch(L).stream(1, 1))
    drops = sample_drops(cfg.scenario)
    peaks = {}
    for count in (32, 256):
        with opt._Workers(0, (cfg, drops[:count], cells, None, False)):
            run(task)
            tracemalloc.start()
            try:
                assert run(task).feasible
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    return peaks


def test_a_workers_working_set_does_not_grow_with_the_drops():
    # one ledger task: a (b, 32, 32) drop block holds 25 drops, and one
    # pass over every drop held about 0.12 MB per drop
    peaks = task_peaks(lambda task: LedgerRow(*opt._ledger_task(task)))
    assert peaks[256] <= 1.3 * peaks[32], peaks


def test_writing_the_precoders_does_not_grow_the_working_set(tmp_path):
    # the best tiling's task: its precoders, 16 KiB a drop, go to the file
    # one drop block at a time, and no step holds every drop's beams
    path = tmp_path / "best_precoders.npz"
    peaks = task_peaks(lambda task: opt._eval_task((*task, (path, {"seed": 1}))))
    assert peaks[256] <= 1.3 * peaks[32], peaks
    with np.load(path) as data:
        assert data["coefficients"].shape == (256, 32, 32)
        assert data["scales"].shape == (256, 32)


def refuse_assembly(*args):
    raise ValueError("cannot assemble these drops")


@pytest.mark.parametrize("workers", [1, 2])
def test_a_worker_that_cannot_assemble_its_stack_stops_the_run(monkeypatch, workers):
    # a Pool whose initializer raises replaces the worker without end, and
    # optimize would wait for ever; the alarm ends the test if it does
    def too_long(*_):
        raise TimeoutError("optimize did not stop")

    monkeypatch.setattr(ChannelStack, "assemble", refuse_assembly)
    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(60)
    started = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="cannot assemble these drops"):
            optimize(p_config(workers=workers))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - started < 10


def test_each_worker_assembles_its_own_stack_and_the_parent_none(tmp_path, monkeypatch):
    log = tmp_path / "assemblies.txt"
    log.touch()
    real = ChannelStack.assemble

    def logging(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(ChannelStack, "assemble", logging)
    result = optimize(p_config(workers=2))
    pids = log.read_text().split()
    assert len(pids) == len(set(pids)) == 2
    assert str(os.getpid()) not in pids
    assert result.best is not None and result.baseline.feasible


def test_stride_subsamples_but_counts_everything(tmp_path):
    cfg = toy_config(tiling_stride=2)
    result = optimize(cfg, ledger_path=tmp_path / "strided.csv")
    assert result.total_tilings == 3
    assert result.evaluated_tilings == 2
    assert not result_to_json(result, cfg)["exhaustive"]
    meta, rows = read_ledger(tmp_path / "strided.csv")
    assert meta["stride"] == "2"
    assert [r.tiling_index for r in rows] == [1, 3]


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


def test_beating_count_against_counting_oracle(tmp_path, monkeypatch, rng):
    # 3x6 dominoes, whose 41 ledger rows take random capacities around the
    # baseline's, every fifth one infeasible; the fold counts as they merge
    cfg = toy_config(aperture=ApertureConfig(3, 6))
    baseline = optimize(cfg).baseline.average_sum_rate
    caps = rng.uniform(0.5 * baseline, 1.5 * baseline, size=42)

    def row(record):  # the ledger row of each record, the best tilings' re-scores too
        t = record.tiling_index
        if t % 5 == 0:
            return t, float("nan"), float("nan"), False, False
        return t, float(caps[t]), -70.0, True, True

    monkeypatch.setattr(opt, "_ledger_row", row)
    result = optimize(cfg, ledger_path=tmp_path / "ledger.csv")
    rows = read_ledger(tmp_path / "ledger.csv")[1]
    expected = sum(1 for r in rows if r.capacity_bps_hz > baseline)
    assert 0 < expected < len(rows) == 41
    assert result.comparison.beating_count == expected
    assert result.comparison.beating_fraction == pytest.approx(expected / 41)


def test_equal_capacities_keep_the_lowest_t(monkeypatch):
    # every row has the same capacity; the rows before t = 4 are uncovered
    def row(record):
        return record.tiling_index, 100.0, -70.0, record.tiling_index >= 4, True

    monkeypatch.setattr(opt, "_ledger_row", row)
    result = optimize(toy_config(aperture=ApertureConfig(3, 6)))
    assert result.best.tiling_index == 4
    assert result.best_unconstrained.tiling_index == 1


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


def test_a_stream_of_rows_has_the_summary_of_their_list(rng):
    # 500 rows, every 7th infeasible and every 11th at 0 W (-inf dBm)
    rows = [
        LedgerRow(t, float("nan"), float("nan"), False, False)
        if t % 7 == 0
        else LedgerRow(
            t, float(rng.normal(280.0, 5.0)),
            -np.inf if t % 11 == 0 else float(rng.normal(-100.0, 3.0)),
            bool(t % 3), True,
        )
        for t in range(1, 501)
    ]
    for baseline in (None, 280.0):
        want = summarize_ledger_rows(rows, baseline)
        assert repr(summarize_ledger((row for row in rows), baseline)) == repr(want)
        assert repr(summarize_ledger(rows, baseline)) == repr(want)


def test_summarizing_a_full_ledger_holds_less_than_its_rows():
    def rows():  # the 85926 rows of a full 8x12 P ledger
        for t in range(1, 85927):
            yield LedgerRow(t, 280.0 + (t % 97) / 10.0, -100.0 - (t % 13) / 4.0, t % 3 > 0, True)

    tracemalloc.start()
    try:
        summarize_ledger(rows(), 285.0)
        summary_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        held = list(rows())
        held_bytes = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(held) == 85926
    assert summary_peak < held_bytes, (summary_peak, held_bytes)


def test_read_ledger_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    header = "# apertile ledger v1\n" + "t,capacity_bps_hz,min_power_dbm,coverage,feasible\n"
    # a feasible row has a finite capacity and a power (a covered row with
    # none could become the best); only an uncovered one may have 0 W
    malformed = ("1,5.0,nan,1,1", "1,inf,-80.0,1,1", "1,-inf,-80,0,1", "1,5.0,-inf,1,1")
    for bad in ("1,notanumber", *malformed):
        path.write_text(header + bad + "\n")
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


def test_each_best_tiling_is_evaluated_once(tmp_path, monkeypatch):
    # one drop per block: the loop runs once per tiling, not once per block
    monkeypatch.setattr(opt, "DROP_BLOCK_BYTES", 1)
    calls = []
    real = opt._evaluate

    def counting(blocks, drops, sizes, budget, beams, cap, t, *rest):
        calls.append(t)
        return real(blocks, drops, sizes, budget, beams, cap, t, *rest)

    def no_precoders(*args, **kwargs):
        raise AssertionError("optimize takes the precoders from its evaluation")

    monkeypatch.setattr(opt, "_evaluate", counting)
    monkeypatch.setattr(opt, "tiling_precoders", no_precoders)
    cfg = toy_config()
    result = optimize(cfg, precoders_path=tmp_path / "best_precoders.npz")
    # three ledger rows, then the best tiling once (it is also the
    # unconstrained best)
    assert result.best.tiling_index == result.best_unconstrained.tiling_index
    assert sorted(calls) == sorted([1, 2, 3, result.best.tiling_index])
    geometry = cfg.geometry()
    channels = [
        assemble_channel(geometry, cfg.pattern, d, cfg.channel)
        for d in sample_drops(cfg.scenario)
    ]
    expected = tiling_precoders(result.best_cover, column_major_stack(channels))
    assert len(expected) == cfg.scenario.drops
    with np.load(tmp_path / "best_precoders.npz") as data:
        np.testing.assert_array_equal(data["coefficients"], [p.coefficients for p in expected])
        np.testing.assert_array_equal(data["scales"], [p.scale for p in expected])


def test_the_optimize_parent_evaluates_nothing(tmp_path, monkeypatch):
    # 3x6 dominoes: 41 tilings and a baseline; under a -44.7 dBm floor the
    # best covered tiling (t = 40) is not the unconstrained best (t = 41)
    log = tmp_path / "evaluations.txt"
    real = opt._evaluate

    def logging(blocks, drops, sizes, budget, beams, cap, t, *rest):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {t}\n")
        return real(blocks, drops, sizes, budget, beams, cap, t, *rest)

    monkeypatch.setattr(opt, "_evaluate", logging)
    cfg = toy_config(
        aperture=ApertureConfig(3, 6),
        budget=BudgetConfig(coverage_threshold_dbm=-44.7),
        workers=2,
    )
    precoders = tmp_path / "best_precoders.npz"
    result = optimize(cfg, ledger_path=tmp_path / "ledger.csv", precoders_path=precoders)
    assert (result.best.tiling_index, result.best_unconstrained.tiling_index) == (40, 41)
    assert result.baseline is not None and precoders.is_file()
    entries = [line.split() for line in log.read_text().splitlines()]
    assert str(os.getpid()) not in {pid for pid, _ in entries}
    indexes = [int(t) for _, t in entries]
    # the baseline (t = 0) once, every ledger row once, and after the
    # stream the two best tilings once each
    assert sorted(indexes[:-2]) == [0, *range(1, 42)]
    assert sorted(indexes[-2:]) == [40, 41]


DESTINATIONS_LOG = {}


def logging_eval_task(task):
    """opt._eval_task, logging t and whether the task has a destination;
    module-level, so that the pool can pickle it."""
    with open(DESTINATIONS_LOG["path"], "a") as fh:
        fh.write(f"{task[0]} {int(task[2] is not None)}\n")
    return DESTINATIONS_LOG["real"](task)


def test_only_the_best_covered_tiling_writes_precoders(tmp_path, monkeypatch):
    # the config above: the baseline (t = 0), the ledger rows (t = 1..41)
    # and the unconstrained best (t = 41 again) write nothing
    log = tmp_path / "destinations.txt"
    monkeypatch.setitem(DESTINATIONS_LOG, "real", opt._eval_task)
    monkeypatch.setitem(DESTINATIONS_LOG, "path", log)
    monkeypatch.setattr(opt, "_eval_task", logging_eval_task)
    cfg = toy_config(
        aperture=ApertureConfig(3, 6),
        budget=BudgetConfig(coverage_threshold_dbm=-44.7),
        workers=2,
    )
    precoders = tmp_path / "best_precoders.npz"
    result = optimize(cfg, precoders_path=precoders)
    assert (result.best.tiling_index, result.best_unconstrained.tiling_index) == (40, 41)
    entries = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    assert sorted(entries) == sorted([(t, 0) for t in range(42)] + [(40, 1), (41, 0)])
    with np.load(precoders) as data:
        assert len(data["coefficients"]) == cfg.scenario.drops
    # without a path no task has a destination, and no file is written
    log.unlink()
    optimize(cfg)
    assert {line.split()[1] for line in log.read_text().splitlines()} == {"0"}


def logged_in_pid(log, name, real):
    """`real`, appending "<pid> <name>" to `log` on each call."""

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {name}\n")
        return real(*args, **kwargs)

    return logged


def test_the_precoders_are_made_and_written_in_a_worker(tmp_path, monkeypatch):
    log = tmp_path / "pids.txt"
    monkeypatch.setattr(opt, "_precoder_file", logged_in_pid(log, "writer", opt._precoder_file))
    monkeypatch.setattr(opt, "_precoders", logged_in_pid(log, "precoders", opt._precoders))
    monkeypatch.setattr(opt, "DROP_BLOCK_BYTES", 2 * 2**10)  # 5 drops as 2 + 2 + 1
    optimize(block_config(workers=2), precoders_path=tmp_path / "best_precoders.npz")
    entries = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for _, name in entries) == ["precoders"] * 3 + ["writer"]
    assert len({pid for pid, _ in entries}) == 1
    assert str(os.getpid()) not in {pid for pid, _ in entries}
    assert (tmp_path / "best_precoders.npz").is_file()


def test_no_pool_worker_imports_a_module(tmp_path):
    # `apertile optimize` imports every module its workers use before they
    # fork: a module a worker imported would be compiled, and cost CPU, in
    # every worker of every run. Neither the parent nor a worker loads
    # multiprocessing; nor, since the drops come from apertile's own PCG64
    # stream, numpy.random and the OpenSSL it brings (secrets, _hashlib),
    # and neither does `apertile evaluate`
    config = tmp_path / "config.json"
    p_config(workers=2).save(config)
    code = (
        "import functools, os, sys\n"
        "import apertile.optimizer as opt\n"
        "from apertile.cli import main\n"
        "def loaded():\n"
        "    names = ('multiprocessing', 'numpy.random', 'secrets', '_hashlib')\n"
        "    return [name in sys.modules for name in names]\n"
        "at_fork = set()\n"
        "os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))\n"
        "task = opt._eval_task\n"
        "@functools.wraps(task)\n"
        "def first_task(*args):\n"
        "    result = task(*args)\n"
        "    if at_fork:\n"
        "        print('worker', os.getpid(), *loaded(),\n"
        "              *sorted(set(sys.modules) ^ at_fork), flush=True)\n"
        "        at_fork.clear()\n"
        "    return result\n"
        "opt._eval_task = first_task\n"
        f"code = main(['optimize', '--config', {str(config)!r}, '--output-dir', {str(tmp_path)!r}])\n"
        "print('parent', *loaded(), flush=True)\n"
        f"main(['evaluate', '--config', {str(config)!r}, '--tiling', 'baseline'])\n"
        "print('evaluate', *loaded())\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    workers = [line.split()[1:] for line in out.stdout.splitlines() if line.startswith("worker ")]
    assert workers
    assert [imported for _pid, *imported in workers] == [["False"] * 4] * len(workers)
    lines = out.stdout.splitlines()
    assert "parent False False False False" in lines
    assert lines[-1] == "evaluate False False False False"


@pytest.mark.parametrize("budget", [opt.TABLE_BUDGET_BYTES, 0])
@pytest.mark.parametrize("workers", [1, 2])
def test_precoders_stream_bit_for_bit(tmp_path, monkeypatch, workers, budget):
    # blocks of 2 KiB split the 5 drops of 1 KiB 2 + 2 + 1; the streamed
    # file has the members of an unblocked run's file and of the np.savez
    # file of tiling_precoders, byte for byte
    monkeypatch.setattr(opt, "TABLE_BUDGET_BYTES", budget)
    cfg = block_config(workers=workers)
    optimize(cfg, precoders_path=tmp_path / "whole.npz")
    monkeypatch.setattr(opt, "DROP_BLOCK_BYTES", 2 * 2**10)
    result = optimize(cfg, precoders_path=tmp_path / "blocked.npz")
    stack = ChannelStack.assemble(
        cfg.geometry(), cfg.pattern, sample_drops(cfg.scenario), cfg.channel
    )
    meta = {"config_hash": cfg.config_hash(), "seed": cfg.scenario.seed}
    savez_precoders(tiling_precoders(result.best_cover, stack), tmp_path / "savez.npz", meta)
    assert same_npz_members(tmp_path / "blocked.npz", tmp_path / "whole.npz")
    assert same_npz_members(tmp_path / "blocked.npz", tmp_path / "savez.npz")
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "blocked.npz", "savez.npz", "whole.npz"
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_precoder_write_leaves_any_earlier_file_as_it_was(
    tmp_path, monkeypatch, workers
):
    real = opt._precoder_file

    @contextmanager
    def failing_after_one_block(*args):
        with real(*args) as write:

            def write_once(precoders):
                write(precoders)
                raise OSError("no space left on device")

            yield write_once

    monkeypatch.setattr(opt, "_precoder_file", failing_after_one_block)
    monkeypatch.setattr(opt, "DROP_BLOCK_BYTES", 2 * 2**10)
    cfg = block_config(workers=workers)
    path = tmp_path / "best_precoders.npz"
    with pytest.raises(OSError, match="no space left"):
        optimize(cfg, precoders_path=path)
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"an earlier run's precoders")
    with pytest.raises(OSError, match="no space left"):
        optimize(cfg, precoders_path=path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == b"an earlier run's precoders"


def test_the_ledger_holds_every_merged_chunk(tmp_path, monkeypatch):
    # 3x6 dominoes in one process: 41 rows in pool chunks of 11. Each task
    # reads the ledger before its own row merges, and finds the rows of
    # every chunk merged before it on disk, whole.
    path = tmp_path / "ledger.csv"
    seen = []
    real = opt._ledger_task

    def reading(task):
        seen.append(path.read_text() if path.exists() else "")
        return real(task)

    monkeypatch.setattr(opt, "_ledger_task", reading)
    result = optimize(toy_config(aperture=ApertureConfig(3, 6)), ledger_path=path)
    lines = path.read_text().splitlines(keepends=True)
    first = lines.index(LEDGER_COLUMNS + "\n") + 1
    assert len(seen) == result.evaluated_tilings == len(lines) - first == 41
    chunksize = 11
    for merged, text in enumerate(seen):
        whole = merged // chunksize * chunksize
        if whole:
            assert text.startswith("".join(lines[: first + whole])), merged
        assert text.endswith("\n") or not text
    assert seen[-1].count("\n") >= first + 33


def test_the_ledger_is_fsynced_on_a_timer(tmp_path, monkeypatch):
    # 3x6 dominoes in one process: 41 rows in pool chunks of 11, flushed at
    # rows 11, 22 and 33. The clock moves a twentieth of the interval per
    # row, so a flush comes every 0.55 intervals, and only the second is
    # at least one interval after the run's start.
    path = tmp_path / "ledger.csv"
    now = [0.0]
    real = opt._ledger_task

    def slow(task):
        now[0] += opt.FSYNC_EVERY_S / 20
        return real(task)

    synced = []

    def fsync(fd):
        assert os.fstat(fd).st_ino == path.stat().st_ino
        lines, first = ledger_lines(path)
        synced.append(len(lines) - first)

    monkeypatch.setattr(opt, "_ledger_task", slow)
    monkeypatch.setattr(opt, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(opt.os, "fsync", fsync)
    optimize(toy_config(aperture=ApertureConfig(3, 6)), ledger_path=path)
    assert synced == [22]


def test_a_stale_part_file_is_removed(tmp_path):
    # a killed run left the part file; this run has no covered tiling, so it
    # writes no precoders that would replace it
    path = tmp_path / "best_precoders.npz"
    (tmp_path / "best_precoders.npz.part").write_bytes(b"a killed run's precoders")
    cfg = toy_config(budget=BudgetConfig(coverage_threshold_dbm=40.0))
    assert not optimize(cfg, precoders_path=path).feasible
    assert list(tmp_path.iterdir()) == []


def test_the_parents_peak_does_not_grow_with_the_rows(tmp_path, monkeypatch):
    # 8x12 P in this process, each ledger row a stub: the parent merges
    # 85926 rows at stride 1 and 1343 at stride 64, and a resume folds 85826
    # rows as it reads them back. Traced from the end of the count, the
    # peaks differ by less than a byte a row; holding the rows took about
    # 190 bytes apiece.
    def row(t):
        return t, 100.0 + t % 7, -60.0, True, True

    # the best rows' re-scores give their stub rows again
    monkeypatch.setattr(opt, "_ledger_task", lambda task: row(task[0]))
    monkeypatch.setattr(opt, "_ledger_row", lambda record: row(record.tiling_index))
    count = _CoverSearch.count

    def count_then_trace(search):
        total = count(search)
        tracemalloc.start()
        return total

    monkeypatch.setattr(_CoverSearch, "count", count_then_trace)

    def peak(stride, path, **kwargs):
        cfg = RunConfig(
            scenario=ScenarioParams(
                kind="uma", isd_m=500.0, bs_height_m=25.0, drops=1, users=4, seed=1
            ),
            alphabet="P",
            tiling_stride=stride,
            workers=1,
        )
        try:
            optimize(cfg, ledger_path=path, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(64, tmp_path / "warm.csv")
    strided = peak(64, tmp_path / "strided.csv")
    full = tmp_path / "full.csv"
    every = peak(1, full)
    write_partial_ledger(full, tmp_path / "resumed.csv", 85826)
    resumed = peak(1, tmp_path / "resumed.csv", resume=True)
    assert (tmp_path / "resumed.csv").read_bytes() == full.read_bytes()
    assert every < strided + 2**16, (every, strided)
    assert resumed < strided + 2**16, (resumed, strided)


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


def test_result_to_json_takes_the_run_identity_from_the_config():
    # the result holds no copy of these: they are read from the config
    other = ChannelModel(mode="ploss_exp", path_loss_exponent=2.5)
    for cfg in (p_config(), p_config(tiling_stride=3, channel=other)):
        doc = result_to_json(optimize(cfg), cfg)
        assert list(doc)[:3] == ["config_hash", "seed", "channel_mode"]
        assert [doc[key] for key in ("config_hash", "seed", "channel_mode", "exhaustive")] == [
            cfg.config_hash(), cfg.scenario.seed, cfg.channel.tag, cfg.tiling_stride == 1
        ]


def test_an_in_process_run_leaves_no_shared_state():
    # without a pool the tasks run here; the channel stack they share must
    # not outlive the run
    optimize(toy_config(workers=1))
    assert opt._SHARED == {}


def test_toy_without_divisible_rows_has_no_baseline():
    result = optimize(toy_config())
    assert result.baseline is None
    assert result.comparison is None


def test_resources_count_the_cpu_of_their_own_run():
    # two runs in one process: each reports the CPU seconds from its own
    # start, not the process's totals, so the second is not the sum of both
    import resource

    cfg = p_config(workers=2)
    whos = {"parent": resource.RUSAGE_SELF, "workers": resource.RUSAGE_CHILDREN}
    peaks = []
    for _ in range(2):
        before = {key: resource.getrusage(who) for key, who in whos.items()}
        resources = result_to_json(optimize(cfg), cfg)["resources"]
        for key, who in whos.items():
            after = resource.getrusage(who)
            user_s = after.ru_utime - before[key].ru_utime
            system_s = after.ru_stime - before[key].ru_stime
            assert 0 <= resources[key]["user_s"] <= user_s + 1e-3
            assert 0 <= resources[key]["system_s"] <= system_s + 1e-3
            # the kernel splits a short run's CPU into user and system time
            # from tick samples, so only their sum is sure to be positive
            assert resources[key]["user_s"] + resources[key]["system_s"] > 0
        peaks.append(resources["parent"]["life_peak_rss_mb"])
    # the peak RSS is the process's, over its whole life
    assert 0 < peaks[0] <= peaks[1]
