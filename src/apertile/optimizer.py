"""Exhaustive capacity-driven layout search over all complete tilings.

The enumerator streams tilings while a worker pool evaluates each one
against the pre-assembled per-drop channels (assembled exactly once per
drop, never per tiling). Results merge in enumeration order, so the ledger
is deterministic regardless of worker count. Each row is written to the
ledger as it merges, through Python's file buffer rather than flushed, so
a long run resumes from the rows that reached the file. Every evaluation
is one task over rows of `cells`, the placements' pixel sets followed by
the baseline's tiles: ledger rows, the baseline and the best tilings alike.
The pool runs them all; the parent only counts, streams, merges and
writes. Each worker holds the channel stack, the temporaries of one
evaluation and, when it fits TABLE_BUDGET_BYTES, the table of every set's
aggregated channel columns, built after the fork; the parent holds the
stack and the search.
"""

from __future__ import annotations

import math
import os
import signal
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from multiprocessing import get_context
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .channel import (
    ChannelStack,
    LinkBudget,
    aggregate_channel,
    assemble_channel,
    placement_table,
)
from .config import RunConfig
from .metrics import EvaluationRecord, eta_statistics
from .precoding import ChannelRankError, PrecodingMatrix, _precoders, _zero_force
from .scenario import UEDrop, drops_fingerprint, sample_drops
from .tiling import (
    AggregationVector,
    _cover_from_rows,
    _CoverSearch,
    baseline_tiling,
    build_incidence_matrix,
    generate_placements,
)
from .units import watts_to_dbm


def _check_channels(channels) -> None:
    """Refuse channels that are neither a ChannelStack nor a (P, 2U, 2MN) array."""
    if not isinstance(channels, ChannelStack) and np.ndim(channels) != 3:
        raise ValueError("channels must be a ChannelStack or a (P, 2U, 2MN) array")


def evaluate_tiling(
    cover: AggregationVector,
    channels,
    budget: LinkBudget,
    *,
    beams: int | None = None,
    condition_cap: float = 1e8,
    tiling_index: int = 0,
    drops_key: str | None = None,
) -> EvaluationRecord:
    """Aggregate, zero-force, normalize, and score one tiling on all drops.

    `channels` is a ChannelStack or a (P, 2U, 2MN) array. A rank-deficient
    or too-ill-conditioned drop makes the whole record infeasible (capacity
    NaN) instead of contributing numerical noise.
    """
    _check_channels(channels)
    H, sizes = _aggregate(cover, channels)
    return _score(H, sizes, budget, beams, condition_cap, tiling_index, drops_key)[0]


def _aggregate(cover, channels):
    """The (P, A, 2Q) effective channels of one tiling, and the (2Q,) tile
    sizes that weight `_zero_force`'s norms."""
    # called through this module's global, which perfbench's tracer wraps
    H = aggregate_channel(channels, cover)
    return H, np.tile(cover.tile_sizes(), 2).astype(float)


def _score(H, sizes, budget, beams, condition_cap, tiling_index, drops_key):
    """evaluate_tiling's record for effective channels H, plus (V, norms)
    from `_zero_force` when feasible. An infeasible record has NaN rates
    and powers and no per-UE capacities."""
    ok, V, norms, power = _zero_force(H, sizes, condition_cap)
    drops, ports, columns = H.shape
    users = ports // 2
    feasible = bool(ok.all())
    if feasible:
        diagonal = np.einsum("paa->pa", power)
        per_beam_power = budget.tx_power_w / (users if beams is None else beams)
        p_des = per_beam_power * diagonal
        p_mui = per_beam_power * (power.sum(axis=2) - diagonal)
        snr = p_des / (p_mui + budget.noise_power_w)
        port_capacity = np.log2(1.0 + snr)  # (P, A)
        per_drop = port_capacity.sum(axis=1)
        eta = p_des.min(axis=0)
        per_ue = port_capacity.reshape(drops, users, 2).sum(axis=2)
    else:
        per_drop, eta, per_ue = np.full(drops, np.nan), np.full(ports, np.nan), None
    min_power = float(eta.min())
    record = EvaluationRecord(
        tiling_index=tiling_index,
        tile_count=columns // 2,
        per_drop_sum_rates=per_drop,
        average_sum_rate=float(per_drop.mean()),
        eta_desired_w=eta,
        min_desired_power_w=min_power,
        covered=feasible and bool(min_power >= budget.coverage_threshold_w),
        feasible=feasible,
        per_ue_capacities=per_ue,
        drops_fingerprint=drops_key,
    )
    return record, ((V, norms) if feasible else None)


def tiling_precoders(
    cover: AggregationVector,
    channels,
    condition_cap: float = 1e8,
) -> list[PrecodingMatrix]:
    """Normalized per-drop precoders for one tiling (replay/debug export).

    `channels` is a ChannelStack or a (P, 2U, 2MN) array. Raises
    ChannelRankError when a drop is rank deficient or over the cap.
    """
    _check_channels(channels)
    ok, V, norms, _ = _zero_force(*_aggregate(cover, channels), condition_cap)
    if not ok.all():
        raise ChannelRankError(
            f"drop {int(np.argmin(ok))} is rank deficient or over the condition "
            f"cap {condition_cap:.3e}"
        )
    return _precoders(V, norms)


# --- ledger ---------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRow:
    tiling_index: int
    capacity_bps_hz: float
    min_power_dbm: float
    covered: bool
    feasible: bool


LEDGER_COLUMNS = "t,capacity_bps_hz,min_power_dbm,coverage,feasible"


def _format_row(row: LedgerRow) -> str:
    # repr round-trips floats exactly, so resumed ledgers reload losslessly
    return (
        f"{row.tiling_index},{row.capacity_bps_hz!r},{row.min_power_dbm!r},"
        f"{int(row.covered)},{int(row.feasible)}"
    )


def _record_to_row(t: int, record: EvaluationRecord) -> LedgerRow:
    if record.feasible:
        with np.errstate(divide="ignore"):
            min_dbm = float(watts_to_dbm(record.min_desired_power_w))
    else:
        min_dbm = float("nan")
    return LedgerRow(
        tiling_index=t,
        capacity_bps_hz=record.average_sum_rate,
        min_power_dbm=min_dbm,
        covered=record.covered,
        feasible=record.feasible,
    )


def write_ledger_header(fh, meta: dict) -> None:
    fh.write("# apertile ledger v1\n")
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    fh.write(LEDGER_COLUMNS + "\n")


def read_ledger(path) -> tuple[dict, list[LedgerRow]]:
    with open(path) as fh:
        return _parse_ledger(fh)


def _parse_ledger(lines) -> tuple[dict, list[LedgerRow]]:
    meta: dict[str, str] = {}
    rows: list[LedgerRow] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if line == LEDGER_COLUMNS:
            continue
        fields = line.split(",")
        if len(fields) != 5 or fields[3] not in ("0", "1") or fields[4] not in ("0", "1"):
            raise ValueError(f"malformed ledger line: {line!r}")
        t, cap, minp, cov, feas = fields
        try:
            row = LedgerRow(int(t), float(cap), float(minp), cov == "1", feas == "1")
        except ValueError as err:
            raise ValueError(f"malformed ledger line: {line!r}") from err
        # the flags must agree with the numbers: a feasible row has a
        # capacity, an infeasible one is uncovered and all NaN
        if row.feasible:
            consistent = not math.isnan(row.capacity_bps_hz)
        else:
            numbers = (row.capacity_bps_hz, row.min_power_dbm)
            consistent = not row.covered and all(map(math.isnan, numbers))
        if not consistent:
            raise ValueError(f"malformed ledger line: {line!r}")
        rows.append(row)
    return meta, rows


def summarize_ledger(rows: list[LedgerRow], baseline_capacity: float | None = None) -> dict:
    """min/max/avg/var of capacity and min power, plus baseline comparison."""
    if not rows:
        raise ValueError("empty ledger")
    caps = np.array([r.capacity_bps_hz for r in rows])
    pows = np.array([r.min_power_dbm for r in rows])
    finite = np.isfinite(caps)
    if not finite.any():
        raise ValueError("no feasible rows in ledger")
    caps_f = caps[finite]
    pows_f = pows[np.isfinite(pows)]
    out = {
        "rows": len(rows),
        "feasible_rows": int(finite.sum()),
        "coverage_fraction": float(np.mean([r.covered for r in rows])),
        "capacity": {
            "min": float(caps_f.min()),
            "max": float(caps_f.max()),
            "avg": float(caps_f.mean()),
            "var": float(caps_f.var()),
        },
        "min_power_dbm": {
            "min": float(pows_f.min()),
            "max": float(pows_f.max()),
            "avg": float(pows_f.mean()),
            "var": float(pows_f.var()),
        },
    }
    if baseline_capacity is not None:
        out["baseline_capacity_bps_hz"] = float(baseline_capacity)
        out["beating_baseline"], out["beating_fraction"] = _beating(rows, baseline_capacity)
    return out


def _beating(rows: list[LedgerRow], capacity: float) -> tuple[int, float]:
    """How many rows have a finite capacity above `capacity`, and their share of all rows."""
    caps = np.array([r.capacity_bps_hz for r in rows])
    count = int(np.sum(caps[np.isfinite(caps)] > capacity))
    return count, count / len(rows)


# --- baseline comparison ---------------------------------------------------

@dataclass(frozen=True)
class BaselineComparison:
    delta: float  # (best - baseline) / baseline
    beating_count: int
    beating_fraction: float


def compare_to_baseline(
    record: EvaluationRecord,
    baseline: EvaluationRecord,
    ledger: list[LedgerRow] | None = None,
) -> BaselineComparison:
    """Relative capacity gain of `record` plus how many tilings beat baseline."""
    if (
        record.drops_fingerprint is not None
        and baseline.drops_fingerprint is not None
        and record.drops_fingerprint != baseline.drops_fingerprint
    ):
        raise ValueError("records were evaluated on different drop sets")
    if len(record.per_drop_sum_rates) != len(baseline.per_drop_sum_rates):
        raise ValueError("records cover different drop counts")
    delta = (record.average_sum_rate - baseline.average_sum_rate) / baseline.average_sum_rate
    count, fraction = _beating(ledger, baseline.average_sum_rate) if ledger else (0, 0.0)
    return BaselineComparison(delta=delta, beating_count=count, beating_fraction=fraction)


# --- worker pool -----------------------------------------------------------

_SHARED: dict = {}

# Largest placement table a worker builds: 5.0 MB for 8x12 P (472
# placements and the baseline's 16 tiles) at 10 drops, 100 MB at 200 drops,
# which stay on the stack path. Up to 33 drops fit on 8x12 P.
TABLE_BUDGET_BYTES = 16 * 2**20


def _init_worker(G, budget, condition_cap, cells, drops_key):
    # the table holds a (P, A) V and H column sum for each set in cells
    fits = 2 * len(cells) * G.columns[0].nbytes <= TABLE_BUDGET_BYTES
    _SHARED.update(
        G=G,
        table=placement_table(G, cells) if fits else None,
        set_sizes=np.array([c.size for c in cells], dtype=float),
        budget=budget,
        condition_cap=condition_cap,
        cells=cells,
        drops_key=drops_key,
    )


def _init_pool_worker(*init_args):
    # A fork worker inherits its parent's SIGTERM handler, and Pool.terminate
    # stops workers with SIGTERM. A Python handler that is still pending when
    # the worker blocks on the task-queue lock (which terminate holds) never
    # runs, so the worker never exits and the pool's join hangs.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _init_worker(*init_args)


@contextmanager
def _in_process(init_args):
    """Stands in for the pool when the tasks run in this process, in order;
    what they share is dropped on the way out, error or not."""
    _init_worker(*init_args)
    try:
        yield SimpleNamespace(imap=lambda task, tasks, chunksize=1: map(task, tasks))
    finally:
        _SHARED.clear()


def _eval_task(task):
    """Evaluate tiling t, given as rows of `cells` in tile-id order: its
    record, and its (V, norms) when feasible. Its effective channels are
    its rows' columns of the placement table or, with no table, a table of
    just those sets built from the stack."""
    t, rows = task
    s = _SHARED
    index = np.array(rows)
    if s["table"] is None:
        by_tile = placement_table(s["G"], [s["cells"][k] for k in rows])
    else:
        by_tile = np.take(s["table"], index, axis=-1)
    H = by_tile.reshape(*by_tile.shape[:-2], -1)
    sizes = np.tile(s["set_sizes"][index], 2)
    return _score(H, sizes, s["budget"], None, s["condition_cap"], t, s["drops_key"])


def _ledger_task(task) -> LedgerRow:
    """`_eval_task` as a ledger row; the beams stay in the worker."""
    return _record_to_row(task[0], _eval_task(task)[0])


# --- optimization ----------------------------------------------------------

PROGRESS_EVERY = 10000  # evaluated tilings between progress lines

@dataclass
class OptimizationResult:
    config_hash: str
    seed: int
    channel_mode: str
    total_tilings: int
    evaluated_tilings: int
    exhaustive: bool
    feasible: bool
    best: EvaluationRecord | None
    best_cover: AggregationVector | None
    best_precoders: list[PrecodingMatrix] | None
    best_unconstrained: EvaluationRecord | None
    best_unconstrained_cover: AggregationVector | None
    baseline: EvaluationRecord | None
    baseline_cover: AggregationVector | None
    comparison: BaselineComparison | None
    ledger: list[LedgerRow]
    drops: list[UEDrop]
    elapsed_s: float


def _rows_by_index(search: _CoverSearch, target: int) -> tuple[int, ...]:
    for _t, rows in search.stream(start=target):
        return rows
    raise ValueError(f"tiling index {target} beyond enumeration")


def _resume_point(rows: list[LedgerRow], stride: int) -> int:
    """Index of the next tiling after a ledger's rows t = 1, 1+s, 1+2s, ..."""
    expected = range(1, 1 + stride * len(rows), stride)
    for row, t in zip(rows, expected):
        if row.tiling_index != t:
            raise ValueError(
                f"cannot resume: ledger row t={row.tiling_index} where t={t} was "
                f"expected (rows must be t = 1, 1+{stride}, 1+{2 * stride}, ...)"
            )
    return 1 + stride * len(rows)


def optimize(
    cfg: RunConfig,
    *,
    ledger_path=None,
    resume: bool = False,
    log: Callable[[str], None] | None = None,
) -> OptimizationResult:
    """Stream every tiling, evaluate, and select the constrained argmax.

    The best tiling maximizes the drop-averaged sum rate among tilings that
    pass the coverage floor; ties break toward the lowest enumeration
    index. When no tiling passes, the result is marked infeasible and
    carries the unconstrained best for diagnosis.
    """
    start = time.perf_counter()
    cfg.validate()
    info = log or (lambda _msg: None)

    aperture = cfg.aperture_grid()
    geometry = cfg.geometry()
    budget = cfg.link_budget()
    placements = generate_placements(aperture, cfg.shapes())
    L = build_incidence_matrix(placements, aperture)
    search = _CoverSearch(L)
    cells = [np.array(p, dtype=np.intp) - 1 for p in L.rows]
    # the baseline's tiles follow the placements in cells, so that it is
    # evaluated as rows of the same table
    baseline_cover = baseline_tiling(aperture) if aperture.rows % 6 == 0 else None
    baseline_tasks = []
    if baseline_cover is not None:
        baseline_tasks = [(0, tuple(range(len(cells), len(cells) + baseline_cover.tile_count)))]
        cells += baseline_cover.tile_cells()

    drops = sample_drops(cfg.scenario)
    stack = ChannelStack.fill(
        (assemble_channel(geometry, cfg.pattern, d, cfg.channel) for d in drops), len(drops)
    )
    drops_key = drops_fingerprint(drops)
    info(
        f"{len(placements)} placements on {aperture.columns}x{aperture.rows}; "
        f"{len(drops)} drops assembled ({cfg.channel.tag})"
    )

    # read here: the package __init__ imports this module before it sets
    # __version__. ZF results depend bit for bit on the numpy/LAPACK build.
    from . import __version__

    versions = {"apertile_version": __version__, "numpy_version": np.__version__}

    # Resumed rows are trusted, not recomputed. Our writer emits rows in
    # enumeration order, so an interrupted ledger is a prefix of the strided
    # sequence, and the stream restarts right after its last row. The checks
    # run before the pool forks, and a refused ledger is left untouched; a
    # ledger written under other versions is resumed, and the log says so.
    stride = cfg.tiling_stride
    existing_rows: list[LedgerRow] = []
    data = b""
    complete = 0  # bytes of the ledger up to its last newline
    if resume and ledger_path and os.path.exists(ledger_path):
        with open(ledger_path, "rb") as fh:
            data = fh.read()
        complete = data.rfind(b"\n") + 1
        meta, existing_rows = _parse_ledger(data[:complete].decode().splitlines())
        # rows count only under this config's hash; an empty file, or one
        # cut inside its header, has no rows and is written again
        written_by = meta.get("config_hash")
        if (existing_rows or written_by is not None) and written_by != cfg.config_hash():
            raise ValueError("existing ledger was written by a different config")
        moved = [
            f"{key} {meta.get(key, 'unrecorded')} (running {value})"
            for key, value in versions.items()
            if meta.get(key) != value
        ]
        if existing_rows and moved:
            info(
                f"{ledger_path} was written with {', '.join(moved)}; "
                "resumed and new rows may differ in their last bits"
            )
    first_t = _resume_point(existing_rows, stride)
    if complete < len(data):
        # a line cut mid-write; a cut row is evaluated again
        os.truncate(ledger_path, complete)
        info(f"dropped the unterminated last line of {ledger_path} ({len(data) - complete} bytes)")

    all_rows = list(existing_rows)

    def consume(result_iter, tasks: int, ledger_fh):
        started = time.perf_counter()
        for done, row in enumerate(result_iter, 1):
            all_rows.append(row)
            if ledger_fh:
                ledger_fh.write(_format_row(row) + "\n")
            if done % PROGRESS_EVERY == 0:
                rate = done / (time.perf_counter() - started)
                info(
                    f"evaluated {done} of {tasks} tilings "
                    f"({rate:.4g} tilings/s, ETA {(tasks - done) / rate:.0f} s)"
                )

    # Every evaluation runs in the pool, forked once the stack exists (and
    # before the count fills the memo, which the workers do not need).
    # Without a pool the same tasks run here, each when its result is read.
    workers = cfg.workers or os.cpu_count() or 1
    init_args = (stack, budget, cfg.zf_condition_cap, cells, drops_key)
    if workers > 1:
        pool_scope = get_context("fork").Pool(workers, _init_pool_worker, init_args)
    else:
        pool_scope = _in_process(init_args)

    with pool_scope as pool:
        baseline_result = pool.imap(_eval_task, baseline_tasks)
        total = search.count()
        tasks = len(range(first_t, total + 1, stride))
        resumed = f"; resuming at t={first_t}" if existing_rows else ""
        info(f"{total} tilings, {tasks} to evaluate (stride {stride}){resumed}")
        task_iter = search.stream(first_t, stride)

        # the ledger header records the baseline capacity, "none" when the
        # baseline is missing or infeasible
        baseline_record = next((record for record, _ in baseline_result), None)
        baseline_ok = baseline_record is not None and baseline_record.feasible
        ledger_scope = (
            open(ledger_path, "a" if existing_rows else "w") if ledger_path else nullcontext()
        )
        with ledger_scope as ledger_fh:
            if ledger_fh and not existing_rows:
                write_ledger_header(
                    ledger_fh,
                    {
                        "config_hash": cfg.config_hash(),
                        "seed": cfg.scenario.seed,
                        "channel_mode": cfg.channel.tag,
                        "aperture": f"{aperture.columns}x{aperture.rows}",
                        "alphabet": cfg.alphabet_file or cfg.alphabet,
                        "stride": cfg.tiling_stride,
                        "drops_fingerprint": drops_key,
                        "baseline_capacity_bps_hz": (
                            repr(baseline_record.average_sum_rate) if baseline_ok else "none"
                        ),
                        **versions,
                    },
                )
            # small enough that every worker gets about four chunks
            chunksize = max(1, min(64, math.ceil(tasks / (4 * workers))))
            consume(pool.imap(_ledger_task, task_iter, chunksize=chunksize), tasks, ledger_fh)

        # rows are in ascending t and max keeps the first of equal
        # capacities, which realizes the lowest-index tie-break
        scored = [r for r in all_rows if r.feasible and math.isfinite(r.capacity_bps_hz)]
        capacity = attrgetter("capacity_bps_hz")
        best_row = max((r for r in scored if r.covered), key=capacity, default=None)
        best_any_row = max(scored, key=capacity, default=None)

        # each distinct best tiling is evaluated once, the two in parallel,
        # its rows looked up by index in the memo that the count filled
        best_ts = {r.tiling_index for r in (best_row, best_any_row) if r is not None}
        picks = {t: _rows_by_index(search, t) for t in sorted(best_ts)}
        evaluated = dict(zip(picks, pool.imap(_eval_task, picks.items())))

    def pick(row: LedgerRow | None):
        """A best row's record, (V, norms) and cover, or three Nones."""
        if row is None:
            return None, None, None
        record, zf = evaluated[row.tiling_index]
        return record, zf, _cover_from_rows(picks[row.tiling_index], cells, aperture.size)

    # the precoders come from the same pass
    best_record, zf, best_cover = pick(best_row)
    best_any_record, _, best_any_cover = pick(best_any_row)
    best_precoders = None if zf is None else _precoders(*zf)

    comparison = None
    if best_record is not None and baseline_ok:
        comparison = compare_to_baseline(best_record, baseline_record, all_rows)

    best_text = f"{best_row.capacity_bps_hz:.6g} bps/Hz" if best_row else "none"
    info(f"done: {len(all_rows)} tilings evaluated, best covered capacity {best_text}")
    return OptimizationResult(
        config_hash=cfg.config_hash(),
        seed=cfg.scenario.seed,
        channel_mode=cfg.channel.tag,
        total_tilings=total,
        evaluated_tilings=len(all_rows),
        exhaustive=cfg.tiling_stride == 1,
        feasible=best_row is not None,
        best=best_record,
        best_cover=best_cover,
        best_precoders=best_precoders,
        best_unconstrained=best_any_record,
        best_unconstrained_cover=best_any_cover,
        baseline=baseline_record,
        baseline_cover=baseline_cover,
        comparison=comparison,
        ledger=all_rows,
        drops=drops,
        elapsed_s=time.perf_counter() - start,
    )


def result_to_json(result: OptimizationResult, cfg: RunConfig) -> dict:
    """Portable summary of an optimization run (grids, stats, provenance)."""

    def record_doc(record: EvaluationRecord | None, cover: AggregationVector | None):
        if record is None:
            return None
        with np.errstate(divide="ignore"):
            doc = {
                "tiling_index": record.tiling_index,
                "capacity_bps_hz": record.average_sum_rate if record.feasible else None,
                "min_power_dbm": float(watts_to_dbm(record.min_desired_power_w))
                if record.feasible
                else None,
                "covered": record.covered,
                "feasible": record.feasible,
            }
            if record.feasible:
                doc["eta_dbm"] = eta_statistics(record.eta_desired_dbm())
        if cover is not None:
            doc["tile_count"] = cover.tile_count
            doc["values_row_major"] = np.asarray(cover.values).tolist()
        return doc

    return {
        "config_hash": result.config_hash,
        "seed": result.seed,
        "channel_mode": result.channel_mode,
        "aperture": {"columns": cfg.aperture.columns, "rows": cfg.aperture.rows},
        "alphabet": cfg.alphabet_file or cfg.alphabet,
        "total_tilings": result.total_tilings,
        "evaluated_tilings": result.evaluated_tilings,
        "exhaustive": result.exhaustive,
        "feasible": result.feasible,
        "elapsed_s": result.elapsed_s,
        "best": record_doc(result.best, result.best_cover),
        "best_unconstrained": record_doc(
            result.best_unconstrained, result.best_unconstrained_cover
        ),
        "baseline": record_doc(result.baseline, result.baseline_cover),
        "comparison": None
        if result.comparison is None
        else {
            "delta_pct": 100.0 * result.comparison.delta,
            "beating_count": result.comparison.beating_count,
            "beating_fraction": result.comparison.beating_fraction,
        },
    }
