"""Exhaustive capacity-driven layout search over all complete tilings.

The enumerator streams tilings while a worker pool evaluates each one
against the pre-assembled per-drop channels (assembled exactly once per
drop, never per tiling). Results merge in enumeration order, so the ledger
is deterministic regardless of worker count, and every row is appended to
disk as soon as it exists so long runs can resume. The pool also evaluates
the baseline and the best tilings: the parent only counts, streams, merges
and writes. Each worker holds the channel stack, the temporaries of one
evaluation and, when it fits TABLE_BUDGET_BYTES, a table of every
placement's aggregated channel columns, built after the fork; the parent
holds the stack and the search.
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
    from `_zero_force` when feasible."""
    ok, V, norms, power = _zero_force(H, sizes, condition_cap)
    drops, ports, columns = H.shape
    users = ports // 2
    if beams is None:
        beams = users

    if not bool(ok.all()):
        record = EvaluationRecord(
            tiling_index=tiling_index,
            tile_count=columns // 2,
            per_drop_sum_rates=np.full(drops, np.nan),
            average_sum_rate=float("nan"),
            eta_desired_w=np.full(ports, np.nan),
            min_desired_power_w=float("nan"),
            covered=False,
            feasible=False,
            drops_fingerprint=drops_key,
        )
        return record, None

    diagonal = np.einsum("paa->pa", power)
    per_beam_power = budget.tx_power_w / beams
    p_des = per_beam_power * diagonal
    p_mui = per_beam_power * (power.sum(axis=2) - diagonal)
    snr = p_des / (p_mui + budget.noise_power_w)
    port_capacity = np.log2(1.0 + snr)  # (P, A)

    per_drop = port_capacity.sum(axis=1)
    eta = p_des.min(axis=0)
    min_power = float(eta.min())
    record = EvaluationRecord(
        tiling_index=tiling_index,
        tile_count=columns // 2,
        per_drop_sum_rates=per_drop,
        average_sum_rate=float(per_drop.mean()),
        eta_desired_w=eta,
        min_desired_power_w=min_power,
        covered=bool(min_power >= budget.coverage_threshold_w),
        feasible=True,
        per_ue_capacities=port_capacity.reshape(drops, users, 2).sum(axis=2),
        drops_fingerprint=drops_key,
    )
    return record, (V, norms)


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
            rows.append(LedgerRow(int(t), float(cap), float(minp), cov == "1", feas == "1"))
        except ValueError as err:
            raise ValueError(f"malformed ledger line: {line!r}") from err
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

# Largest placement table a worker builds: 4.8 MB for 8x12 P (472
# placements) at 10 drops, 97 MB at 200 drops, which stay on the stack path.
TABLE_BUDGET_BYTES = 16 * 2**20


def _init_worker(G, budget, condition_cap, beams, cells, element_count, drops_key):
    # the table holds a (P, A) V and H column sum for each placement
    fits = 2 * len(cells) * G.columns[0].nbytes <= TABLE_BUDGET_BYTES
    _SHARED.update(
        G=G,
        table=placement_table(G, cells) if fits else None,
        placement_sizes=np.array([c.size for c in cells], dtype=float),
        budget=budget,
        condition_cap=condition_cap,
        beams=beams,
        cells=cells,
        element_count=element_count,
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
    """Stands in for the pool when the tasks run in this process; what
    they share is dropped on the way out, error or not."""
    _init_worker(*init_args)
    try:
        yield None
    finally:
        _SHARED.clear()


def _eval_task(task) -> LedgerRow:
    """One ledger row; with a placement table, the tiling's effective
    channels are one gather of its rows' column sums."""
    t, rows = task
    table = _SHARED["table"]
    if table is None:
        cover = _cover_from_rows(rows, _SHARED["cells"], _SHARED["element_count"])
        H, sizes = _aggregate(cover, _SHARED["G"])
    else:
        index = np.array(rows)
        H = np.take(table, index, axis=-1).reshape(*table.shape[:2], -1)
        sizes = np.tile(_SHARED["placement_sizes"][index], 2)
    return _record_to_row(t, _shared_score(H, sizes, t)[0])


def _record_task(task):
    """Evaluate one tiling: its record, and its (V, norms) or None."""
    cover, t, keep_precoders = task
    record, zf = _shared_score(*_aggregate(cover, _SHARED["G"]), t)
    return record, zf if keep_precoders else None


def _shared_score(H, sizes, t):
    """`_score` with the settings this process shares with its tasks."""
    return _score(
        H,
        sizes,
        _SHARED["budget"],
        _SHARED["beams"],
        _SHARED["condition_cap"],
        t,
        _SHARED["drops_key"],
    )


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
    channel_assemblies: int
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

    drops = sample_drops(cfg.scenario)
    stack = ChannelStack.fill(
        (assemble_channel(geometry, cfg.pattern, d, cfg.channel) for d in drops), len(drops)
    )
    drops_key = drops_fingerprint(drops)
    beams = cfg.scenario.users
    info(
        f"{len(placements)} placements on {aperture.columns}x{aperture.rows}; "
        f"{len(drops)} drops assembled ({cfg.channel.tag})"
    )

    # Resumed rows are trusted, not recomputed. Our writer emits rows in
    # enumeration order, so an interrupted ledger is a prefix of the strided
    # sequence, and the stream restarts right after its last row. The checks
    # run before the pool forks, and a refused ledger is left untouched.
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
    # Without a pool the same tasks run here, in the same order.
    workers = cfg.workers or os.cpu_count() or 1
    init_args = (stack, budget, cfg.zf_condition_cap, beams, cells, aperture.size, drops_key)
    if workers > 1:
        pool_scope = get_context("fork").Pool(workers, _init_pool_worker, init_args)
    else:
        pool_scope = _in_process(init_args)

    with pool_scope as pool:

        def submit(cover: AggregationVector, t: int, keep_precoders: bool = False):
            """Start a _record_task, or run it here without a pool; return
            the call that waits for its (record, precoders)."""
            task = (cover, t, keep_precoders)
            if pool is None:
                result = _record_task(task)
                return lambda: result
            return pool.apply_async(_record_task, (task,)).get

        baseline_cover = baseline_tiling(aperture) if aperture.rows % 6 == 0 else None
        baseline_result = None if baseline_cover is None else submit(baseline_cover, 0)

        total = search.count()
        tasks = len(range(first_t, total + 1, stride))
        resumed = f"; resuming at t={first_t}" if existing_rows else ""
        info(f"{total} tilings, {tasks} to evaluate (stride {stride}){resumed}")
        task_iter = search.stream(first_t, stride)

        # the ledger header records the baseline capacity, "none" when the
        # baseline is missing or infeasible
        baseline_record = None if baseline_result is None else baseline_result()[0]
        baseline_ok = baseline_record is not None and baseline_record.feasible
        ledger_scope = (
            open(ledger_path, "a" if existing_rows else "w") if ledger_path else nullcontext()
        )
        with ledger_scope as ledger_fh:
            if ledger_fh and not existing_rows:
                # read here: the package __init__ imports this module before
                # it sets __version__
                from . import __version__

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
                        # ZF results depend bit for bit on the numpy/LAPACK build
                        "apertile_version": __version__,
                        "numpy_version": np.__version__,
                    },
                )
            if pool is None:
                consume(map(_eval_task, task_iter), tasks, ledger_fh)
            else:
                # small enough that every worker gets about four chunks
                chunksize = max(1, min(64, math.ceil(tasks / (4 * workers))))
                consume(pool.imap(_eval_task, task_iter, chunksize=chunksize), tasks, ledger_fh)

        # rows are in ascending t and max keeps the first of equal
        # capacities, which realizes the lowest-index tie-break
        scored = [r for r in all_rows if r.feasible and math.isfinite(r.capacity_bps_hz)]
        capacity = attrgetter("capacity_bps_hz")
        best_row = max((r for r in scored if r.covered), key=capacity, default=None)
        best_any_row = max(scored, key=capacity, default=None)

        def cover_of(row: LedgerRow) -> AggregationVector:
            # looked up by index in the memo that the count filled
            return _cover_from_rows(_rows_by_index(search, row.tiling_index), cells, aperture.size)

        # each distinct best tiling is evaluated once, the two in parallel;
        # the precoders come from the same pass (best_any_row is None only
        # when best_row is: a covered row is feasible)
        best_cover = best_any_cover = best_result = best_any_result = None
        if best_row is not None:
            best_cover = cover_of(best_row)
            best_result = submit(best_cover, best_row.tiling_index, keep_precoders=True)
        if best_any_row is not best_row:
            best_any_cover = cover_of(best_any_row)
            best_any_result = submit(best_any_cover, best_any_row.tiling_index)

        best_record, zf = (None, None) if best_result is None else best_result()
        best_precoders = None if zf is None else _precoders(*zf)
        if best_any_result is None:
            best_any_cover, best_any_record = best_cover, best_record
        else:
            best_any_record = best_any_result()[0]

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
        channel_assemblies=len(drops),
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
