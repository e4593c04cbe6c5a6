"""Exhaustive capacity-driven layout search over all complete tilings.

The enumerator streams tilings while a worker pool evaluates each one
against the pre-assembled per-drop channels (assembled exactly once per
drop in each evaluating process, never per tiling). Results merge in
enumeration order, so the ledger is deterministic regardless of worker
count. Each row is written to the ledger and folded into running aggregates
(count, best rows, rows beating the baseline) as it merges: the file is the
only copy of the rows. It is flushed after every pool chunk, so a killed run
resumes from the whole chunks it wrote, and synced every FSYNC_EVERY_S. Every
evaluation is one task over rows of `cells`, the placements' pixel sets and
then the baseline's tiles: ledger rows, the baseline and the best tilings
alike. Each, like `evaluate_tiling`, is scored and recorded by one loop,
`_evaluate`, over drop blocks. The pool runs them all, and the worker that
scores the best covered tiling writes its precoders one drop block at a
time; the parent samples the drops, counts, streams, merges and writes
the ledger, and never builds a channel stack, holds a beam or keeps a row.
Each worker assembles its own stack while the parent counts, keeping each
drop's channel as its two factors, the (MN, P, U) base and the 2x2 slant
coupling. It holds that stack, the temporaries of one block of
DROP_BLOCK_BYTES (heap blocks it reuses from tiling to tiling, see
`_pin_heap`) and, when it fits TABLE_BUDGET_BYTES, the placement-major
table of every set's aggregated channel columns, built in place.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import sys
import time
from array import array
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .channel import (
    ChannelStack, LinkBudget, aggregate_channel, effective_channels, placement_table
)
from .config import RunConfig
from .metrics import EvaluationRecord, eta_statistics
from .precoding import ChannelRankError, PrecodingMatrix, _precoder_file, _precoders, _zero_force
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
    H, sizes = _aggregate(cover, channels)
    return _evaluate([H], len(H), sizes, budget, beams, condition_cap, tiling_index, drops_key)


def _aggregate(cover, channels):
    """The (P, A, 2Q) effective channels of one tiling, and the (2Q,) tile
    sizes that weight `_zero_force`'s norms."""
    if not isinstance(channels, ChannelStack) and np.ndim(channels) != 3:
        raise ValueError("channels must be a ChannelStack or a (P, 2U, 2MN) array")
    # called through this module's global, which perfbench's tracer wraps
    H = aggregate_channel(channels, cover)
    sizes = cover.tile_sizes().astype(float)
    return H, np.concatenate((sizes, sizes))


def _evaluate(
    blocks, drops, sizes, budget, beams, condition_cap, tiling_index, drops_key, write=None
):
    """The one record of a tiling, scored on its effective channels given
    as consecutive (b, A, 2Q) blocks of its `drops` drops, each block as
    its own batch: per-drop values are each drop's own, and the per-port
    minimum desired power runs over the blocks. `write`, if given, takes
    each block's normalized precoders. The first block with a drop over
    the cap, or whose `solve` meets an exactly singular Gram matrix, ends
    the loop with the infeasible record (NaN rates and powers, no per-UE
    capacities), and neither it nor a later block is written."""
    rates, capacities, eta = [], [], None
    for H in blocks:
        try:
            ok, V, norms, power = _zero_force(H, sizes, condition_cap)
        except np.linalg.LinAlgError:
            ok = np.zeros(1, bool)
        if not ok.all():
            rates, capacities, eta = [np.full(drops, np.nan)], None, np.full(H.shape[1], np.nan)
            break
        users = H.shape[1] // 2
        diagonal = np.einsum("paa->pa", power)
        per_beam_power = budget.tx_power_w / (users if beams is None else beams)
        p_des = per_beam_power * diagonal
        # log2(1 + p_des / (p_mui + noise)) in one array
        port_capacity = power.sum(axis=2)
        port_capacity -= diagonal
        port_capacity *= per_beam_power
        port_capacity += budget.noise_power_w
        np.divide(p_des, port_capacity, out=port_capacity)
        port_capacity += 1.0
        np.log2(port_capacity, out=port_capacity)  # (b, A)
        rates.append(port_capacity.sum(axis=1))
        capacities.append(port_capacity.reshape(-1, users, 2).sum(axis=2))
        block_eta = p_des.min(axis=0)
        eta = block_eta if eta is None else np.minimum(eta, block_eta)
        if write:
            write(_precoders(V, norms))
        del power, diagonal  # so the next block's zero forcing does not hold them too
    per_drop = np.concatenate(rates)
    min_power = float(eta.min())
    feasible = capacities is not None
    return EvaluationRecord(
        tiling_index=tiling_index,
        per_drop_sum_rates=per_drop,
        average_sum_rate=float(per_drop.sum()) / drops,
        eta_desired_w=eta,
        min_desired_power_w=min_power,
        covered=feasible and bool(min_power >= budget.coverage_threshold_w),
        feasible=feasible,
        per_ue_capacities=np.concatenate(capacities) if feasible else None,
        drops_fingerprint=drops_key,
    )


def tiling_precoders(
    cover: AggregationVector,
    channels,
    condition_cap: float = 1e8,
) -> list[PrecodingMatrix]:
    """Normalized per-drop precoders for one tiling (replay/debug export).

    `channels` is a ChannelStack or a (P, 2U, 2MN) array. Raises
    ChannelRankError when a drop is rank deficient or over the cap.
    """
    ok, V, norms, _ = _zero_force(*_aggregate(cover, channels), condition_cap)
    if not ok.all():
        raise ChannelRankError(
            f"drop {int(np.argmin(ok))} is rank deficient or over the condition "
            f"cap {condition_cap:.3e}"
        )
    return _precoders(V, norms)


# --- ledger ---------------------------------------------------------------

class LedgerRow(NamedTuple):
    tiling_index: int
    capacity_bps_hz: float
    min_power_dbm: float
    covered: bool
    feasible: bool


LEDGER_COLUMNS = "t,capacity_bps_hz,min_power_dbm,coverage,feasible"
# %r round-trips floats exactly, so resumed ledgers reload losslessly
_ROW_FORMAT = "%d,%r,%r,%d,%d\n"


def write_ledger_header(fh, meta: dict) -> None:
    fh.write("# apertile ledger v1\n")
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    fh.write(LEDGER_COLUMNS + "\n")


def read_ledger(path) -> tuple[dict, list[LedgerRow]]:
    meta: dict[str, str] = {}
    with open(path) as fh:
        return meta, list(_parse_ledger(fh, meta))


def _parse_ledger(lines, meta: dict) -> Iterator[LedgerRow]:
    """The rows of ledger lines as they are read; header key=value lines go into meta."""
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
        yield row


def summarize_ledger(rows, baseline_capacity: float | None = None) -> dict:
    """min/max/avg/var of capacity and min power, plus baseline comparison,
    of any iterable of rows; only their finite numbers are kept."""
    caps, pows, count, covered = array("d"), array("d"), 0, 0
    for _t, capacity, dbm, cov, _feasible in rows:
        count += 1
        covered += cov
        if math.isfinite(capacity):
            caps.append(capacity)
        if math.isfinite(dbm):
            pows.append(dbm)
    if not count:
        raise ValueError("empty ledger")
    if not caps:
        raise ValueError("no feasible rows in ledger")
    caps_f, pows_f = np.frombuffer(caps), np.frombuffer(pows)
    reductions = {"min": np.min, "max": np.max, "avg": np.mean, "var": np.var}
    out = {
        "rows": count,
        "feasible_rows": len(caps),
        "coverage_fraction": covered / count,
        "capacity": {key: float(f(caps_f)) for key, f in reductions.items()},
        "min_power_dbm": {key: float(f(pows_f)) for key, f in reductions.items()},
    }
    if baseline_capacity is not None:
        beating = int(np.sum(caps_f > baseline_capacity))
        out["baseline_capacity_bps_hz"] = float(baseline_capacity)
        out["beating_baseline"], out["beating_fraction"] = beating, beating / count
    return out


class _Fold:
    """Running aggregates of ledger rows merged in ascending t: their count,
    how many have a capacity above `baseline` (inf for none), and the best
    covered and unconstrained rows. Only a higher capacity replaces a best,
    so ties keep the lowest t."""

    def __init__(self, baseline: float):
        self.baseline, self.rows, self.beating = baseline, 0, 0
        self.best = self.best_any = None

    def add(self, row) -> None:
        _t, capacity, _dbm, covered, _feasible = row
        self.rows += 1
        if math.isfinite(capacity):  # an infeasible row's capacity is nan
            self.beating += capacity > self.baseline
            if self.best_any is None or capacity > self.best_any[1]:
                self.best_any = row
            if covered and (self.best is None or capacity > self.best[1]):
                self.best = row


# --- baseline comparison ---------------------------------------------------

@dataclass(frozen=True)
class BaselineComparison:
    delta: float  # (best - baseline) / baseline
    beating_count: int
    beating_fraction: float


def compare_to_baseline(
    record: EvaluationRecord,
    baseline: EvaluationRecord,
    beating_count: int = 0,
    evaluated: int = 0,
) -> BaselineComparison:
    """Relative capacity gain of `record`; `beating_count` of `evaluated` tilings beat baseline."""
    if (
        record.drops_fingerprint is not None
        and baseline.drops_fingerprint is not None
        and record.drops_fingerprint != baseline.drops_fingerprint
    ):
        raise ValueError("records were evaluated on different drop sets")
    if len(record.per_drop_sum_rates) != len(baseline.per_drop_sum_rates):
        raise ValueError("records cover different drop counts")
    delta = (record.average_sum_rate - baseline.average_sum_rate) / baseline.average_sum_rate
    fraction = beating_count / evaluated if evaluated else 0.0
    return BaselineComparison(delta=delta, beating_count=beating_count, beating_fraction=fraction)


# --- worker pool -----------------------------------------------------------

_SHARED: dict = {}

# Largest placement table a worker builds: 5.0 MB for 8x12 P (472
# placements and the baseline's 16 tiles) at 10 drops, 100 MB at 200 drops,
# which stay on the stack path. Up to 33 drops fit on 8x12 P. Built in
# place, with no transposed copy, it leaves a 10-drop worker near 36 MB,
# below the parent. It comes from the heap (see _pin_heap) when it is below
# HEAP_BLOCK_BYTES. A task reads it one drop block at a time.
TABLE_BUDGET_BYTES = 16 * 2**20

# Size of one (b, A, 2Q) complex array of a task's drop block, which sets
# the block's b drops: 25 for 16 users and 16 tiles. An evaluation's
# temporaries are a few such arrays, so they stay the same from 25 drops
# up: on 8x12 P a no-table task peaks at 3.5 MB (tracemalloc) at 256
# drops, where one pass over every drop took 31.5 MB.
DROP_BLOCK_BYTES = 400 * 2**10

# glibc's mallopt parameters (malloc.h), and the largest block that an
# evaluating process takes from its heap: glibc's ceiling for the mmap
# threshold on 64-bit hosts.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
HEAP_BLOCK_BYTES = 32 * 2**20


def _pin_heap() -> None:
    """Serve blocks up to HEAP_BLOCK_BYTES from the heap, and keep up to
    twice that of freed heap mapped, for the rest of this process.

    An evaluation allocates the same arrays for every drop block, each
    some hundreds of KB. By default glibc maps each block of 128 KiB or
    more afresh, so every block faults its pages in again, until it
    happens to free a larger mapped block. Unpinned, one process scoring
    the 108 tilings of the 200-drop, stride-800 study spent 1.2-1.4 s of
    system time in 528k minor faults, against at most 0.016 s and 1.3k
    faults pinned. Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, HEAP_BLOCK_BYTES)
    mallopt(_M_TRIM_THRESHOLD, 2 * HEAP_BLOCK_BYTES)


def _init_worker(cfg, drops, cells, drops_key):
    """Set up an evaluating process: its own channel stack of `drops`,
    and the placement table of `cells` when it fits TABLE_BUDGET_BYTES."""
    _pin_heap()
    G = ChannelStack.assemble(cfg.geometry(), cfg.pattern, drops, cfg.channel)
    # the table holds a (P, A) V and H column sum for each set in cells
    fits = 2 * len(cells) * len(G.coupling) * G.base[0].nbytes <= TABLE_BUDGET_BYTES
    _SHARED.update(
        G=G,
        table=placement_table(G, cells) if fits else None,
        set_sizes=np.array([c.size for c in cells], dtype=float),
        budget=cfg.link_budget(),
        condition_cap=cfg.zf_condition_cap,
        cells=cells,
        drops_key=drops_key,
    )


def _init_pool_worker(*init_args):
    # A fork worker inherits its parent's SIGTERM handler, and Pool.terminate
    # stops workers with SIGTERM. A Python handler that is still pending when
    # the worker blocks on the task-queue lock (which terminate holds) never
    # runs, so the worker never exits and the pool's join hangs.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        _init_worker(*init_args)
    except Exception as err:
        # A Pool replaces a worker whose initializer raises, without end,
        # and its tasks wait for ever; this worker lives on and fails each
        # task with the error instead, so that the parent raises it.
        _SHARED["error"] = err


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
    record from `_evaluate`. A destination (path, meta), not None, has the
    precoders of a feasible tiling written to path a drop block at a time.

    The drops go to `_evaluate` in blocks of DROP_BLOCK_BYTES per (b, A, 2Q)
    array, each formed only when the loop asks for it. A block's effective
    channels are its drops' columns of the placement table or, with no
    table, a table of just the task's sets built from the block's part of
    the stack. An infeasible tiling writes no file.
    """
    t, rows, destination = task
    s = _SHARED
    if "error" in s:
        raise s["error"]
    G, index = s["G"], np.array(rows)
    sizes = s["set_sizes"][np.concatenate((index, index))]
    drops, ports = G.base.shape[1], len(G.coupling) * G.base.shape[2]
    drop_bytes = 2 * index.size * ports * G.base.itemsize
    block = max(1, DROP_BLOCK_BYTES // drop_bytes)

    def blocks():
        for start in range(0, drops, block):
            span = slice(start, start + block)
            if s["table"] is None:
                stack = ChannelStack(G.base[:, span], G.coupling)
                yield effective_channels(placement_table(stack, [s["cells"][k] for k in rows]))
            else:
                yield effective_channels(s["table"][:, :, :, span], index)

    with nullcontext() if destination is None else _precoder_file(
        destination[0], (drops, 2 * index.size, ports), destination[1]
    ) as write:
        return _evaluate(
            blocks(), drops, sizes, s["budget"], None, s["condition_cap"], t, s["drops_key"], write
        )


def _ledger_task(task) -> tuple:
    """`_eval_task` of a streamed (t, rows) as a ledger row: the plain tuple
    of LedgerRow's fields, which pickles in half a LedgerRow's bytes."""
    t, rows = task
    record = _eval_task((t, rows, None))
    min_dbm = float(watts_to_dbm(record.min_desired_power_w))
    return t, record.average_sum_rate, min_dbm, record.covered, record.feasible


# --- optimization ----------------------------------------------------------

PROGRESS_EVERY = 10000  # evaluated tilings between progress lines

# least seconds between fsyncs of the ledger: about what a crashed host loses
FSYNC_EVERY_S = 10.0

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
    best_unconstrained: EvaluationRecord | None
    best_unconstrained_cover: AggregationVector | None
    baseline: EvaluationRecord | None
    baseline_cover: AggregationVector | None
    comparison: BaselineComparison | None
    drops: list[UEDrop]
    elapsed_s: float
    usage_at_start: dict  # `_usage()` as the run started


def _rows_by_index(search: _CoverSearch, target: int) -> tuple[int, ...]:
    for _t, rows in search.stream(start=target):
        return rows
    raise ValueError(f"tiling index {target} beyond enumeration")


def _resume(path, fold: _Fold, cfg: RunConfig, versions: dict, info) -> None:
    """Fold the ledger's rows at `path` as they are read, trusted, not
    recomputed, and cut a last line a killed run left unterminated (its
    tiling is evaluated again). Rows must be t = 1, 1+s, ... under this
    config's hash; a refused ledger is left untouched, and one written under
    other versions is resumed, and the log says so."""
    stride, key, meta = cfg.tiling_stride, cfg.config_hash(), {}
    complete = 0  # bytes of the ledger up to its last newline

    def terminated(fh):
        nonlocal complete
        for line in fh:
            if line.endswith(b"\n"):
                complete += len(line)
                yield line.decode()

    with open(path, "rb") as fh:
        for row in _parse_ledger(terminated(fh), meta):
            if meta.get("config_hash") != key:
                raise ValueError("existing ledger was written by a different config")
            t = 1 + stride * fold.rows
            if row.tiling_index != t:
                raise ValueError(
                    f"cannot resume: ledger row t={row.tiling_index} where t={t} was "
                    f"expected (rows must be t = 1, 1+{stride}, 1+{2 * stride}, ...)"
                )
            fold.add(row)
        size = fh.tell()
    if meta.get("config_hash", key) != key:
        raise ValueError("existing ledger was written by a different config")
    moved = [
        f"{name} {meta.get(name, 'unrecorded')} (running {value})"
        for name, value in versions.items()
        if meta.get(name) != value
    ]
    if fold.rows and moved:
        info(
            f"{path} was written with {', '.join(moved)}; "
            "resumed and new rows may differ in their last bits"
        )
    if complete < size:
        os.truncate(path, complete)
        info(f"dropped the unterminated last line of {path} ({size - complete} bytes)")


def optimize(
    cfg: RunConfig,
    *,
    ledger_path=None,
    precoders_path=None,
    resume: bool = False,
    log: Callable[[str], None] | None = None,
) -> OptimizationResult:
    """Stream every tiling, evaluate, and select the constrained argmax.

    The best tiling maximizes the drop-averaged sum rate among tilings that
    pass the coverage floor; ties break toward the lowest enumeration
    index. When no tiling passes, the result is marked infeasible and
    carries the unconstrained best for diagnosis. The rows are written to
    `ledger_path`, if given, and not kept: `read_ledger` reads them back.
    """
    start = time.perf_counter()
    usage_at_start = _usage()
    cfg.validate()
    info = log or (lambda _msg: None)

    aperture = cfg.aperture_grid()
    placements = generate_placements(aperture, cfg.shapes())
    L = build_incidence_matrix(placements, aperture)
    search = _CoverSearch(L)
    cells = [np.array(p, dtype=np.intp) - 1 for p in L.rows]
    # the baseline's tiles follow the placements in cells, so that it is
    # evaluated as rows of the same table
    baseline_cover = baseline_tiling(aperture) if aperture.rows % 6 == 0 else None
    baseline_tasks = []
    if baseline_cover is not None:
        baseline_rows = tuple(range(len(cells), len(cells) + baseline_cover.tile_count))
        baseline_tasks = [(0, baseline_rows, None)]
        cells += baseline_cover.tile_cells()

    drops = sample_drops(cfg.scenario)
    drops_key = drops_fingerprint(drops)
    info(
        f"{len(placements)} placements on {aperture.columns}x{aperture.rows}; "
        f"{len(drops)} drops sampled ({cfg.channel.tag})"
    )

    # read here: the package __init__ imports this module before it sets
    # __version__. ZF results depend bit for bit on the numpy/LAPACK build.
    from . import __version__

    versions = {"apertile_version": __version__, "numpy_version": np.__version__}
    meta = {"config_hash": cfg.config_hash(), "seed": cfg.scenario.seed}
    stride = cfg.tiling_stride
    if precoders_path:  # a killed run's part file, which a new file may never replace
        with suppress(FileNotFoundError):
            os.remove(f"{precoders_path}.part")

    # Every evaluation runs in the pool, forked before the count fills the
    # memo, which the workers do not need; each worker assembles its own
    # channel stack while the parent counts. Without a pool the stack is
    # assembled here, and the same tasks run here, each when its result is
    # read.
    workers = cfg.workers or os.cpu_count() or 1
    init_args = (cfg, drops, cells, drops_key)
    if workers > 1:
        from multiprocessing import get_context  # here, so that enumerate never loads it

        pool_scope = get_context("fork").Pool(workers, _init_pool_worker, init_args)
    else:
        pool_scope = _in_process(init_args)

    with pool_scope as pool:
        baseline_result = pool.imap(_eval_task, baseline_tasks)
        total = search.count()
        # the ledger header records the baseline capacity, "none" when the
        # baseline is missing or infeasible; every row, resumed or new, is
        # folded against it as it merges
        baseline_record = next(baseline_result, None)
        baseline_ok = baseline_record is not None and baseline_record.feasible
        fold = _Fold(baseline_record.average_sum_rate if baseline_ok else math.inf)
        if resume and ledger_path and os.path.exists(ledger_path):
            _resume(ledger_path, fold, cfg, versions, info)
        first_t = 1 + stride * fold.rows
        tasks = len(range(first_t, total + 1, stride))
        resumed = f"; resuming at t={first_t}" if fold.rows else ""
        info(f"{total} tilings, {tasks} to evaluate (stride {stride}){resumed}")
        ledger_scope = (
            open(ledger_path, "a" if fold.rows else "w") if ledger_path else nullcontext()
        )
        with ledger_scope as ledger_fh:
            if ledger_fh and not fold.rows:
                write_ledger_header(
                    ledger_fh,
                    {
                        **meta,
                        "channel_mode": cfg.channel.tag,
                        "aperture": f"{aperture.columns}x{aperture.rows}",
                        "alphabet": cfg.alphabet_file or cfg.alphabet,
                        "stride": cfg.tiling_stride,
                        "drops_fingerprint": drops_key,
                        "baseline_capacity_bps_hz": repr(fold.baseline) if baseline_ok else "none",
                        **versions,
                    },
                )
            # small enough that every worker gets about four chunks; the
            # ledger is flushed after each, so a killed run keeps whole chunks
            chunksize = max(1, min(64, math.ceil(tasks / (4 * workers))))
            started = synced = time.perf_counter()
            results = pool.imap(_ledger_task, search.stream(first_t, stride), chunksize=chunksize)
            for done, row in enumerate(results, 1):
                fold.add(row)
                if ledger_fh:
                    ledger_fh.write(_ROW_FORMAT % row)
                    if done % chunksize == 0:
                        ledger_fh.flush()
                        if time.perf_counter() - synced >= FSYNC_EVERY_S:
                            os.fsync(ledger_fh.fileno())
                            synced = time.perf_counter()
                if done % PROGRESS_EVERY == 0:
                    rate = done / (time.perf_counter() - started)
                    info(
                        f"evaluated {done} of {tasks} tilings "
                        f"({rate:.4g} tilings/s, ETA {(tasks - done) / rate:.0f} s)"
                    )

        # each distinct best tiling is evaluated once, the two in parallel,
        # its rows looked up by index in the memo that the count filled;
        # the worker that scores the best covered tiling writes its precoders
        best_ts = {row[0] for row in (fold.best, fold.best_any) if row is not None}
        picks = {t: _rows_by_index(search, t) for t in sorted(best_ts)}
        kept = fold.best[0] if fold.best and precoders_path else None
        destinations = {kept: (precoders_path, meta)}
        best_tasks = [(t, rows, destinations.get(t)) for t, rows in picks.items()]
        evaluated = dict(zip(picks, pool.imap(_eval_task, best_tasks)))

    def pick(row):
        """A best row's record and cover, or two Nones."""
        if row is None:
            return None, None
        return evaluated[row[0]], _cover_from_rows(picks[row[0]], cells, aperture.size)

    best_record, best_cover = pick(fold.best)
    best_any_record, best_any_cover = pick(fold.best_any)

    comparison = None
    if best_record is not None and baseline_ok:
        comparison = compare_to_baseline(best_record, baseline_record, fold.beating, fold.rows)

    best_text = f"{fold.best[1]:.6g} bps/Hz" if fold.best else "none"
    info(f"done: {fold.rows} tilings evaluated, best covered capacity {best_text}")
    return OptimizationResult(
        config_hash=cfg.config_hash(),
        seed=cfg.scenario.seed,
        channel_mode=cfg.channel.tag,
        total_tilings=total,
        evaluated_tilings=fold.rows,
        exhaustive=cfg.tiling_stride == 1,
        feasible=fold.best is not None,
        best=best_record,
        best_cover=best_cover,
        best_unconstrained=best_any_record,
        best_unconstrained_cover=best_any_cover,
        baseline=baseline_record,
        baseline_cover=baseline_cover,
        comparison=comparison,
        drops=drops,
        elapsed_s=time.perf_counter() - start,
        usage_at_start=usage_at_start,
    )


def _usage() -> dict:
    """`getrusage` of this process ("parent") and of its joined children
    ("workers": the pool's workers once the pool has closed)."""
    import resource  # here, so that enumerate never loads it

    return {
        "parent": resource.getrusage(resource.RUSAGE_SELF),
        "workers": resource.getrusage(resource.RUSAGE_CHILDREN),
    }


def _resources(start: dict) -> dict:
    """User and system CPU seconds since `start`, a `_usage()` reading, of
    this process and of its joined children; and the peak RSS of each,
    which getrusage keeps only over the whole life of the process."""
    # ru_maxrss counts KiB on Linux and bytes on macOS
    unit = 1 if sys.platform == "darwin" else 2**10
    doc = {}
    for key, usage in _usage().items():
        doc[key] = {
            "user_s": round(usage.ru_utime - start[key].ru_utime, 3),
            "system_s": round(usage.ru_stime - start[key].ru_stime, 3),
            "life_peak_rss_mb": round(usage.ru_maxrss * unit / 2**20, 1),
        }
    return doc


def result_to_json(result: OptimizationResult, cfg: RunConfig) -> dict:
    """Portable summary of an optimization run (grids, stats, provenance),
    with the CPU time of the process tree from the start of the run to this
    call, and its peak RSS over the life of the processes."""

    def record_doc(record: EvaluationRecord | None, cover: AggregationVector | None):
        if record is None:
            return None
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
        "resources": _resources(result.usage_at_start),
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
