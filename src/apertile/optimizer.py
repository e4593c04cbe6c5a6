"""Exhaustive capacity-driven layout search over all complete tilings.

The enumerator streams tilings while forked workers (`_Workers`) evaluate each
one against the pre-assembled per-drop channels (assembled exactly once per
drop in each evaluating process, never per tiling). Results merge in
enumeration order, so the ledger is deterministic regardless of worker count.
Each row is written to the ledger and folded into running aggregates (count,
best rows, rows beating the baseline) as it merges: the file is the only copy
of the rows. It is flushed after every chunk of rows, so a run that is killed,
or whose worker dies, resumes from the whole chunks it wrote, and synced every
FSYNC_EVERY_S. Every evaluation is one task over rows of `cells`, the
placements' pixel sets and then the baseline's tiles: ledger rows, the
baseline and the best tilings alike. Each, like `evaluate_tiling`, is scored
and recorded by one loop, `_evaluate`, over drop blocks. The workers run them
all, and the one that scores the best covered tiling writes its precoders one
drop block at a time; the parent samples the drops, counts, streams, merges
and writes the ledger, and never builds a channel stack, holds a beam or keeps
a row. Each worker assembles its own stack while the parent counts, keeping
each drop's channel as its two factors, the (MN, P, U) base and the 2x2 slant
coupling. It holds that stack, the temporaries of one block of
DROP_BLOCK_BYTES (heap blocks it reuses from tiling to tiling, see
`_pin_heap`) and, when it fits TABLE_BUDGET_BYTES, the placement-major table
of every set's aggregated channel columns, built in place.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import sys
import time
from contextlib import AbstractContextManager, nullcontext, suppress
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable

import numpy as np

from . import __version__
from .channel import (
    ChannelStack, LinkBudget, aggregate_channel, effective_channels, placement_table
)
from .config import RunConfig
from .forked import fork
from .ledger import _ROW_FORMAT, _Fold, _resume, write_ledger_header
from .ledger import read_ledger  # re-exported
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


# --- workers ---------------------------------------------------------------

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


def _blas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS chose for this CPU, which the
    numpy version does not fix; "unknown" without that library or its answer."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        name = next(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        corename = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_get_corename64_
    except (OSError, StopIteration, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = (), ctypes.c_char_p
    return corename().decode()


def _init_worker(cfg, drops, cells, drops_key, table):
    """Set up an evaluating process: its own channel stack of `drops` and,
    if `table` (for many tasks that share the sets), the placement table
    of `cells` when it fits TABLE_BUDGET_BYTES."""
    _pin_heap()
    G = ChannelStack.assemble(cfg.geometry(), cfg.pattern, drops, cfg.channel)
    # the table holds a (P, A) V and H column sum for each set in cells
    fits = table and 2 * len(cells) * len(G.coupling) * G.base[0].nbytes <= TABLE_BUDGET_BYTES
    _SHARED.update(
        G=G,
        table=placement_table(G, cells) if fits else None,
        set_sizes=np.array([c.size for c in cells], dtype=float),
        budget=cfg.link_budget(),
        condition_cap=cfg.zf_condition_cap,
        cells=cells,
        drops_key=drops_key,
    )


def _serve(init_args, inbox, outbox):
    """A worker's life: SIGTERM's default action (not the caller's handler),
    set-up, then (True, [fn(t) for t in batch]) for each (fn, batch) until EOF."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _init_worker(*init_args)
    with suppress(EOFError):  # the parent closed the inbox
        while True:
            fn, batch = pickle.load(inbox)
            pickle.dump((True, [fn(task) for task in batch]), outbox)
            outbox.flush()


class _Workers(AbstractContextManager):
    """A run's evaluating processes: `count` forked workers, each set up by
    `_init_worker(*init_args)`, or with a `count` of 0 this process. Leaving
    the scope closes every pipe and reaps every worker, error or not."""

    def __init__(self, count, init_args):
        if not count:
            _init_worker(*init_args)
        self.workers = []  # (pid, to_child, from_child) of each
        for _ in range(count):
            inherited = [fh for _pid, *files in self.workers for fh in files]
            self.workers.append(fork(partial(_serve, init_args), inherited))

    def __exit__(self, *_):
        _SHARED.clear()
        for pid, *files in self.workers:
            for fh in files:
                with suppress(BrokenPipeError):  # bytes unsent to a worker that ended
                    fh.close()
            with suppress(ChildProcessError):  # reaped as it ended without its results
                os.waitpid(pid, 0)

    def imap(self, fn, tasks, chunksize=1):
        """fn of each task in task order: here as each result is read, or in
        batches of `chunksize`, two in flight per worker and the first sent
        at once. A worker's error is raised here as itself."""
        if not self.workers:
            return map(fn, tasks)
        tasks, pending = iter(tasks), []  # the worker of each batch in flight

        def send(worker):
            if batch := list(islice(tasks, chunksize)):
                with suppress(BrokenPipeError):  # a worker that ended; its read says how
                    pickle.dump((fn, batch), worker[1])
                    worker[1].flush()
                pending.append(worker)

        def results():
            while pending:
                pid, _to_child, from_child = worker = pending.pop(0)
                try:
                    ok, value = pickle.load(from_child)
                except (EOFError, pickle.UnpicklingError):
                    status = os.waitpid(pid, 0)[1]
                    raise RuntimeError(
                        f"worker {pid} ended without its results (waitpid status {status})"
                    ) from None
                if not ok:
                    raise value
                send(worker)
                yield from value

        for worker in self.workers * 2:
            send(worker)
        return results()


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


def _ledger_row(r: EvaluationRecord) -> tuple:
    """A record's ledger row: the plain tuple of LedgerRow's fields, which
    pickles in half a LedgerRow's bytes."""
    return r.tiling_index, r.average_sum_rate, r.min_power_dbm, r.covered, r.feasible


def _ledger_task(task) -> tuple:
    """`_eval_task` of a streamed (t, rows) as a ledger row."""
    t, rows = task
    return _ledger_row(_eval_task((t, rows, None)))


# --- optimization ----------------------------------------------------------

PROGRESS_EVERY = 10000  # evaluated tilings between progress lines

# least seconds between fsyncs of the ledger: about what a crashed host loses
FSYNC_EVERY_S = 10.0

@dataclass
class OptimizationResult:
    total_tilings: int
    evaluated_tilings: int
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

    # ZF results depend bit for bit on the numpy/LAPACK build
    versions = {"apertile_version": __version__, "numpy_version": np.__version__}
    versions["blas_core"] = _blas_core()
    meta = cfg.stamp()
    stride = cfg.tiling_stride
    if precoders_path:  # a killed run's part file, which a new file may never replace
        with suppress(FileNotFoundError):
            os.remove(f"{precoders_path}.part")

    # The workers fork before the count fills the memo, which they do not
    # need, and each assembles its own channel stack while the parent counts.
    # With one worker the same tasks run here, each when its result is read.
    workers = cfg.workers or os.cpu_count() or 1
    with _Workers(workers if workers > 1 else 0, (cfg, drops, cells, drops_key, True)) as pool:
        baseline_result = pool.imap(_eval_task, baseline_tasks)
        total = search.count()
        # the ledger header records the baseline capacity, None when the
        # baseline is missing or infeasible; every row, resumed or new, is
        # folded against it as it merges
        baseline_record = next(baseline_result, None)
        baseline_ok = baseline_record is not None and baseline_record.feasible
        baseline = baseline_record.average_sum_rate if baseline_ok else None
        fold = _Fold(baseline)
        moved = False  # whether resumed rows were written under other versions
        if resume and ledger_path and os.path.exists(ledger_path):
            moved = _resume(ledger_path, fold, meta["config_hash"], stride, versions, info)
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
                    },
                    baseline,
                    versions,
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
        best_rows = {row[0]: row for row in (fold.best, fold.best_any) if row is not None}
        picks = {t: _rows_by_index(search, t) for t in sorted(best_rows)}
        kept = fold.best[0] if fold.best and precoders_path else None
        destinations = {kept: (precoders_path, meta)}
        best_tasks = [(t, rows, destinations.get(t)) for t, rows in picks.items()]
        evaluated = dict(zip(picks, pool.imap(_eval_task, best_tasks)))

    # each best row, as the ledger holds it, must equal its re-score bit for
    # bit; a resumed row written under other versions may differ, and is logged
    for t, row in best_rows.items():
        line, again = _ROW_FORMAT % tuple(row), _ROW_FORMAT % _ledger_row(evaluated[t])
        if line != again:
            message = f"t={t}: ledger row {line.strip()} re-scores as {again.strip()}"
            if not (moved and t < first_t):
                raise ValueError(message)
            info(message)

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
        total_tilings=total,
        evaluated_tilings=fold.rows,
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
    ("workers": the run's workers once they are reaped)."""
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
            "min_power_dbm": record.min_power_dbm if record.feasible else None,
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
        **cfg.stamp(),
        "channel_mode": cfg.channel.tag,
        "aperture": {"columns": cfg.aperture.columns, "rows": cfg.aperture.rows},
        "alphabet": cfg.alphabet_file or cfg.alphabet,
        "total_tilings": result.total_tilings,
        "evaluated_tilings": result.evaluated_tilings,
        "exhaustive": cfg.tiling_stride == 1,
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
