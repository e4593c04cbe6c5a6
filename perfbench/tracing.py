"""Traced run: per-layer costs from spans around the program's public calls.

One process with BLAS pinned to one thread (the `optimize` call forks the
workload's worker pool).  Spans (name, start, end, parent, program) are kept
in memory and written out at the end.  A program span times a call into the
program (or the file write the CLI makes); a group span only gathers program
spans, and its self time is the tracer's own loop and bookkeeping, which the
program spans do not account for.  Every span is recorded from this file; the
only span nested inside a program call is `channel.aggregate_channel` under
`optimizer.evaluate_tiling`, recorded by wrapping the name that the optimizer
module calls.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from check import check_ledger, read_body
from workloads import WORKLOADS, Workload, scenario_seed, write_config

# (tiling, drop) pairs in the serial-evaluation and numerical-health samples
EVAL_PAIRS = 20000
HEALTH_PAIRS = 4000
# the program spans must account for all but this share of the traced wall
MAX_UNATTRIBUTED = 0.10

# ROADMAP "Measured at this re-anchor" (throwaway scripts, +-25%), in us:
# metric -> (drops it was measured at, or None for any; low; high)
REANCHOR = [
    ("optimizer.evaluate_us_per_tiling", 10, 2600.0, 2600.0),
    ("optimizer.evaluate_us_per_tiling", 200, 42000.0, 56000.0),
    ("channel.aggregate_us_per_tiling", 200, 20600.0, 20600.0),
    ("tiling.search_us_per_cover", None, 37.0, 37.0),
]


def _write(path: Path, text) -> None:
    """What the CLI does with each report: render the text, write it out."""
    path.write_text(text() + "\n")


def _every(items: list, pairs: int, drops: int) -> list:
    """An even sample of `items` worth about `pairs` (tiling, drop) pairs."""
    return items[:: max(1, -(-len(items) * drops // pairs))]


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, program]."""

    def __init__(self):
        self.spans: list[list] = []
        self._current = -1

    def span(self, name: str) -> "_Span":
        """A program span around a block of program work."""
        return _Span(self, name, True)

    def group(self, name: str) -> "_Span":
        """A group span: only gathers the program spans inside it."""
        return _Span(self, name, False)

    def call(self, name: str, fn, *args, **kwargs):
        with _Span(self, name, True):
            return fn(*args, **kwargs)

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of spans called `name`, optionally only inside `under`."""
        out = []
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while under is not None and parent >= 0 and self.spans[parent][0] != under:
                parent = self.spans[parent][3]
            if under is None or parent >= 0:
                out.append(span[2] - span[1])
        return out

    def self_times(self) -> dict[str, tuple[int, float, bool]]:
        """Per span name: (count, summed self time, program)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float, bool]] = {}
        for (name, start, end, _, program), inner in zip(self.spans, child):
            count, total, _ = out.get(name, (0, 0.0, program))
            out[name] = (count + 1, total + (end - start) - inner, program)
        return out

    def attributed_s(self) -> float:
        """Summed self time of the program spans."""
        return sum(seconds for _, seconds, program in self.self_times().values() if program)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,program\n")
            for name, start, end, parent, program in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{int(program)}\n")


class _Span:
    __slots__ = ("tracer", "record", "parent")

    def __init__(self, tracer: Tracer, name: str, program: bool):
        self.tracer = tracer
        self.record = [name, 0.0, 0.0, tracer._current, program]

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._current
        tracer._current = len(tracer.spans)
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter()
        self.tracer._current = self.parent
        return False


def traced_run(root: Path, w: Workload, seed: int, run_dir: Path, reference) -> dict:
    """Run the traced pipeline; returns metrics, checks and a printable table."""
    sys.path.insert(0, str(root / "src"))
    import apertile.optimizer as optimizer_module
    from apertile import reports
    from apertile.channel import aggregate_channel, assemble_channel
    from apertile.config import RunConfig
    from apertile.metrics import distribution
    from apertile.optimizer import evaluate_tiling, optimize, result_to_json, tiling_precoders
    from apertile.precoding import ChannelRankError, save_precoders, zero_forcing
    from apertile.scenario import sample_drops, save_drops
    from apertile.tiling import (
        build_incidence_matrix,
        count_exact_covers,
        cover_to_json,
        enumerate_exact_covers,
        generate_placements,
    )

    ew = WORKLOADS[w.eval_workload or w.name]
    sseed = scenario_seed(seed)
    tr = Tracer()
    checks: list[list[str]] = []  # errors of each output check

    with tr.group("trace"):
        # --- set-up layers, three times (they make up setup_s) ---
        for _ in range(3):
            with tr.group("setup"):
                cfg = tr.call("config.load", RunConfig.load, write_config(ew, sseed, "P", run_dir))
                aperture = cfg.aperture_grid()
                placements = tr.call(
                    "tiling.generate_placements", generate_placements, aperture, cfg.shapes()
                )
                L = tr.call("tiling.build_incidence_matrix", build_incidence_matrix, placements, aperture)
                drops = tr.call("scenario.sample_drops", sample_drops, cfg.scenario)
                geometry = cfg.geometry()
                with tr.group("channel.assemble"):
                    channels = [
                        tr.call("channel.assemble_channel", assemble_channel, geometry, cfg.pattern, d, cfg.channel)
                        for d in drops
                    ]
        G = np.stack([c.matrix for c in channels])
        budget = cfg.link_budget()

        # --- search, cover construction and JSON lines, per alphabet ---
        covers_total = 0
        evaluated = []  # (t, cover) of the covers the eval workload scores
        for alphabet, expected in zip(w.alphabets, w.covers):
            with tr.group("enumeration"):
                if alphabet == "P":
                    La = L
                else:
                    acfg = tr.call("config.load", RunConfig.load, write_config(w, sseed, alphabet, run_dir))
                    La = tr.call(
                        "tiling.build_incidence_matrix",
                        build_incidence_matrix,
                        tr.call("tiling.generate_placements", generate_placements, aperture, acfg.shapes()),
                        aperture,
                    )
                count = tr.call("tiling.count_exact_covers", count_exact_covers, La)
                checks.append([] if count == expected else [f"{alphabet}: {count} covers, expected {expected}"])
                covers_total += count
                stream = enumerate_exact_covers(La)
                t = 0
                with open(run_dir / f"trace_dump_{alphabet.replace('+', '_')}.jsonl", "w") as fh:
                    while True:
                        with tr.span("tiling.enumerate_exact_covers"):
                            cover = next(stream, None)
                        if cover is None:
                            break
                        t += 1
                        with tr.span("reports.cover_json"):
                            fh.write(json.dumps(cover_to_json(cover, aperture)) + "\n")
                        if alphabet == "P" and (t - 1) % ew.stride == 0:
                            evaluated.append((t, cover))

        # --- serial evaluation of an even sample of the scored covers ---
        sample = _every(evaluated, EVAL_PAIRS, len(drops))

        def traced_aggregate(*args, **kwargs):
            return tr.call("channel.aggregate_channel", aggregate_channel, *args, **kwargs)

        optimizer_module.aggregate_channel = traced_aggregate
        try:
            with tr.group("evaluation"):
                for t, cover in sample:
                    tr.call(
                        "optimizer.evaluate_tiling",
                        evaluate_tiling,
                        cover,
                        G,
                        budget,
                        beams=cfg.scenario.users,
                        condition_cap=cfg.zf_condition_cap,
                        tiling_index=t,
                    )
        finally:
            optimizer_module.aggregate_channel = aggregate_channel

        # --- numerical health of zero forcing on a smaller sample ---
        # benchmark work, not the program's: left out of trace.wall_s
        with tr.group("bench.health"):
            conds, residual = [], 0.0
            for _, cover in _every(sample, HEALTH_PAIRS, len(drops)):
                H = aggregate_channel(G, cover)
                sv = np.linalg.svd(H, compute_uv=False)
                conds.extend((sv[:, 0] / sv[:, -1]).tolist())
                for Hp in H:
                    try:
                        V = zero_forcing(Hp, cfg.zf_condition_cap).coefficients
                    except ChannelRankError:
                        continue
                    residual = max(residual, float(np.abs(Hp @ V - np.eye(len(Hp))).max()))

        # --- the workload's optimize call, fork pool included ---
        log_times: list[float] = []
        out_dir = run_dir / "trace_out"
        out_dir.mkdir(exist_ok=True)
        ledger = out_dir / "ledger.csv"
        result = tr.call(
            "optimizer.optimize",
            optimize,
            cfg,
            ledger_path=str(ledger),
            log=lambda _msg: log_times.append(time.perf_counter()),
        )
        checks.append(check_ledger(ledger, reference["seeds"][str(sseed)], ew.stride, ew.floor_dbm))

        # --- precoders of the best tiling and the CLI's output writers ---
        for _ in range(3):
            precoders = tr.call(
                "optimizer.tiling_precoders",
                tiling_precoders,
                result.best_cover,
                G,
                cfg.zf_condition_cap,
            )
        meta = {"config_hash": cfg.config_hash(), "seed": cfg.scenario.seed}
        for _ in range(3):
            with tr.group("reports.outputs"):
                tr.call("scenario.save_drops", save_drops, result.drops, out_dir / "drops.json", meta)
                doc = tr.call("optimizer.result_to_json", result_to_json, result, cfg)
                tr.call("cli.write", _write, out_dir / "result.json", lambda: json.dumps(doc, indent=2))
                tr.call("precoding.save_precoders", save_precoders, precoders, out_dir / "best_precoders.npz", meta)
                for tag, cover, record in (
                    ("best", result.best_cover, result.best),
                    ("baseline", result.baseline_cover, result.baseline),
                ):
                    ascii_grid = tr.call("reports.render_ascii", reports.render_ascii, cover, aperture)
                    tr.call("cli.write", _write, out_dir / f"{tag}_tiling.txt", lambda: ascii_grid)
                    svg = tr.call("reports.render_svg", reports.render_svg, cover, aperture, cfg.shapes())
                    tr.call("cli.write", _write, out_dir / f"{tag}_tiling.svg", lambda: svg)
                    if record is None or record.per_ue_capacities is None:
                        continue
                    dist = tr.call("metrics.distribution", distribution, record.per_ue_capacities)
                    tr.call(
                        "reports.write_distribution_csv",
                        reports.write_distribution_csv,
                        out_dir / f"distribution_{tag}.csv",
                        dist,
                        meta,
                    )
    tr.write(run_dir / "spans.csv")
    report = _metrics(tr, w, ew, G, sample, covers_total, ledger, log_times, conds, residual)
    unattributed = report["metrics"]["trace.unattributed_share"]["value"]
    checks.append(
        [] if unattributed <= MAX_UNATTRIBUTED else [f"spans leave {unattributed:.1%} of the traced wall unattributed"]
    )
    report["attempted"] = len(checks)
    report["failed"] = sum(1 for errs in checks if errs)
    report["errors"] = [e for errs in checks for e in errs]
    return report


def _metrics(tr, w, ew, G, sample, covers, ledger, log_times, conds, residual):
    def total(name, under=None):
        return sum(tr.durations(name, under))

    def median(name, under=None):
        return statistics.median(tr.durations(name, under))

    evals = tr.durations("optimizer.evaluate_tiling")
    aggs = tr.durations("channel.aggregate_channel", "optimizer.evaluate_tiling")
    eval_mean = statistics.fmean(evals)
    agg_mean = statistics.fmean(aggs)
    drops, ports, columns = G.shape
    tiles = statistics.fmean(c.tile_count for _, c in sample)
    # the gather reads and writes the whole stack once, reduceat reads it
    # again and writes (P, A, 2Q); computed from array sizes, not measured
    agg_bytes = G.itemsize * drops * ports * (3 * columns + 2 * tiles)

    setup_rounds = [
        sum(tr.durations(name, "setup")[i] for name in ("tiling.generate_placements", "tiling.build_incidence_matrix"))
        for i in range(3)
    ]
    rows = read_body(ledger)
    body_bytes = sum(
        len(line) for line in ledger.read_text().splitlines(keepends=True)
        if not line.startswith("#") and not line.startswith("t,")
    )
    # evaluation wall of the pool: from the first log (set-up done) to the
    # last, less the serial work around it (baseline and two best-tiling
    # evaluations, two precoder sets), estimated from the serial spans
    precoders_s = median("optimizer.tiling_precoders")
    pool_wall = log_times[-1] - log_times[0] - 3 * eval_mean - 2 * precoders_s
    workers = ew.workers
    # the traced wall leaves out the benchmark's own health sample; what the
    # program spans do not account for is the tracer's loop and bookkeeping
    root_span = tr.spans[0]
    health_s = total("bench.health")
    root_s = root_span[2] - root_span[1] - health_s
    selfs = tr.self_times()
    attributed_s = tr.attributed_s()

    metrics = {
        "tiling.covers": (covers, "count"),
        "tiling.search_us_per_cover": (1e6 * total("tiling.count_exact_covers") / covers, "us"),
        "tiling.cover_build_us_per_cover": (
            1e6 * (total("tiling.enumerate_exact_covers") - total("tiling.count_exact_covers")) / covers,
            "us",
        ),
        "reports.cover_json_us_per_cover": (1e6 * total("reports.cover_json") / covers, "us"),
        "tiling.placements_ms": (1e3 * statistics.median(setup_rounds), "ms"),
        "scenario.sample_drops_ms": (1e3 * median("scenario.sample_drops", "setup"), "ms"),
        "channel.assemble_ms": (1e3 * median("channel.assemble"), "ms"),
        "channel.aggregate_us_per_tiling": (1e6 * agg_mean, "us"),
        "channel.aggregate_bytes_per_tiling": (agg_bytes, "B"),
        "channel.aggregate_gbps": (agg_bytes / agg_mean / 1e9, "GB/s"),
        "optimizer.evaluate_us_per_tiling": (1e6 * eval_mean, "us"),
        "optimizer.zf_score_us_per_tiling": (1e6 * (eval_mean - agg_mean), "us"),
        "optimizer.pool_efficiency": (eval_mean * len(rows) / (workers * pool_wall), "1"),
        "optimizer.feasible_fraction": (sum(r[3] != "0" for r in rows) / len(rows), "1"),
        "optimizer.covered_fraction": (sum(r[3] == "2" for r in rows) / len(rows), "1"),
        "optimizer.ledger_bytes": (body_bytes, "B"),
        "precoding.tiling_precoders_ms": (1e3 * precoders_s, "ms"),
        "precoding.cond_p99": (float(np.percentile(conds, 99)), "1"),
        "precoding.zf_residual_max": (residual, "1"),
        "reports.outputs_ms": (1e3 * median("reports.outputs"), "ms"),
        "trace.unattributed_share": ((root_s - attributed_s) / root_s, "1"),
        "trace.wall_s": (root_s, "s"),
    }

    lines = [
        f"traced run: {w.name}, evaluation inputs of {ew.name} "
        f"({drops} drops, {len(sample)} of {len(rows)} scored tilings evaluated serially, "
        f"{len(conds)} (tiling, drop) pairs in the health sample)",
        f"  pool_efficiency base: {len(rows)} tilings x {1e3 * eval_mean:.3f} ms serial "
        f"/ ({workers} workers x {pool_wall:.3f} s pool evaluation wall)",
        f"  aggregate_bytes_per_tiling is computed from array sizes, not measured",
        f"  traced wall {root_s:.3f} s, program spans {attributed_s:.3f} s; "
        f"benchmark health sample {health_s:.3f} s left out",
        "  self time by span name (count, seconds, share of the traced wall; * group span):",
    ]
    for name, (count, seconds, program) in sorted(selfs.items(), key=lambda kv: -kv[1][1]):
        if name != "bench.health":
            mark = " " if program else "*"
            lines.append(f"   {mark}{name:34s} {count:8d} {seconds:9.3f} {seconds / root_s:7.1%}")
    lines.append("  against ROADMAP 'Measured at this re-anchor':")
    for name, at_drops, low, high in REANCHOR:
        if at_drops in (None, drops):
            traced = metrics[name][0]
            span = f"{low:.0f}" if low == high else f"{low:.0f}-{high:.0f}"
            lines.append(f"    {name}: traced {traced:.1f} us, re-anchor {span} us")
    return {
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
    }
