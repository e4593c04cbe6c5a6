"""Command-line entry points.

Exit codes: 0 success, 1 configuration/usage error, 2 infeasible problem,
3 internal failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain, islice

import numpy as np

from .channel import ChannelStack
from .config import RunConfig
from .metrics import distribution, eta_statistics
from .optimizer import (
    _parse_ledger,
    evaluate_tiling,
    optimize,
    result_to_json,
    summarize_ledger,
)
from .reports import render_ascii, render_svg, write_distribution_csv
from .scenario import drops_fingerprint, sample_drops, save_drops
from .tiling import (
    _cover_from_rows,
    _cover_json_line,
    _CoverSearch,
    baseline_tiling,
    build_incidence_matrix,
    generate_placements,
    load_cover,
)
from .units import watts_to_dbm

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


def _load_config(path: str) -> RunConfig:
    if not os.path.exists(path):
        raise ValueError(f"config file not found: {path}")
    return RunConfig.load(path)


def _resolve_cover(cfg: RunConfig, spec: str):
    aperture = cfg.aperture_grid()
    if spec == "baseline":
        return baseline_tiling(aperture), aperture
    cover, cover_aperture = load_cover(spec)
    if (cover_aperture.columns, cover_aperture.rows) != (
        aperture.columns,
        aperture.rows,
    ):
        raise ValueError(
            f"tiling is for {cover_aperture.columns}x{cover_aperture.rows}, "
            f"config uses {aperture.columns}x{aperture.rows}"
        )
    return cover, aperture


def cmd_enumerate(args) -> int:
    cfg = _load_config(args.config)
    cfg.validate()
    aperture = cfg.aperture_grid()
    placements = generate_placements(aperture, cfg.shapes())
    matrix = build_incidence_matrix(placements, aperture)

    search = _CoverSearch(matrix)
    dump_json = open(args.dump_json, "w") if args.dump_json else None
    dump_ascii = open(args.dump_ascii, "w") if args.dump_ascii else None
    if dump_json:
        dump_json.write(
            json.dumps({"config_hash": cfg.config_hash(), "seed": cfg.scenario.seed})
            + "\n"
        )
        json_line = _cover_json_line(matrix)
    if dump_ascii:
        dump_ascii.write(f"# config_hash={cfg.config_hash()} seed={cfg.scenario.seed}\n")
        cells = [np.array(pixels, dtype=np.intp) - 1 for pixels in matrix.rows]

    # the first line is written before anything is counted; the count then
    # reads the memo the stream left behind (complete subtrees only)
    if dump_json or dump_ascii:
        for _t, rows in islice(search.stream(), max(args.limit, 0)):
            if dump_json:
                dump_json.write(json_line(rows))
            if dump_ascii:
                cover = _cover_from_rows(rows, cells, aperture.size)
                dump_ascii.write(render_ascii(cover, aperture) + "\n\n")
    for fh in (dump_json, dump_ascii):
        if fh:
            fh.close()
    print(search.count())
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _load_config(args.config)
    out_dir = args.output_dir or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    ledger_path = os.path.join(out_dir, "ledger.csv")

    precoders_path = os.path.join(out_dir, "best_precoders.npz")
    result = optimize(
        cfg, ledger_path=ledger_path, precoders_path=precoders_path, resume=args.resume, log=print
    )

    meta = {"config_hash": cfg.config_hash(), "seed": cfg.scenario.seed}
    save_drops(result.drops, os.path.join(out_dir, "drops.json"), meta)
    # its resources include the peak of the worker that wrote the precoders
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result_to_json(result, cfg), fh, indent=2, allow_nan=False)
        fh.write("\n")

    aperture = cfg.aperture_grid()
    shapes = cfg.shapes()
    for tag, cover, record in (
        ("best", result.best_cover, result.best),
        ("baseline", result.baseline_cover, result.baseline),
    ):
        if cover is None:
            continue
        with open(os.path.join(out_dir, f"{tag}_tiling.txt"), "w") as fh:
            fh.write(f"# config_hash={meta['config_hash']} seed={meta['seed']}\n")
            fh.write(render_ascii(cover, aperture) + "\n")
        svg = render_svg(
            cover,
            aperture,
            shapes,
            comment=f"config_hash={meta['config_hash']} seed={meta['seed']}",
        )
        with open(os.path.join(out_dir, f"{tag}_tiling.svg"), "w") as fh:
            fh.write(svg + "\n")
        if record is not None and record.per_ue_capacities is not None:
            dist = distribution(record.per_ue_capacities)
            write_distribution_csv(
                os.path.join(out_dir, f"distribution_{tag}.csv"), dist, meta
            )

    if result.best is not None:
        best = result.best
        print(
            f"best tiling t={best.tiling_index}: "
            f"{best.average_sum_rate:.4f} bps/Hz, "
            f"min power {float(watts_to_dbm(best.min_desired_power_w)):.2f} dBm"
        )
        if result.comparison is not None:
            print(
                f"baseline {result.baseline.average_sum_rate:.4f} bps/Hz, "
                f"gain {100.0 * result.comparison.delta:+.2f}%, "
                f"{result.comparison.beating_count} tilings beat baseline "
                f"({100.0 * result.comparison.beating_fraction:.2f}%)"
            )
        elif result.baseline is not None:
            print(f"baseline infeasible at condition cap {cfg.zf_condition_cap:g}: no comparison")
        return EXIT_OK
    print("no tiling satisfies the coverage floor", file=sys.stderr)
    return EXIT_INFEASIBLE


def cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    cfg.validate()
    cover, _aperture = _resolve_cover(cfg, args.tiling)
    drops = sample_drops(cfg.scenario)
    record = evaluate_tiling(
        cover,
        ChannelStack.assemble(cfg.geometry(), cfg.pattern, drops, cfg.channel),
        cfg.link_budget(),
        condition_cap=cfg.zf_condition_cap,
        drops_key=drops_fingerprint(drops),
    )
    doc = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.scenario.seed,
        "channel_mode": cfg.channel.tag,
        "tiling": args.tiling,
        "feasible": record.feasible,
        "covered": record.covered,
        "capacity_bps_hz": None,
        "per_drop_sum_rates": None,
    }
    if record.feasible:
        doc["capacity_bps_hz"] = record.average_sum_rate
        doc["per_drop_sum_rates"] = np.asarray(record.per_drop_sum_rates).tolist()
        doc["min_power_dbm"] = float(watts_to_dbm(record.min_desired_power_w))
        doc["eta_dbm"] = eta_statistics(record.eta_desired_dbm())
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
    print(json.dumps(doc, indent=2, allow_nan=False))
    return EXIT_OK if record.feasible else EXIT_INFEASIBLE


def _run_resources(ledger_path: str, meta: dict) -> dict | None:
    """The resources that `optimize` recorded in the result.json beside a
    ledger, when that file was written under the ledger's config hash."""
    path = os.path.join(os.path.dirname(ledger_path), "result.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if doc.get("config_hash") != meta.get("config_hash"):
        return None
    resources = doc.get("resources") or {}
    # files written before the CPU seconds were per run carry "max_rss_mb"
    if not all("life_peak_rss_mb" in usage for usage in resources.values()):
        return None
    return resources


def cmd_report(args) -> int:
    if not os.path.exists(args.ledger):
        raise ValueError(f"ledger not found: {args.ledger}")
    meta: dict = {}
    with open(args.ledger) as fh:
        rows = _parse_ledger(fh, meta)
        # the header lines precede every row, so meta holds them once one row is read
        first = next(rows, None)
        baseline = None
        raw = meta.get("baseline_capacity_bps_hz")
        if raw not in (None, "none", "nan"):  # "nan": an infeasible baseline in older ledgers
            baseline = float(raw)
        summary = summarize_ledger(chain([] if first is None else [first], rows), baseline)
    print(f"ledger: {args.ledger}")
    shown = "config_hash seed channel_mode aperture alphabet stride apertile_version numpy_version"
    for key in shown.split():
        if key in meta:
            print(f"  {key}: {meta[key]}")
    print(f"  rows: {summary['rows']} (feasible {summary['feasible_rows']})")
    print(f"  coverage fraction: {summary['coverage_fraction']:.4f}")
    cap = summary["capacity"]
    print(
        "  capacity bps/Hz: "
        f"min {cap['min']:.4f}  max {cap['max']:.4f}  avg {cap['avg']:.4f}  var {cap['var']:.4f}"
    )
    pw = summary["min_power_dbm"]
    print(
        "  min power dBm:   "
        f"min {pw['min']:.2f}  max {pw['max']:.2f}  avg {pw['avg']:.2f}  var {pw['var']:.2f}"
    )
    if "beating_baseline" in summary:
        print(
            f"  beating baseline ({summary['baseline_capacity_bps_hz']:.4f} bps/Hz): "
            f"{summary['beating_baseline']} ({100.0 * summary['beating_fraction']:.2f}%)"
        )
    resources = _run_resources(args.ledger, meta)
    if resources:
        print(
            "  resources: "
            + "; ".join(
                f"{who} {r['user_s']:.2f} s user, {r['system_s']:.2f} s system, "
                f"life peak RSS {r['life_peak_rss_mb']:.1f} MB"
                for who, r in resources.items()
            )
        )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"meta": meta, "summary": summary}, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_render(args) -> int:
    cfg = _load_config(args.config)
    cover, aperture = _resolve_cover(cfg, args.tiling)
    if args.ascii or not args.svg:
        print(render_ascii(cover, aperture))
    if args.svg:
        svg = render_svg(
            cover,
            aperture,
            cfg.shapes(),
            comment=f"config_hash={cfg.config_hash()} seed={cfg.scenario.seed}",
        )
        with open(args.svg, "w") as fh:
            fh.write(svg + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apertile",
        description="Enumerate aperture tilings and pick the capacity-optimal layout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="count (and optionally dump) all tilings")
    p.add_argument("--config", required=True)
    p.add_argument("--dump-json", help="JSON-lines file for dumped covers")
    p.add_argument("--dump-ascii", help="text file for ASCII grids")
    p.add_argument("--limit", type=int, default=1 << 62, help="max covers to dump")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("optimize", help="evaluate every tiling and select the best")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", help="override the config output directory")
    p.add_argument("--resume", action="store_true", help="continue an interrupted ledger")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("evaluate", help="score a single tiling")
    p.add_argument("--config", required=True)
    p.add_argument("--tiling", required=True, help="cover JSON path or 'baseline'")
    p.add_argument("--output", help="write the evaluation JSON here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="summary statistics of a ledger")
    p.add_argument("--ledger", required=True)
    p.add_argument("--json", help="also write the summary as JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("render", help="ASCII/SVG pictures of a tiling")
    p.add_argument("--config", required=True)
    p.add_argument("--tiling", required=True, help="cover JSON path or 'baseline'")
    p.add_argument("--svg", help="write an SVG here")
    p.add_argument("--ascii", action="store_true", help="print the ASCII grid")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
