#!/usr/bin/env python3
"""Full 8x12 study: all tilings of one alphabet against seeded drops.

Mirrors the reference setup (8 columns x 12 rows, 0.5/0.7 wavelength
spacing, 3.5 GHz, 43 dBm, 16 users = 16 sub-arrays, -120 dBm floor) with
the deterministic line-of-sight channel. The P alphabet enumerates 85926
tilings; expect minutes to hours depending on --drops and cores. The
ledger is appended row by row but not flushed after each row, so an
interrupted run continues with --resume from the rows that reached the
file.
"""

import argparse
import os
import sys

from apertile.cli import main as cli_main
from apertile.config import ApertureConfig, RunConfig
from apertile.scenario import ScenarioParams


def build_config(args) -> RunConfig:
    scenario = dict(
        uma=dict(kind="uma", isd_m=500.0, bs_height_m=25.0),
        umi=dict(kind="umi", isd_m=200.0, bs_height_m=10.0),
    )[args.scenario]
    return RunConfig(
        aperture=ApertureConfig(columns=8, rows=12),
        scenario=ScenarioParams(
            drops=args.drops,
            users=16,
            seed=args.seed,
            ue_height_mode="floor" if args.floors else "fixed",
            **scenario,
        ),
        alphabet=args.alphabet,
        tiling_stride=args.stride,
        workers=args.workers,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="study_out")
    parser.add_argument("--alphabet", default="P", choices=["P", "L", "P+L"])
    parser.add_argument("--scenario", default="uma", choices=["uma", "umi"])
    parser.add_argument("--floors", action="store_true", help="random building-floor UE heights")
    parser.add_argument("--drops", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--stride", type=int, default=1, help=">1 evaluates a subsample")
    parser.add_argument("--workers", type=int, default=0, help="0 = all cores")
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    config_path = os.path.join(args.out, "config.json")
    build_config(args).save(config_path)

    cli_args = ["optimize", "--config", config_path, "--output-dir", args.out]
    if args.resume:
        cli_args.append("--resume")
    code = cli_main(cli_args)
    if code == 0:
        cli_main(["report", "--ledger", os.path.join(args.out, "ledger.csv")])
    return code


if __name__ == "__main__":
    sys.exit(main())
