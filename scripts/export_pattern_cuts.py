#!/usr/bin/env python3
"""Far-field azimuth/elevation cut CSVs for a tiling (uniform coefficients).

Feeds every sub-array of the given tiling with a unit coefficient and
exports (angle_deg, power_db) samples of both principal cuts, ready for
any external plotting tool. A unit coefficient gives every element the
weight 1 whatever the tiling, so every tiling of a panel gets the same CSV
body; only the `# tiling=` line differs.
"""

import argparse
import os
import sys

import numpy as np

from apertile.cli import _load_config, _resolve_cover
from apertile.geometry import expand_weights
from apertile.reports import far_field_cut, write_far_field_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--tiling", default="baseline", help="cover JSON path or 'baseline'")
    parser.add_argument("--out", default="cuts")
    parser.add_argument("--points", type=int, default=361)
    args = parser.parse_args()

    try:  # the config and the tiling are checked as the CLI checks them
        cfg = _load_config(args.config)
        cover, _aperture = _resolve_cover(cfg, args.tiling)
    except ValueError as err:
        sys.exit(f"error: {err}")
    geometry = cfg.geometry()
    weights = expand_weights(cover, np.ones(cover.tile_count))
    meta = {**cfg.stamp(), "tiling": args.tiling}

    os.makedirs(args.out, exist_ok=True)
    for cut in ("azimuth", "elevation"):
        rows = far_field_cut(geometry, cfg.pattern, weights, cut=cut, points=args.points)
        path = os.path.join(args.out, f"{cut}_cut.csv")
        write_far_field_csv(path, rows, meta)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
