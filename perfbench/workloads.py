"""Benchmark workloads: each is a generated config plus CLI commands.

The benchmark seed picks one of REFERENCE_SEEDS scenario seeds, so that the
output of every run can be compared with a reference stored in
`perfbench/reference/`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEEDS = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "optimize" or "enumerate"
    columns: int
    rows: int
    alphabets: tuple[str, ...]
    covers: tuple[int, ...]  # exact covers per alphabet, known in advance
    drops: int = 10
    users: int = 16
    stride: int = 1
    workers: int = 2
    floor_dbm: float = -120.0
    # workload whose inputs the traced run uses for the evaluation layers
    eval_workload: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # 8x12 P at 10 drops: ~2.3 ms per tiling, mostly per-call Python
        # overhead; the channel stack (1 MB) fits in L2.  Stride 32 keeps one
        # CLI run near 5 s; the parent still enumerates all 85926 covers.
        Workload(
            "study-p-d10-s32", "optimize", 8, 12, ("P",), (85926,), drops=10, stride=32
        ),
        # 8x12 P at the paper's 200 drops: ~50 ms per tiling, 41% of it the
        # memory-bound gather in aggregate_channel over a 19.7 MB stack.
        # Stride 800 keeps one CLI run near 6 s.  At -120 dBm, 5 of the 10
        # scenario seeds had no covered tiling among every 300th tiling (one
        # drop leaves every tiling below -141 dBm) and the CLI exits 2 without
        # its report tail; at -145 dBm every reference seed selects a best
        # tiling and writes all outputs.
        Workload(
            "study-p-d200-s800",
            "optimize",
            8,
            12,
            ("P",),
            (85926,),
            drops=200,
            stride=800,
            floor_dbm=-145.0,
        ),
        # Exact-cover search, cover construction and JSON lines only; two
        # alphabets with different search trees (472 vs 476 placements).
        Workload(
            "enumerate-dump",
            "enumerate",
            8,
            12,
            ("P", "P+L"),
            (85926, 81986),
            eval_workload="study-p-d10-s32",
        ),
        # Seconds-long stand-ins that the benchmark's own tests run; they are
        # not benchmark workloads.
        Workload("smoke", "optimize", 6, 6, ("P",), (48,), drops=3, users=4),
        Workload(
            "smoke-enumerate",
            "enumerate",
            6,
            6,
            ("P", "P+L"),
            (48, 64),
            users=4,
            eval_workload="smoke",
        ),
    )
}


def scenario_seed(seed: int) -> int:
    """Scenario seed (1..REFERENCE_SEEDS) used for benchmark seed `seed`:
    seeds 1..10 map to themselves, larger ones wrap around."""
    return 1 + (seed - 1) % REFERENCE_SEEDS


def output_dir(run_dir: Path, alphabet: str) -> Path:
    """Where `optimize` writes its ledger and reports for one alphabet."""
    return run_dir / f"out_{alphabet.replace('+', '_')}"


def write_config(w: Workload, seed: int, alphabet: str, run_dir: Path) -> Path:
    """Write the RunConfig JSON for one alphabet into `run_dir`; returns its
    path.  Unlisted keys keep the package defaults (3.5 GHz, 0.5/0.7
    wavelength spacing, 43 dBm)."""
    doc = {
        "aperture": {"columns": w.columns, "rows": w.rows},
        "scenario": {
            "kind": "uma",
            "isd_m": 500.0,
            "bs_height_m": 25.0,
            "drops": w.drops,
            "users": w.users,
            "seed": seed,
        },
        "budget": {"coverage_threshold_dbm": w.floor_dbm},
        "alphabet": alphabet,
        "tiling_stride": w.stride,
        "workers": w.workers,
        "output_dir": str(output_dir(run_dir, alphabet)),
    }
    path = run_dir / f"config_{alphabet.replace('+', '_')}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def expected_rows(w: Workload) -> int:
    """Ledger rows of an optimize workload: every stride-th of the covers."""
    return -(-w.covers[0] // w.stride)
