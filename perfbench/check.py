"""Output checks: compare each run's files with the stored reference.

Only the ledger body is compared.  The header carries `config_hash`, which
covers `output_dir` and `workers`, so it differs between identical runs.
Capacities are compared at CAPACITY_REL_TOL, loose enough for a more
accurate zero-forcing kernel to pass (replacing the normal-equations solve
by a pseudo-inverse moves capacities by up to ~5e-6 relative).
"""

from __future__ import annotations

import base64
import json
import math
from array import array
from pathlib import Path

CAPACITY_REL_TOL = 1e-4
LEDGER_COLUMNS = "t,capacity_bps_hz,min_power_dbm,coverage,feasible"

# per-row flag: 0 infeasible, 1 feasible but below the floor, 2 covered
INFEASIBLE, FEASIBLE, COVERED = "0", "1", "2"


def read_body(path: Path) -> list[tuple[int, float, float, str]]:
    """Ledger rows as (t, capacity, min power dBm, flag); raises ValueError."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#") or line == LEDGER_COLUMNS:
                continue
            fields = line.split(",")
            if len(fields) != 5 or not {fields[3], fields[4]} <= {"0", "1"}:
                raise ValueError(f"malformed ledger row {line!r}")
            covered, feasible = fields[3] == "1", fields[4] == "1"
            if covered and not feasible:
                raise ValueError(f"covered but infeasible row {line!r}")
            flag = COVERED if covered else FEASIBLE if feasible else INFEASIBLE
            rows.append((int(fields[0]), float(fields[1]), float(fields[2]), flag))
    return rows


def best_covered(rows) -> int | None:
    """t of the covered row with the largest capacity, lowest t on ties."""
    best = None
    for t, cap, _, flag in rows:
        if flag == COVERED and (best is None or cap > best[1]):
            best = (t, cap)
    return None if best is None else best[0]


def ledger_reference(rows) -> dict:
    """The compact reference entry stored for one scenario seed."""
    caps = array("f", [cap for _, cap, _, _ in rows])
    return {
        "rows": len(rows),
        "best_t": best_covered(rows),
        "flags": "".join(flag for *_, flag in rows),
        "capacity_f32": base64.b64encode(caps.tobytes()).decode(),
    }


def check_ledger(path: Path, ref: dict, stride: int, floor_dbm: float) -> list[str]:
    """Errors found in a ledger body against its reference entry."""
    try:
        rows = read_body(path)
    except (OSError, ValueError) as err:
        return [f"{path.name}: {err}"]
    errors = []
    if len(rows) != ref["rows"]:
        errors.append(f"{len(rows)} rows, reference {ref['rows']}")
    for i, (t, _, _, _) in enumerate(rows):
        if t != 1 + i * stride:
            errors.append(f"row {i + 1} has t={t}, expected {1 + i * stride}")
            break
    ref_caps = array("f")
    ref_caps.frombytes(base64.b64decode(ref["capacity_f32"]))
    for i, ((t, cap, power, flag), ref_flag, ref_cap) in enumerate(
        zip(rows, ref["flags"], ref_caps)
    ):
        if flag != ref_flag:
            errors.append(f"t={t}: flag {flag}, reference {ref_flag}")
        elif flag == INFEASIBLE:
            if not (math.isnan(cap) and math.isnan(power)):
                errors.append(f"t={t}: infeasible row carries numbers")
        elif not math.isclose(cap, ref_cap, rel_tol=CAPACITY_REL_TOL):
            errors.append(f"t={t}: capacity {cap!r}, reference {ref_cap!r}")
        elif (flag == COVERED) != (power >= floor_dbm):
            errors.append(f"t={t}: coverage flag disagrees with {power} dBm")
        if len(errors) >= 10:
            break
    if best_covered(rows) != ref["best_t"]:
        errors.append(f"best covered t={best_covered(rows)}, reference {ref['best_t']}")
    return errors


def check_optimize(out_dir: Path, ref: dict, stride: int, floor_dbm: float) -> list[str]:
    """Ledger body plus the result summary and the other output files."""
    errors = check_ledger(out_dir / "ledger.csv", ref, stride, floor_dbm)
    try:
        result = json.loads((out_dir / "result.json").read_text())
        if result["evaluated_tilings"] != ref["rows"]:
            errors.append(f"result.json evaluated {result['evaluated_tilings']} tilings")
        best = result["best"] and result["best"]["tiling_index"]
        if best != ref["best_t"]:
            errors.append(f"result.json best t={best}, reference {ref['best_t']}")
    except (OSError, ValueError, KeyError, TypeError) as err:
        errors.append(f"result.json: {err!r}")
    expected = ["drops.json", "best_tiling.txt", "best_tiling.svg", "distribution_best.csv"]
    if ref["best_t"] is not None:
        expected.append("best_precoders.npz")
    for name in expected:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            errors.append(f"missing or empty {name}")
    return errors


def dump_reference(path: Path) -> dict:
    """Line count and the first and last dumped covers of a JSON-lines dump."""
    lines = 0
    with open(path, "rb") as fh:
        fh.readline()
        first = fh.readline()
        fh.seek(0)
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
        fh.seek(max(0, fh.tell() - 65536))
        tail = fh.read().rstrip(b"\n")
        last = tail[tail.rfind(b"\n") + 1 :]
    return {
        "lines": lines,
        "first": json.loads(first)["placements"],
        "last": json.loads(last)["placements"],
    }


def check_enumerate(stdout: str, dump: Path, ref: dict) -> list[str]:
    """Printed count, dump line count and the first/last dumped covers."""
    errors = []
    printed = stdout.strip().splitlines()[-1:] or ["<nothing>"]
    if printed[0] != str(ref["covers"]):
        errors.append(f"printed {printed[0]!r}, reference {ref['covers']}")
    try:
        got = dump_reference(dump)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return errors + [f"{dump.name}: {err!r}"]
    if got["lines"] != ref["covers"] + 1:
        errors.append(f"{dump.name}: {got['lines']} lines, expected {ref['covers'] + 1}")
    for key in ("first", "last"):
        if got[key] != ref[key]:
            errors.append(f"{dump.name}: {key} cover {got[key]}, reference {ref[key]}")
    return errors
