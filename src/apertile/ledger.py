"""The ledger: one CSV row per scored tiling, after a `# key=value` header.

`optimize` writes the header and the rows as they merge, and resumes from
the rows of a killed run; `apertile report` summarizes them. This module
holds the format, the `# key=value` header that every CSV output shares,
its one reader and parser, the resume and the running fold of rows, and
imports nothing of apertile: `report` reads a ledger without the
evaluation modules, and numpy loads only when `summarize_ledger` runs.
"""

from __future__ import annotations

import math
import os
from array import array
from itertools import chain
from typing import Iterator, NamedTuple


class LedgerRow(NamedTuple):
    tiling_index: int
    capacity_bps_hz: float
    min_power_dbm: float
    covered: bool
    feasible: bool


LEDGER_COLUMNS = "t,capacity_bps_hz,min_power_dbm,coverage,feasible"
# %r round-trips floats exactly, so resumed ledgers reload losslessly
_ROW_FORMAT = "%d,%r,%r,%d,%d\n"


def write_header(fh, meta: dict, columns: str) -> None:
    """A CSV header: one `# key=value` line per item of `meta`, the lines
    that `_parse_ledger` reads back, then the column names."""
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    fh.write(columns + "\n")


def write_ledger_header(fh, meta: dict, baseline: float | None, versions: dict) -> None:
    """The header: `meta`, the baseline capacity ("none" when the baseline
    is missing or infeasible), `versions`, then the column names."""
    fh.write("# apertile ledger v1\n")
    baseline_text = "none" if baseline is None else repr(baseline)
    header = {**meta, "baseline_capacity_bps_hz": baseline_text, **versions}
    write_header(fh, header, LEDGER_COLUMNS)


def _ledger_lines(path, extent: dict) -> Iterator[str]:
    """The decoded lines of the ledger at `path` that end in a newline, as
    they are read, so not a last line that a killed run left unterminated.
    Once all are read, extent holds the "complete" bytes up to the last
    newline and the "torn" bytes after it. No other reader opens a ledger."""
    complete = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.endswith(b"\n"):
                complete += len(line)
                yield line.decode()
        extent.update(complete=complete, torn=fh.tell() - complete)


def read_ledger(path) -> tuple[dict, list[LedgerRow]]:
    """The header and the rows of the ledger at `path`, but an unterminated last line."""
    meta: dict[str, str] = {}
    return meta, list(_parse_ledger(_ledger_lines(path, {}), meta))


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
        # the flags must agree with the numbers: a feasible row has a finite
        # capacity and power, but for 0 W (-inf dBm) below the floor; an
        # infeasible one is uncovered and all NaN
        capacity, power = row.capacity_bps_hz, row.min_power_dbm
        if row.feasible:
            zero_power = power == -math.inf and not row.covered
            consistent = math.isfinite(capacity) and (math.isfinite(power) or zero_power)
        else:
            consistent = not row.covered and math.isnan(capacity) and math.isnan(power)
        if not consistent:
            raise ValueError(f"malformed ledger line: {line!r}")
        yield row


def summarize_ledger(rows, baseline_capacity: float | None = None) -> dict:
    """min/max/avg/var of capacity and min power, plus baseline comparison,
    of any iterable of rows; only their finite numbers are kept."""
    import numpy as np  # here, so that reading a ledger needs no numpy

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


def summarize_ledger_file(path) -> tuple[dict, dict]:
    """The header of the ledger at `path`, and `summarize_ledger` of its
    rows, streamed, against the baseline capacity that the header records.
    An unterminated last line is left out, and "unterminated_bytes" counts it."""
    meta: dict[str, str] = {}
    extent: dict[str, int] = {}
    rows = _parse_ledger(_ledger_lines(path, extent), meta)
    first = next(rows, None)  # the header precedes every row: meta is whole once one is read
    raw = meta.get("baseline_capacity_bps_hz")  # "nan": an infeasible baseline in older ledgers
    baseline = None if raw in (None, "none", "nan") else float(raw)
    summary = summarize_ledger(chain([] if first is None else [first], rows), baseline)
    if extent["torn"]:
        summary["unterminated_bytes"] = extent["torn"]
    return meta, summary


class _Fold:
    """Running aggregates of ledger rows merged in ascending t: their count,
    how many have a capacity above `baseline` (None: no baseline), and the
    best covered and unconstrained rows. Only a higher capacity replaces a
    best, so ties keep the lowest t."""

    def __init__(self, baseline: float | None):
        self.baseline, self.rows, self.beating = math.inf if baseline is None else baseline, 0, 0
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


def _resume(path, fold: _Fold, key: str, stride: int, versions: dict, info) -> bool:
    """Fold the ledger's rows at `path` as they are read, trusted, not
    recomputed, and cut a last line a killed run left unterminated (its
    tiling is evaluated again). Rows must be t = 1, 1+s, ... for stride s,
    under config hash `key`; a refused ledger is left untouched, and one
    written under other `versions` is resumed, the log says so, and True
    is returned."""
    meta: dict[str, str] = {}
    extent: dict[str, int] = {}
    for row in _parse_ledger(_ledger_lines(path, extent), meta):
        if meta.get("config_hash") != key:
            raise ValueError("existing ledger was written by a different config")
        t = 1 + stride * fold.rows
        if row.tiling_index != t:
            raise ValueError(
                f"cannot resume: ledger row t={row.tiling_index} where t={t} was "
                f"expected (rows must be t = 1, 1+{stride}, 1+{2 * stride}, ...)"
            )
        fold.add(row)
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
    if extent["torn"]:
        os.truncate(path, extent["complete"])
        info(f"dropped the unterminated last line of {path} ({extent['torn']} bytes)")
    return bool(fold.rows and moved)
