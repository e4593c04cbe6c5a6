"""Tests of the benchmark harness on the smoke workloads (seconds each).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from check import check_enumerate, check_optimize
from harness import run_cli
from tracing import Tracer
from run import ROOT, load_reference
from workloads import WORKLOADS, output_dir, scenario_seed, write_config

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_json_workloads_exist():
    assert all(w["name"] in WORKLOADS for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("workload", ["smoke", "smoke-enumerate"])
def test_smoke_end_to_end_prints_every_metric(workload):
    metrics = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"))[
        "metrics"
    ]
    assert {name: m["unit"] for name, m in metrics.items()} == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())


def test_smoke_trace_prints_every_per_layer_metric():
    metrics = _result(_bench("--workload", "smoke-enumerate", "--seed", "7", "--seconds", "1", "--trace", "1"))[
        "metrics"
    ]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    assert metrics["tiling.covers"]["value"] == 48 + 64
    # a tiny run: the tracer's fixed bookkeeping weighs more than at full size
    assert 0 < metrics["trace.unattributed_share"]["value"] < 0.10


def test_group_self_time_is_unattributed():
    tr = Tracer()
    with tr.group("trace"):
        with tr.group("stage"):
            tr.call("layer.work", time.sleep, 0.05)
            time.sleep(0.05)
    wall = tr.spans[0][2] - tr.spans[0][1]
    assert 0.04 < tr.attributed_s() < 0.07
    assert 0.3 < (wall - tr.attributed_s()) / wall < 0.7


def test_missing_program_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    """One smoke optimize run; returns its output dir and reference entry."""
    w = WORKLOADS["smoke"]
    work = tmp_path_factory.mktemp("smoke")
    config = write_config(w, scenario_seed(4), "P", work)
    launch = run_cli(ROOT, ["optimize", "--config", str(config)], work / "stderr.txt")
    assert launch.returncode == 0, launch.stderr
    return output_dir(work, "P"), load_reference("smoke")["seeds"][str(scenario_seed(4))]


def _corrupt(ledger: Path, edit) -> None:
    lines = ledger.read_text().splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if line[0].isdigit()]
    edit(lines, body)
    ledger.write_text("".join(lines))


def _bump_capacity(lines, body):
    t, cap, rest = lines[body[5]].split(",", 2)
    lines[body[5]] = f"{t},{float(cap) * 1.001!r},{rest}"


def _flip_coverage(lines, body):
    fields = lines[body[7]].rstrip("\n").split(",")
    fields[3] = "0" if fields[3] == "1" else "1"
    lines[body[7]] = ",".join(fields) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        _bump_capacity,
        _flip_coverage,
        lambda lines, body: lines.pop(body[3]),
        lambda lines, body: lines.__setitem__(body[2], lines[body[2]].rstrip("\n") + ",\n"),
    ],
    ids=["capacity", "coverage-flag", "missing-row", "extra-field"],
)
def test_corrupted_ledger_row_fails_the_check(smoke_run, tmp_path, edit):
    out_dir, ref = smoke_run
    w = WORKLOADS["smoke"]
    assert check_optimize(out_dir, ref, w.stride, w.floor_dbm) == []
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    _corrupt(copy / "ledger.csv", edit)
    assert check_optimize(copy, ref, w.stride, w.floor_dbm)


def test_capacity_within_tolerance_passes(smoke_run, tmp_path):
    out_dir, ref = smoke_run
    w = WORKLOADS["smoke"]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)

    def nudge(lines, body):
        for i in body:
            t, cap, rest = lines[i].split(",", 2)
            lines[i] = f"{t},{float(cap) * (1 + 1e-6)!r},{rest}"

    _corrupt(copy / "ledger.csv", nudge)
    assert check_optimize(copy, ref, w.stride, w.floor_dbm) == []


def test_truncated_dump_fails_the_check(tmp_path):
    w = WORKLOADS["smoke-enumerate"]
    config = write_config(w, 1, "P", tmp_path)
    dump = tmp_path / "dump.jsonl"
    launch = run_cli(
        ROOT, ["enumerate", "--config", str(config), "--dump-json", str(dump)], tmp_path / "stderr.txt"
    )
    ref = load_reference("smoke-enumerate")["alphabets"]["P"]
    assert check_enumerate(launch.stdout, dump, ref) == []
    lines = dump.read_text().splitlines(keepends=True)
    dump.write_text("".join(lines[:-1]))
    assert check_enumerate(launch.stdout, dump, ref)
