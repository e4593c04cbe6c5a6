"""The scripts under scripts/ run end to end, each as its own process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apertile.optimizer import read_ledger

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    """Run scripts/`name` with the package from src/ and one BLAS thread;
    its stdout."""
    src = str(ROOT / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    stdout = run_script("run_demo.py", "--drops", "2", "--out", str(out), cwd=out)
    return out, stdout


def test_run_demo_writes_the_ledger_and_the_result(demo):
    out, stdout = demo
    result = json.loads((out / "result.json").read_text())
    meta, rows = read_ledger(out / "ledger.csv")
    assert len(rows) == result["evaluated_tilings"] == result["total_tilings"] > 0
    assert meta["config_hash"] == result["config_hash"]
    assert '"total_tilings"' in stdout


def test_export_pattern_cuts_writes_both_cuts(demo, tmp_path):
    out, _ = demo
    cuts = tmp_path / "cuts"
    run_script(
        "export_pattern_cuts.py", "--config", str(out / "config.json"),
        "--points", "5", "--out", str(cuts), cwd=tmp_path,
    )
    for cut in ("azimuth", "elevation"):
        lines = (cuts / f"{cut}_cut.csv").read_text().splitlines()
        header = lines.index("angle_deg,power_db")
        assert len(lines[header + 1 :]) == 5


def test_run_reference_study_writes_its_ledger_and_reports_it(tmp_path):
    out = tmp_path / "study"
    stdout = run_script(
        "run_reference_study.py", "--drops", "2", "--stride", "20000", "--workers", "1",
        "--out", str(out), cwd=tmp_path,
    )
    _, rows = read_ledger(out / "ledger.csv")
    assert [row.tiling_index for row in rows] == [1, 20001, 40001, 60001, 80001]
    assert f"ledger: {out / 'ledger.csv'}" in stdout
    assert "  rows: 5 (feasible " in stdout
