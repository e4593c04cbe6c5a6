"""The scripts under scripts/ run end to end, each as its own process."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from apertile.config import RunConfig
from apertile.ledger import read_ledger

from oracles import naive_far_field

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd, code=0):
    """Run scripts/`name` with the package from src/ and one BLAS thread,
    which must exit with `code`; its stdout, or its stderr on a failure."""
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
    assert out.returncode == code, out.stderr
    return out.stderr if code else out.stdout


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
    cfg = RunConfig.load(out / "config.json")
    geometry = cfg.geometry()
    ones = np.ones(geometry.element_count)
    for cut in ("azimuth", "elevation"):
        lines = (cuts / f"{cut}_cut.csv").read_text().splitlines()
        header = lines.index("angle_deg,power_db")
        rows = [tuple(map(float, line.split(","))) for line in lines[header + 1 :]]
        assert [angle for angle, _ in rows] == [-90.0, -45.0, 0.0, 45.0, 90.0]
        for angle, power_db in rows:
            # unit coefficients drive every element with weight 1, on the V port
            a = np.radians(angle)
            theta, phi = (np.pi / 2, a) if cut == "azimuth" else (np.pi / 2 - a, 0.0)
            field = naive_far_field(geometry, cfg.pattern, ones, theta, phi, "V")
            expected = 10 * np.log10(np.sum(np.abs(field) ** 2))
            assert power_db == pytest.approx(expected, rel=1e-9, abs=1e-9), (cut, angle)


def test_export_pattern_cuts_refuses_a_tiling_for_another_panel(demo, tmp_path):
    out, _ = demo  # the demo's config is 4x6; this cover has one tile per row of a 6x4 panel
    tiling = tmp_path / "rows_6x4.json"
    values = [q for q in range(1, 5) for _ in range(6)]
    tiling.write_text(json.dumps({"columns": 6, "rows": 4, "tile_count": 4, "values_row_major": values}))
    stderr = run_script(
        "export_pattern_cuts.py", "--config", str(out / "config.json"), "--tiling", str(tiling),
        "--out", str(tmp_path / "cuts"), cwd=tmp_path, code=1,
    )
    assert "error: tiling is for 6x4, config uses 4x6" in stderr
    assert not (tmp_path / "cuts").exists()


def test_no_script_loads_a_config_or_a_tiling_itself():
    # cli._load_config and cli._resolve_cover check what they load; a script
    # that calls the readers under them skips those checks
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                called = ast.unparse(node.func)
                reader = called.endswith("RunConfig.load") or called.split(".")[-1] == "load_cover"
                assert not reader, f"{path.name}:{node.lineno} calls {called}"


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
