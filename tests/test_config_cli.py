import json
import os

import numpy as np
import pytest

from apertile.cli import main
from apertile.config import ApertureConfig, BudgetConfig, RunConfig
from apertile.geometry import BeamWeights, ElementPattern
from apertile.metrics import distribution
from apertile.optimizer import read_ledger
from apertile.reports import (
    classify_tiles,
    far_field_cut,
    render_svg,
    write_distribution_csv,
    write_far_field_csv,
)
from apertile.scenario import ScenarioParams
from apertile.shapes import alphabet
from apertile.tiling import (
    Aperture,
    baseline_tiling,
    build_incidence_matrix,
    cover_to_json,
    enumerate_exact_covers,
    generate_placements,
)

from test_geometry import reference_geometry


def tiny_config(**overrides):
    defaults = dict(
        aperture=ApertureConfig(columns=3, rows=2),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=3, seed=5
        ),
        alphabet="domino",
        workers=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    cfg.save(path)
    return str(path)


# --- config ---------------------------------------------------------------

def test_round_trip_identity(tmp_path):
    cfg = tiny_config(
        pattern=ElementPattern(boresight_gain_dbi=6.0),
        budget=BudgetConfig(tx_power_dbm=40.0),
    )
    path = write_config(tmp_path, cfg)
    assert RunConfig.load(path) == cfg


def test_config_hash_tracks_content():
    a = tiny_config()
    b = tiny_config()
    assert a.config_hash() == b.config_hash()
    c = tiny_config(frequency_ghz=2.6)
    assert a.config_hash() != c.config_hash()
    # how and where a run goes does not change its results
    assert tiny_config(workers=3, output_dir="elsewhere").config_hash() == a.config_hash()


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"frequenzy_ghz": 3.5})
    with pytest.raises(ValueError, match="unknown ScenarioParams keys"):
        RunConfig.from_dict({"scenario": {"kind": "uma", "isd": 1.0}})


def test_validation_flags_too_many_users():
    cfg = tiny_config(scenario=ScenarioParams(
        kind="uma", isd_m=500.0, bs_height_m=25.0, drops=1, users=4, seed=1
    ))
    with pytest.raises(ValueError, match="exceed the minimum tile count"):
        cfg.validate()


def test_default_config_matches_reference_setup():
    cfg = RunConfig()
    assert (cfg.aperture.columns, cfg.aperture.rows) == (8, 12)
    assert cfg.frequency_ghz == 3.5
    assert cfg.budget.tx_power_dbm == 43.0
    assert cfg.budget.coverage_threshold_dbm == -120.0
    assert cfg.scenario.users == 16
    assert cfg.scenario.drops == 200
    geometry = cfg.geometry()
    lam = geometry.wavelength_m
    assert geometry.spacing_y_m == pytest.approx(0.5 * lam)
    assert geometry.spacing_z_m == pytest.approx(0.7 * lam)


def test_custom_alphabet_file(tmp_path):
    doc = {"shapes": [{"name": "bar", "cells": [[0, 0], [1, 0]]}]}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(doc))
    cfg = tiny_config(alphabet_file=str(path))
    shapes = cfg.shapes()
    assert [s.name for s in shapes] == ["bar"]


def test_config_hash_reads_the_alphabet_file_content(tmp_path, capsys):
    # a default config hashes as it always has, so its old ledgers resume
    assert RunConfig().config_hash() == "28b8f472e7cb782f"
    dominoes = {"shapes": [{"name": "bar", "cells": [[0, 0], [1, 0]]}]}
    first = tmp_path / "a.json"
    first.write_text(json.dumps(dominoes))
    cfg = tiny_config(alphabet_file=str(first), output_dir=str(tmp_path / "out"))
    (tmp_path / "elsewhere").mkdir()
    second = tmp_path / "elsewhere" / "b.json"
    second.write_text(json.dumps(dominoes))
    assert tiny_config(alphabet_file=str(second)).config_hash() == cfg.config_hash()

    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 0
    ledger = tmp_path / "out" / "ledger.csv"
    before = ledger.read_bytes()
    # vertical dominoes only: one tiling of the 3x2 panel instead of three
    dominoes["shapes"][0]["rotations"] = False
    first.write_text(json.dumps(dominoes))
    capsys.readouterr()
    assert main(["optimize", "--config", path, "--resume"]) == 1
    assert "different config" in capsys.readouterr().err
    assert ledger.read_bytes() == before


@pytest.mark.parametrize("cap", [0.5, float("nan")])
def test_cli_refuses_a_condition_cap_below_one(tmp_path, capsys, cap):
    # cond(H) >= 1, so such a cap would make every tiling infeasible
    path = write_config(tmp_path, tiny_config(zf_condition_cap=cap, output_dir=str(tmp_path)))
    assert main(["optimize", "--config", path]) == 1
    assert "zf_condition_cap" in capsys.readouterr().err
    assert not (tmp_path / "ledger.csv").exists()


def test_an_infinite_condition_cap_is_accepted():
    tiny_config(zf_condition_cap=float("inf")).validate()


# --- reports helpers ----------------------------------------------------------

def test_classify_tiles_identifies_orientations():
    aperture = Aperture(8, 12)
    cover = baseline_tiling(aperture)
    kinds = classify_tiles(cover, aperture, alphabet("baseline"))
    assert all(k == (1, 0) for k in kinds)
    # a foreign alphabet cannot classify the bars
    assert classify_tiles(cover, aperture, alphabet("domino")) == [None] * 16


def test_render_svg_contains_cells_and_comment():
    aperture = Aperture(4, 6)
    cover = baseline_tiling(aperture)
    svg = render_svg(cover, aperture, alphabet("baseline"), comment="hash=xyz")
    assert svg.startswith("<svg")
    assert "hash=xyz" in svg
    assert svg.count("<rect") == 24


def test_far_field_cut_peaks_at_boresight():
    geometry = reference_geometry(columns=4, rows=6)
    cover = baseline_tiling(Aperture(4, 6))
    weights = BeamWeights(cover, np.ones((1, 2, 4), dtype=complex))
    rows = far_field_cut(geometry, ElementPattern(), weights, cut="azimuth", points=181)
    angles = [a for a, _ in rows]
    powers = [p for _, p in rows]
    assert angles[0] == -90.0 and angles[-1] == 90.0
    assert max(powers) == powers[angles.index(0.0)]
    with pytest.raises(ValueError, match="cut"):
        far_field_cut(geometry, ElementPattern(), weights, cut="diagonal")


def test_csv_writers_include_provenance(tmp_path, rng):
    dist = distribution(rng.uniform(0, 10, size=100))
    dist_path = tmp_path / "dist.csv"
    write_distribution_csv(dist_path, dist, {"config_hash": "abc", "seed": 7})
    text = dist_path.read_text()
    assert text.startswith("# config_hash=abc\n# seed=7\n")
    assert text.splitlines()[2] == "bin_lower_edge_bps_hz,pdf,cdf"
    assert len(text.splitlines()) == 3 + 20

    ff_path = tmp_path / "cut.csv"
    write_far_field_csv(ff_path, [(0.0, -3.0), (1.0, -4.0)], {"config_hash": "abc"})
    lines = ff_path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "angle_deg,power_db"


# --- CLI ------------------------------------------------------------------------

def test_cli_enumerate_counts(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config())
    assert main(["enumerate", "--config", path]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_cli_enumerate_baseline_alphabet(tmp_path, capsys):
    cfg = tiny_config(
        aperture=ApertureConfig(8, 12),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=1, users=16, seed=1
        ),
        alphabet="baseline",
    )
    path = write_config(tmp_path, cfg)
    assert main(["enumerate", "--config", path]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_enumerate_dumps_covers(tmp_path, capsys):
    path = write_config(tmp_path, tiny_config())
    dump = tmp_path / "covers.jsonl"
    art = tmp_path / "covers.txt"
    assert main([
        "enumerate", "--config", path,
        "--dump-json", str(dump), "--dump-ascii", str(art), "--limit", "2",
    ]) == 0
    lines = dump.read_text().splitlines()
    assert "config_hash" in lines[0]
    assert len(lines) == 3  # provenance + 2 covers
    doc = json.loads(lines[1])
    assert doc["values_row_major"] == [1, 1, 2, 3, 3, 2]
    assert art.read_text().count("\n\n") == 2


def test_cli_enumerate_limit_stops_the_dump_but_not_the_count(tmp_path, capsys):
    cfg = tiny_config(aperture=ApertureConfig(6, 6), alphabet="P+L")
    path = write_config(tmp_path, cfg)
    assert main(["enumerate", "--config", path]) == 0
    count = capsys.readouterr().out.strip()
    assert count == "64"
    aperture = Aperture(6, 6)
    matrix = build_incidence_matrix(generate_placements(aperture, cfg.shapes()), aperture)
    expected = [json.dumps(cover_to_json(c, aperture)) for c in enumerate_exact_covers(matrix)]
    for limit in (1, 5, 63, 64, 65, 0):
        dump = tmp_path / f"covers_{limit}.jsonl"
        art = tmp_path / f"covers_{limit}.txt"
        assert main([
            "enumerate", "--config", path,
            "--dump-json", str(dump), "--dump-ascii", str(art), "--limit", str(limit),
        ]) == 0
        assert capsys.readouterr().out.strip() == count
        lines = dump.read_text().splitlines()
        assert len(lines) == 1 + min(limit, 64)
        assert lines[1:] == expected[:limit]
        assert art.read_text().count("\n\n") == min(limit, 64)
    dump = tmp_path / "covers.jsonl"
    assert main(["enumerate", "--config", path, "--dump-json", str(dump)]) == 0
    assert capsys.readouterr().out.strip() == count
    assert dump.read_text().splitlines()[1:] == expected


def test_cli_optimize_writes_outputs_and_is_deterministic(tmp_path, capsys):
    cfg = tiny_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
        output_dir=str(tmp_path / "out1"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 0
    out1 = tmp_path / "out1"
    for name in (
        "ledger.csv",
        "result.json",
        "drops.json",
        "best_precoders.npz",
        "best_tiling.txt",
        "best_tiling.svg",
        "baseline_tiling.txt",
        "baseline_tiling.svg",
        "distribution_best.csv",
        "distribution_baseline.csv",
    ):
        assert (out1 / name).exists(), name

    meta, rows = read_ledger(out1 / "ledger.csv")
    assert meta["config_hash"] == cfg.config_hash()
    assert len(rows) == 8
    result = json.loads((out1 / "result.json").read_text())
    assert result["total_tilings"] == 8
    assert result["best"]["covered"] is True

    assert main(["optimize", "--config", path, "--output-dir", str(tmp_path / "out2")]) == 0
    assert (out1 / "ledger.csv").read_bytes() == (tmp_path / "out2" / "ledger.csv").read_bytes()
    assert (out1 / "result.json").read_text() != ""


def test_cli_optimize_infeasible_exit_code(tmp_path, capsys):
    cfg = tiny_config(
        budget=BudgetConfig(coverage_threshold_dbm=50.0),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 2


def test_cli_evaluate_baseline(tmp_path, capsys):
    cfg = tiny_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "eval.json"
    assert main(["evaluate", "--config", path, "--tiling", "baseline", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["feasible"] is True
    assert doc["capacity_bps_hz"] > 0
    assert len(doc["per_drop_sum_rates"]) == 2
    assert doc["config_hash"] == cfg.config_hash()


def test_cli_evaluate_cover_file(tmp_path, capsys):
    cfg = tiny_config(output_dir=str(tmp_path))
    path = write_config(tmp_path, cfg)
    dump = tmp_path / "covers.jsonl"
    main(["enumerate", "--config", path, "--dump-json", str(dump), "--limit", "1"])
    capsys.readouterr()
    cover_doc = json.loads(dump.read_text().splitlines()[1])
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_doc))
    assert main(["evaluate", "--config", path, "--tiling", str(cover_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tiling"] == str(cover_path)


def test_cli_report(tmp_path, capsys):
    cfg = tiny_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    main(["optimize", "--config", path])
    capsys.readouterr()
    summary_path = tmp_path / "summary.json"
    assert main([
        "report", "--ledger", str(tmp_path / "out" / "ledger.csv"),
        "--json", str(summary_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "capacity bps/Hz" in out
    assert "beating baseline" in out
    summary = json.loads(summary_path.read_text())
    assert summary["summary"]["rows"] == 8


def test_cli_render(tmp_path, capsys):
    cfg = tiny_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
    )
    path = write_config(tmp_path, cfg)
    svg_path = tmp_path / "tiling.svg"
    assert main(["render", "--config", path, "--tiling", "baseline", "--svg", str(svg_path), "--ascii"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) == 6  # six aperture rows
    assert svg_path.read_text().startswith("<svg")


def test_cli_bad_config_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["enumerate", "--config", missing]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": "Z"}))
    assert main(["enumerate", "--config", str(bad)]) == 1


def test_cli_render_rejects_mismatched_cover(tmp_path, capsys):
    cfg = tiny_config()
    path = write_config(tmp_path, cfg)
    from apertile.tiling import cover_to_json

    cover = baseline_tiling(Aperture(4, 6))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_to_json(cover, Aperture(4, 6))))
    assert main(["render", "--config", path, "--tiling", str(cover_path)]) == 1
