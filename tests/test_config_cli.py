import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import apertile
from apertile.cli import main
from apertile.config import ApertureConfig, BudgetConfig, ChannelModel, RunConfig
from apertile.geometry import ElementPattern, expand_weights
from apertile.metrics import distribution
from apertile.ledger import read_ledger
from apertile.reports import (
    classify_tiles,
    far_field_cut,
    render_svg,
    write_distribution_csv,
    write_far_field_csv,
)
from apertile.scenario import ScenarioParams
from apertile.shapes import alphabet, save_alphabet
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


def test_config_hash_is_the_sha256_of_the_canonical_config():
    # CPython's own SHA-256 gives OpenSSL's digest
    cfg = tiny_config()
    doc = cfg.to_dict()
    del doc["workers"], doc["output_dir"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert cfg.config_hash() == hashlib.sha256(canonical.encode()).hexdigest()[:16]


def run_python(code, check=True):
    """Run `code` in a fresh interpreter that imports apertile from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check
    )


def test_enumerate_does_not_import_openssl(tmp_path):
    # hashlib loads OpenSSL's _hashlib, about 3.4 MB resident; the dump
    # writer is a bare fork (apertile.forked, loaded only to dump), not a
    # multiprocessing process; and neither process loads numpy or an
    # apertile module that evaluates
    path = write_config(tmp_path, tiny_config())
    dump = ["--dump-json", str(tmp_path / "covers.jsonl")]
    grids = ["--dump-ascii", str(tmp_path / "covers.txt")]
    searching = ["apertile", "apertile.cli", "apertile.config", "apertile.search", "apertile.shapes"]
    for extra in (
        [], dump, [*dump, "--limit", "0"], [*dump, "--limit", "17"], grids,
        [*grids, "--limit", "1"], [*dump, *grids, "--limit", "17"],
    ):
        out = run_python(
            "import sys\n"
            "import apertile.cli as cli\n"
            "def loaded():\n"
            "    names = ('_hashlib', 'multiprocessing', 'numpy')\n"
            "    apertile = [m for m in sys.modules if m.startswith('apertile')]\n"
            "    print(*(n in sys.modules for n in names), *sorted(apertile), flush=True)\n"
            "write = cli._write_dumps\n"
            "cli._write_dumps = lambda *args: (write(*args), loaded())\n"
            f"cli.main(['enumerate', '--config', {str(path)!r}, *{extra!r}])\n"
            "loaded()\n"
        )
        lines = out.stdout.splitlines()
        # the writer's line, if any, then the count, then this process's line
        assert lines[-2:-1] == ["3"]
        assert len(lines) == (3 if extra else 2)
        modules = sorted(searching + ["apertile.forked"] * bool(extra))
        for line in lines[:-2] + lines[-1:]:
            assert line.split() == ["False", "False", "False", *modules], extra


def test_report_does_not_import_the_evaluation_modules(tmp_path):
    # the ledger module reads the file; summarizing it adds numpy alone
    ledger = tmp_path / "ledger.csv"
    ledger.write_text(
        "# apertile ledger v1\n# config_hash=0123\n# baseline_capacity_bps_hz=2.0\n"
        "t,capacity_bps_hz,min_power_dbm,coverage,feasible\n"
        "1,nan,nan,0,0\n2,1.5,-inf,0,1\n3,2.5,-60.0,1,1\n"
    )
    summary = tmp_path / "summary.json"
    out = run_python(
        "import sys\n"
        "from apertile.cli import main\n"
        f"print(main(['report', '--ledger', {str(ledger)!r}, '--json', {str(summary)!r}]))\n"
        "print(*sorted(m for m in sys.modules if m.startswith('apertile')))\n"
    )
    *_, code, loaded = out.stdout.splitlines()
    assert code == "0"
    assert loaded.split() == [
        "apertile", "apertile.cli", "apertile.config", "apertile.ledger", "apertile.search",
        "apertile.shapes",
    ]
    assert json.loads(summary.read_text())["summary"]["beating_baseline"] == 1


def test_unknown_keys_rejected():
    with pytest.raises(ValueError, match="unknown config keys"):
        RunConfig.from_dict({"frequenzy_ghz": 3.5})
    with pytest.raises(ValueError, match="unknown ScenarioParams keys"):
        RunConfig.from_dict({"scenario": {"kind": "uma", "isd": 1.0}})


@pytest.mark.parametrize(
    "probe, named",
    [
        ({"aperture": 5}, "aperture must be a JSON object"),
        ({"scenario": {"seed": 1}}, "missing scenario keys: ['scenario.kind'"),
        ({"zf_condition_cap": "1e8"}, "zf_condition_cap must be a number"),
        ({"scenario": {"kind": "uma", "isd_m": "500", "bs_height_m": 25}}, "scenario.isd_m must be a number"),
        ({"alphabet_file": 7}, "alphabet_file must be of type str"),
        ({"channel": []}, "channel must be a JSON object"),
        ({"frequency_ghz": None}, "frequency_ghz must be a number"),
        ({"frequency_ghz": 10**400}, "frequency_ghz must be finite"),
        ({"frequency_ghz": 0}, "frequency_ghz must be positive, got 0"),
        ({"frequency_ghz": -3.5}, "frequency_ghz must be positive, got -3.5"),
        ({"aperture": {"spacing_y_wavelengths": 0.0}}, "aperture.spacing_y_wavelengths must be positive"),
        ({"aperture": {"spacing_z_wavelengths": -0.7}}, "aperture.spacing_z_wavelengths must be positive"),
        ({"scenario": {"kind": "uma", "isd_m": 0, "bs_height_m": 25}}, "scenario.isd_m must be positive"),
        ({"zf_condition_cap": 10**400}, "zf_condition_cap must be finite"),
        ({"output_dir": 3}, "output_dir must be of type str"),
        ({"aperture": {"spacing_y_wavelengths": "0.5"}}, "aperture.spacing_y_wavelengths must be a number"),
        ({"pattern": {"slant_v_deg": True}}, "pattern.slant_v_deg must be a number"),
        ([], "config must be a JSON object"),
        ({"alphabet_file": "absent.json"}, "absent.json"),
        ({"alphabet_file": {"alphabet": "P"}}, "alphabet.json has no 'shapes' list"),
        ({"alphabet_file": {"shapes": [{"name": "bar"}]}}, "alphabet.json: shape 1 needs a name and cells"),
        (None, "no config file at"),
    ],
    ids=[
        "aperture-number", "scenario-without-kind", "cap-string", "isd-string",
        "alphabet-file-number", "channel-list", "frequency-null", "frequency-beyond-float",
        "frequency-zero", "frequency-negative", "spacing-y-zero", "spacing-z-negative", "isd-zero",
        "cap-beyond-float", "output-dir-number", "spacing-string", "slant-bool", "document-list",
        "alphabet-file-absent", "alphabet-without-shapes", "shape-without-cells", "config-directory",
    ],
)
def test_cli_refuses_a_malformed_config_before_any_work(tmp_path, monkeypatch, capsys, probe, named):
    # a config error (exit 1) that names its key, not an internal error or a run
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    if probe is None:
        path.mkdir()  # --config names a directory
    else:
        doc = probe
        if isinstance(probe, dict):  # over a 4x6 P, 2-drop study writing under tmp_path/out
            study = RunConfig(
                aperture=ApertureConfig(columns=4, rows=6),
                scenario=ScenarioParams(kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4),
                workers=1,
                output_dir=str(tmp_path / "out"),
            )
            doc = {**study.to_dict(), **probe}
            if isinstance(probe.get("alphabet_file"), dict):
                (tmp_path / "alphabet.json").write_text(json.dumps(probe["alphabet_file"]))
                doc["alphabet_file"] = str(tmp_path / "alphabet.json")
        path.write_text(json.dumps(doc))
    written = sorted(os.listdir(tmp_path))
    for command in (
        ["enumerate"], ["optimize"], ["evaluate", "--tiling", "baseline"], ["render", "--tiling", "baseline"]
    ):
        assert main([*command, "--config", str(path)]) == 1, command
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err, command
        assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == written  # no output directory, ledger or dump


def test_a_config_section_refuses_a_value_of_the_wrong_kind():
    with pytest.raises(ValueError, match="aperture must be of type ApertureConfig, got 5"):
        RunConfig(aperture=5)
    with pytest.raises(ValueError, match="scenario.kind must be of type str, got 3"):
        ScenarioParams(kind=3, isd_m=500.0, bs_height_m=25.0)
    with pytest.raises(ValueError, match="pattern.slant_v_deg must be a number, got True"):
        ElementPattern(slant_v_deg=True)


def test_every_config_field_is_of_a_kind_that_is_checked():
    # a field of another kind would go unchecked, so it must fail here first;
    # and each section's __post_init__ must refuse a wrong value in each field
    top = RunConfig()
    sections = [getattr(top, f.name) for f in fields(top) if is_dataclass(getattr(top, f.name))]
    kinds = {"int", "float", "str", *(type(section).__name__ for section in sections)}
    for cfg in (top, *sections):
        prefix = next((f"{f.name}." for f in fields(RunConfig) if f.type == type(cfg).__name__), "")
        for f in fields(cfg):
            assert f.type.removesuffix(" | None") in kinds, f"{prefix}{f.name}: {f.type}"
            with pytest.raises(ValueError, match=rf"^{prefix}{f.name} must be "):
                replace(cfg, **{f.name: object()})


def test_config_hash_of_every_field_set(tmp_path):
    # every optional field set, the alphabet file's shapes included: the pin
    # keeps the hash, and so the resume of old ledgers, of such a config
    path = tmp_path / "shapes.json"
    save_alphabet(alphabet("P+L"), path)
    cfg = RunConfig(
        aperture=ApertureConfig(columns=4, rows=6, spacing_y_wavelengths=0.45, spacing_z_wavelengths=0.6),
        scenario=ScenarioParams(
            kind="umi", isd_m=200.0, bs_height_m=10.0, ue_height_mode="floor", ue_height_m=2.0,
            drops=3, users=4, seed=9, centroid_x_m=20.0, centroid_y_m=-5.0,
        ),
        pattern=ElementPattern(6.0, 60.0, 50.0, 25.0, -40.0, 40.0),
        budget=BudgetConfig(40.0, -95.0, -115.0),
        channel=ChannelModel("ploss_exp", 3.0, 10.0),
        frequency_ghz=2.6, alphabet="L", alphabet_file=str(path), zf_condition_cap=1e6,
        workers=2, tiling_stride=3, output_dir="elsewhere",
    )
    assert cfg.config_hash() == "6783bd114e63bc9a"
    assert RunConfig.from_dict(json.loads(cfg.to_json())).config_hash() == "6783bd114e63bc9a"


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


@pytest.mark.parametrize(
    "field,value",
    [
        ("budget.tx_power_dbm", float("nan")),
        ("budget.tx_power_dbm", float("inf")),
        ("budget.coverage_threshold_dbm", float("nan")),
        ("frequency_ghz", float("nan")),
        ("scenario.isd_m", float("nan")),
    ],
)
def test_validation_refuses_a_number_that_is_not_finite(tmp_path, capsys, field, value):
    doc = tiny_config(output_dir=str(tmp_path)).to_dict()
    *parents, key = field.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        RunConfig.from_dict(doc)
    # the same refusal from a JSON config, before anything is written
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(path)]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "ledger.csv").exists()


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
    weights = expand_weights(cover, np.ones(4))
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


def test_cli_enumerate_leaves_no_child_process(tmp_path):
    path = write_config(tmp_path, tiny_config(aperture=ApertureConfig(6, 6), alphabet="P"))
    out = run_python(
        "import os\n"
        "from apertile.cli import main\n"
        f"main(['enumerate', '--config', {path!r}, '--dump-json', {str(tmp_path / 'c.jsonl')!r},"
        f" '--dump-ascii', {str(tmp_path / 'c.txt')!r}])\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('reaped')\n"
    )
    assert out.stdout.split() == ["48", "reaped"]
    assert len((tmp_path / "c.jsonl").read_text().splitlines()) == 49


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("limit", ["0", "3", str(1 << 62)])
def test_cli_enumerate_reports_the_writers_error(tmp_path, limit):
    # the dump writer's own error, not the broken pipe the walk then meets
    path = write_config(tmp_path, tiny_config(aperture=ApertureConfig(8, 12), alphabet="P"))
    out = run_python(
        "import sys\n"
        "from apertile.cli import main\n"
        f"sys.exit(main(['enumerate', '--config', {path!r}, '--dump-json', '/dev/full',"
        f" '--limit', {limit!r}]))\n",
        check=False,
    )
    assert out.returncode == 3
    assert out.stdout == ""
    assert out.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


def test_cli_enumerate_reaps_the_writer_when_the_walk_fails(tmp_path, capsys, monkeypatch):
    import apertile.cli as cli

    path = write_config(tmp_path, tiny_config(aperture=ApertureConfig(8, 12), alphabet="P"))
    forked = []
    walk = cli._CoverSearch.stream
    real_fork = os.fork

    def fork():
        forked.append(real_fork())
        return forked[-1]

    def failing_stream(self, start=1, step=1):
        yield from islice(walk(self, start, step), cli.DUMP_BATCH + 5)
        raise RuntimeError("walk failed")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli._CoverSearch, "stream", failing_stream)
    dump = tmp_path / "covers.jsonl"
    assert main(["enumerate", "--config", path, "--dump-json", str(dump)]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: walk failed\n"
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(forked[0], os.WNOHANG)
    # the writer wrote the batches it was sent, then ended on the closed pipe
    lines = dump.read_text().splitlines()
    assert lines[0].startswith('{"config_hash"')
    assert 1 < len(lines) <= 1 + cli.DUMP_BATCH + 5
    aperture = Aperture(8, 12)
    matrix = build_incidence_matrix(generate_placements(aperture, alphabet("P")), aperture)
    line = cli._cover_json_line(matrix)
    assert lines[1:] == [line(rows)[:-1] for _t, rows in islice(walk(cli._CoverSearch(matrix)), len(lines) - 1)]


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
    # the best row's power in the ledger, in result.json and on stdout
    (row,) = [row for row in rows if row.tiling_index == result["best"]["tiling_index"]]
    assert row.min_power_dbm == result["best"]["min_power_dbm"]
    printed = f"best tiling t={row.tiling_index}: {row.capacity_bps_hz:.4f} bps/Hz, "
    assert printed + f"min power {row.min_power_dbm:.2f} dBm" in capsys.readouterr().out.splitlines()

    assert main(["optimize", "--config", path, "--output-dir", str(tmp_path / "out2")]) == 0
    assert (out1 / "ledger.csv").read_bytes() == (tmp_path / "out2" / "ledger.csv").read_bytes()
    assert (out1 / "result.json").read_text() != ""


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_optimize_records_its_resources_and_report_prints_them(tmp_path, capsys, workers):
    cfg = tiny_config(workers=workers, output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 0
    resources = json.loads((tmp_path / "out" / "result.json").read_text())["resources"]
    assert set(resources) == {"parent", "workers"}
    for usage in resources.values():
        assert set(usage) == {"user_s", "system_s", "life_peak_rss_mb"}
        assert all(isinstance(v, float) and v >= 0 for v in usage.values())
    # CPU seconds of this run, split into user and system time from tick
    # samples, so only their sum is sure to be positive
    cpu = {who: r["user_s"] + r["system_s"] for who, r in resources.items()}
    assert cpu["parent"] > 0 and resources["parent"]["life_peak_rss_mb"] > 0
    if workers == 2:  # the joined pool workers
        assert cpu["workers"] > 0 and resources["workers"]["life_peak_rss_mb"] > 0
    capsys.readouterr()

    ledger = tmp_path / "out" / "ledger.csv"
    assert main(["report", "--ledger", str(ledger)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if "resources:" in l]
    assert lines == [
        "  resources: "
        + "; ".join(
            f"{who} {r['user_s']:.2f} s user, {r['system_s']:.2f} s system, "
            f"life peak RSS {r['life_peak_rss_mb']:.1f} MB"
            for who, r in resources.items()
        )
    ]
    # one written before the CPU seconds were per run is not printed
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    older = {who: {"max_rss_mb": r.pop("life_peak_rss_mb"), **r} for who, r in resources.items()}
    (tmp_path / "out" / "result.json").write_text(json.dumps({**doc, "resources": older}))
    assert main(["report", "--ledger", str(ledger)]) == 0
    assert "resources:" not in capsys.readouterr().out
    # a result.json of another config does not describe this ledger
    doc["config_hash"] = "0" * len(doc["config_hash"])
    (tmp_path / "out" / "result.json").write_text(json.dumps(doc))
    assert main(["report", "--ledger", str(ledger)]) == 0
    assert "resources:" not in capsys.readouterr().out


def test_cli_optimize_infeasible_exit_code(tmp_path, capsys):
    cfg = tiny_config(
        budget=BudgetConfig(coverage_threshold_dbm=50.0),
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 2


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_cli_reports_an_infeasible_baseline_without_nan(tmp_path, capsys):
    # at cap 30 the baseline's one drop is too ill-conditioned while every
    # P tiling passes, so there is no baseline to compare the best with
    cfg = tiny_config(
        aperture=ApertureConfig(4, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=1, users=4, seed=1
        ),
        alphabet="P",
        zf_condition_cap=30.0,
        output_dir=str(tmp_path / "out"),
    )
    path = write_config(tmp_path, cfg)
    assert main(["optimize", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "baseline infeasible at condition cap 30" in out
    assert "gain" not in out and "nan" not in out
    ledger = tmp_path / "out" / "ledger.csv"
    meta, _ = read_ledger(ledger)
    assert meta["baseline_capacity_bps_hz"] == "none"
    result = json.loads(
        (tmp_path / "out" / "result.json").read_text(), parse_constant=refuse_constant
    )
    assert result["best"]["feasible"] is True
    assert result["baseline"]["feasible"] is False
    assert result["baseline"]["capacity_bps_hz"] is None
    assert result["comparison"] is None

    assert main(["report", "--ledger", str(ledger)]) == 0
    assert "beating baseline" not in capsys.readouterr().out
    # older versions wrote an infeasible baseline's capacity as nan
    ledger.write_text(ledger.read_text().replace("capacity_bps_hz=none", "capacity_bps_hz=nan"))
    assert main(["report", "--ledger", str(ledger)]) == 0
    assert "beating baseline" not in capsys.readouterr().out

    evaluated = tmp_path / "eval.json"
    assert main(
        ["evaluate", "--config", path, "--tiling", "baseline", "--output", str(evaluated)]
    ) == 2
    for text in (evaluated.read_text(), capsys.readouterr().out):
        doc = json.loads(text, parse_constant=refuse_constant)
        assert doc["feasible"] is False
        assert doc["capacity_bps_hz"] is None and doc["per_drop_sum_rates"] is None


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
    assert f"  apertile_version: {apertile.__version__}\n" in out
    assert f"  numpy_version: {np.__version__}\n" in out
    summary = json.loads(summary_path.read_text())
    assert summary["summary"]["rows"] == 8


def test_cli_report_leaves_out_the_unterminated_last_line_of_a_killed_run(tmp_path, capsys):
    # a killed run's ledger, cut mid-line, reads as the same ledger cut at
    # its last newline, and the report says how many bytes it left out
    cfg = tiny_config(
        aperture=ApertureConfig(6, 6),
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=4, seed=5
        ),
        alphabet="P",
        workers=2,
        output_dir=str(tmp_path / "out"),
    )
    assert main(["optimize", "--config", write_config(tmp_path, cfg)]) == 0
    full = (tmp_path / "out" / "ledger.csv").read_bytes()
    half = len(full) // 2
    last_newline = full.rindex(b"\n", 0, half) + 1
    assert full.index(b"\nt,") < last_newline < half
    reports = {}
    for name, size in (("torn", half), ("whole", last_newline)):
        ledger = tmp_path / name / "ledger.csv"
        ledger.parent.mkdir()
        ledger.write_bytes(full[:size])
        capsys.readouterr()
        summary = tmp_path / name / "summary.json"
        assert main(["report", "--ledger", str(ledger), "--json", str(summary)]) == 0
        out = capsys.readouterr().out.replace(str(ledger), "ledger.csv")
        reports[name] = read_ledger(ledger), out, json.loads(summary.read_text())
    rows, out, doc = reports["torn"]
    note = f"  left out: an unterminated last line of {half - last_newline} bytes\n"
    assert note in out
    assert doc["summary"].pop("unterminated_bytes") == half - last_newline
    assert (rows, out.replace(note, ""), doc) == reports["whole"]
    assert "left out" not in reports["whole"][1]
    assert len(rows[1]) == reports["whole"][2]["summary"]["rows"] > 0


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


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_cli_optimize_refuses_a_seed_that_is_not_a_non_negative_integer(tmp_path, capsys, seed):
    # a config error before any work: no output directory is made
    doc = tiny_config(output_dir=str(tmp_path / "out")).to_dict()
    doc["scenario"]["seed"] = seed
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(path)]) == 1
    assert f"seed must be a non-negative integer, got {seed!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [("aperture.columns", 4.0), ("scenario.drops", 2.0), ("workers", 1.5), ("tiling_stride", True)],
)
def test_cli_refuses_an_integer_field_that_is_not_an_integer(tmp_path, capsys, key, value):
    # a config error (exit 1) before any work, not an internal one, and true is no 1
    doc = tiny_config(output_dir=str(tmp_path / "out")).to_dict()
    *sections, name = key.split(".")
    section = doc
    for part in sections:
        section = section[part]
    section[name] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for command in (["optimize"], ["render", "--tiling", "baseline"]):
        assert main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {key} must be a " in err and f" integer, got {value!r}" in err
    assert not (tmp_path / "out").exists()


def test_a_numpy_integer_seed_is_the_same_config_as_its_int(tmp_path):
    from apertile.optimizer import optimize

    plain = tiny_config()
    numpy_seed = tiny_config(
        scenario=ScenarioParams(
            kind="uma", isd_m=500.0, bs_height_m=25.0, drops=2, users=3, seed=np.int64(5)
        )
    )
    assert type(numpy_seed.scenario.seed) is int
    assert numpy_seed.config_hash() == plain.config_hash()
    optimize(plain, ledger_path=tmp_path / "plain.csv")
    optimize(numpy_seed, ledger_path=tmp_path / "numpy.csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_cli_render_rejects_mismatched_cover(tmp_path, capsys):
    cfg = tiny_config()
    path = write_config(tmp_path, cfg)
    from apertile.tiling import cover_to_json

    cover = baseline_tiling(Aperture(4, 6))
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_to_json(cover, Aperture(4, 6))))
    assert main(["render", "--config", path, "--tiling", str(cover_path)]) == 1
