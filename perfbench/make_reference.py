#!/usr/bin/env python3
"""Regenerate `perfbench/reference/<workload>.json` from the current program.

    python3 perfbench/make_reference.py [workload ...]

Run from the root of a checkout.  A reference is only regenerated when a
change is meant to move the program's results; say why, with before/after
evidence, in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from check import dump_reference, ledger_reference, read_body
from harness import run_cli
from workloads import REFERENCE_DIR, REFERENCE_SEEDS, WORKLOADS, output_dir, write_config

ROOT = Path(__file__).resolve().parent.parent


def make(name: str, work: Path) -> dict:
    w = WORKLOADS[name]
    doc = {"workload": name}
    if w.command == "optimize":
        doc["seeds"] = {}
        for sseed in range(1, REFERENCE_SEEDS + 1):
            config = write_config(w, sseed, "P", work)
            launch = run_cli(ROOT, ["optimize", "--config", str(config)], work / "stderr.txt")
            if launch.returncode != 0:
                raise SystemExit(f"{name} seed {sseed}: exit {launch.returncode}\n{launch.stderr}")
            entry = ledger_reference(read_body(output_dir(work, "P") / "ledger.csv"))
            if entry["best_t"] is None:
                raise SystemExit(f"{name} seed {sseed}: no covered tiling")
            doc["seeds"][str(sseed)] = entry
            print(f"{name} seed {sseed}: {entry['rows']} rows, best t={entry['best_t']}", flush=True)
    else:
        doc["alphabets"] = {}
        for alphabet, covers in zip(w.alphabets, w.covers):
            config = write_config(w, 1, alphabet, work)
            dump = work / "dump.jsonl"
            launch = run_cli(
                ROOT,
                ["enumerate", "--config", str(config), "--dump-json", str(dump)],
                work / "stderr.txt",
            )
            if launch.stdout.split() != [str(covers)]:
                raise SystemExit(f"{name} {alphabet}: printed {launch.stdout!r}, expected {covers}")
            ref = dump_reference(dump)
            doc["alphabets"][alphabet] = {"covers": covers, "first": ref["first"], "last": ref["last"]}
            print(f"{name} {alphabet}: {covers} covers", flush=True)
    return doc


def main(names: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        work = ROOT / ".perfbench" / f"reference-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        doc = make(name, work)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
