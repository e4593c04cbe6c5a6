#!/usr/bin/env python3
"""apertile benchmark: end-to-end CLI runs, or a traced per-layer run.

    python3 perfbench/run.py --workload study-p-d10-s32 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With --trace 0 the workload's CLI commands
are launched at least five times and until --seconds seconds have passed,
each launch is checked against the stored reference, and the end-to-end
metrics are the medians over launches.  With --trace 1 one traced pass over
the workload's layers gives the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from check import check_enumerate, check_optimize
from harness import PINNED_ENV, machine_info, run_cli
from workloads import REFERENCE_DIR, WORKLOADS, expected_rows, output_dir, scenario_seed, write_config

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 5
PROBES_PER_ROUND = 1
MAX_RUN_S = 150.0


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


class Runner:
    """Launches a workload's CLI commands and checks their outputs."""

    def __init__(self, w, seed: int, run_dir: Path, reference: dict):
        self.w = w
        self.run_dir = run_dir
        self.reference = reference
        self.sseed = scenario_seed(seed)
        self.configs = [write_config(w, self.sseed, a, run_dir) for a in w.alphabets]

    def _args(self, i: int) -> tuple[list[str], Path | None]:
        config = self.configs[i]
        if self.w.command == "optimize":
            return ["optimize", "--config", str(config)], None
        dump = self.run_dir / f"dump_{i}.jsonl"
        return ["enumerate", "--config", str(config), "--dump-json", str(dump)], dump

    def probe(self) -> float | None:
        """Set-up time of the first command, its process tree killed after."""
        args, dump = self._args(0)
        return run_cli(ROOT, args, self.run_dir / "stderr.txt", setup_file=dump, probe=True).setup_s

    def full(self) -> tuple[dict, list[str]]:
        """Launch every command once; returns the sample and check errors."""
        launches, errors = [], []
        for i, alphabet in enumerate(self.w.alphabets):
            args, dump = self._args(i)
            launch = run_cli(ROOT, args, self.run_dir / "stderr.txt", setup_file=dump)
            launches.append(launch)
            if launch.returncode != 0:
                errors.append(f"{args[0]} {alphabet}: exit {launch.returncode}: {launch.stderr[-300:]}")
            elif self.w.command == "optimize":
                errors += check_optimize(
                    output_dir(self.run_dir, alphabet),
                    self.reference["seeds"][str(self.sseed)],
                    self.w.stride,
                    self.w.floor_dbm,
                )
            else:
                errors += check_enumerate(launch.stdout, dump, self.reference["alphabets"][alphabet])
        wall = sum(l.wall_s for l in launches)
        tilings = expected_rows(self.w) if self.w.command == "optimize" else sum(self.w.covers)
        sample = {
            "wall_s": wall,
            "tilings_per_s": tilings / wall,
            "setup_s": launches[0].setup_s,
            "cpu_s": sum(l.cpu_s for l in launches),
            "peak_rss_mb": max(l.peak_rss_mb for l in launches),
        }
        return sample, errors


def timed_run(w, seed: int, seconds: float, run_dir: Path, names: list[str]) -> dict:
    """At least MIN_ROUNDS rounds, and more while `seconds` have not passed.

    A round is one full pass plus PROBES_PER_ROUND set-up probes.  One
    probe first warms the page and bytecode caches; its time is dropped,
    its check counts.
    """
    runner = Runner(w, seed, run_dir, load_reference(w.name))
    samples: dict[str, list[float]] = {name: [] for name in names}
    errors: list[str] = []
    attempted = failed = 0

    def probe() -> float | None:
        nonlocal attempted, failed
        setup = runner.probe()
        attempted += 1
        if setup is None:
            failed += 1
            errors.append("set-up probe ended before its set-up boundary")
        return setup

    probe()
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        sample, errs = runner.full()
        attempted += 1
        failed += bool(errs)
        errors.extend(errs)
        for name, value in sample.items():
            samples[name].append(value)
        samples["setup_s"] += [v for v in (probe() for _ in range(PROBES_PER_ROUND)) if v is not None]
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now - start >= seconds:
            break
        if now - start + (now - round_start) > MAX_RUN_S:
            break
    for name in names:
        samples[name] = [v for v in samples[name] if v is not None]
    return {"samples": samples, "attempted": attempted, "failed": failed, "errors": errors}


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "n=1"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy is imported anywhere in this process (the traced run)
    os.environ.update(PINNED_ENV)
    # SIGTERM unwinds like an exception, so a running launch's process tree
    # is killed and reaped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "apertile" / "cli.py").is_file():
        print(f"error: no apertile sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = ROOT / ".perfbench" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.trace:
        from tracing import traced_run

        ew = w.eval_workload or w.name
        report = traced_run(ROOT, w, args.seed, run_dir, load_reference(ew))
        metrics = report["metrics"]
        lines = report["lines"]
    else:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
        end_to_end = {m["name"]: m["unit"] for m in declared}
        report = timed_run(w, args.seed, args.seconds, run_dir, list(end_to_end))
        metrics = {
            name: {"value": statistics.median(report["samples"][name]), "unit": unit}
            for name, unit in end_to_end.items()
        }
        lines = [
            f"{name:16s} median {metrics[name]['value']:.6g} {unit:4s} {_spread(report['samples'][name])}"
            for name, unit in end_to_end.items()
        ]
        lines.append(
            f"failed_fraction  {report['failed']}/{report['attempted']} = "
            f"{report['failed'] / report['attempted']:.3f} (launches and set-up probes)"
        )
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=w.name,
        seed=args.seed,
        scenario_seed=scenario_seed(args.seed),
        trace=args.trace,
        seconds=args.seconds,
        machine=machine_info(),
        errors=report["errors"],
        samples=report.get("samples"),
    )
    for dump in run_dir.glob("*.jsonl"):  # up to 80 MB each
        dump.unlink()
    results = ROOT / ".perfbench" / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {w.name}  seed {args.seed} (scenario seed {scenario_seed(args.seed)})  trace {args.trace}")
    for line in lines:
        print(line)
    for err in report["errors"][:20]:
        print(f"check failed: {err}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
