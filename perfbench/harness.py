"""Launch `apertile` CLI processes and measure them from outside.

Every launch runs in its own session (process group), so that the whole tree
can be killed and reaped.  `os.wait4` returns the rusage of the CLI process
together with the pool workers it reaped: their summed CPU time and the
largest resident set among them.
"""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread per process: two fork workers must not oversubscribe two
# cores with BLAS threads.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
LAUNCH_TIMEOUT_S = 150.0


@dataclass
class Launch:
    returncode: int
    wall_s: float
    setup_s: float | None  # None when the setup boundary was never seen
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def cli_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_cli(
    root: Path,
    args: list[str],
    stderr_path: Path,
    *,
    setup_file: Path | None = None,
    probe: bool = False,
) -> Launch:
    """Run `python -m apertile.cli <args>` and measure it.

    The setup boundary is the first line on stdout (optimize logs it once
    drops are assembled), or, with `setup_file`, the moment that file first
    holds data (enumerate's dump file).  With `probe` the process tree is
    killed at that boundary, so only the setup is measured.
    """
    cmd = [sys.executable, "-m", "apertile.cli", *args]
    if setup_file is not None and setup_file.exists():
        setup_file.unlink()
    with open(stderr_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=root,
            env=cli_env(root),
            stdout=subprocess.PIPE,
            stderr=err,
            start_new_session=True,
        )
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, _kill_group, (proc.pid,))
    watchdog.start()
    setup = None
    status = usage = None
    try:
        if setup_file is None:
            first = proc.stdout.readline()
            if first:
                setup = time.perf_counter() - start
        else:
            while True:
                try:
                    if setup_file.stat().st_size > 0:
                        setup = time.perf_counter() - start
                        break
                except FileNotFoundError:
                    pass
                pid, code, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    status, usage = code, rusage
                    break
                time.sleep(0.0005)
            first = b""
        if probe:
            _kill_group(proc.pid)
        out = first + proc.stdout.read()
        if status is None:
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        watchdog.cancel()
        if status is None:
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return Launch(
        returncode=proc.returncode,
        wall_s=wall,
        setup_s=setup,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out.decode(errors="replace"),
        stderr=stderr_path.read_text(errors="replace"),
    )


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info() -> dict:
    """The machine every result file records."""
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "env": PINNED_ENV,
    }
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["numpy"] = np.__version__
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        info["numpy"] = info["blas"] = "unknown"
    return info
