"""Shared plumbing: paths, child processes, memory, the environment stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

#: Environment variables that would change what the program computes
#: (dataset scale, cache location); children never inherit them.
SCRUBBED = ("REPRO_SCALE", "REPRO_CACHE_DIR")


class Failure(Exception):
    """A failed run or correctness check of the program under test."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def make_work_dir(tag: str) -> Path:
    path = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_timed(argv, stdout_path: Path, stderr_path: Path, timeout: float = 170.0):
    """Run ``argv`` from the repo root; ``(seconds, exit code, peak RSS MB)``.

    The peak RSS is the child's own high-water mark (``ru_maxrss`` from
    ``wait4``, which is ``VmHWM`` at exit).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, cwd=str(ROOT), env=child_env()
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def startup_metrics(outcome) -> dict:
    """``-X importtime`` of the CLI: total, ``repro.api`` and numpy (s)."""
    work = make_work_dir("importtime")
    try:
        code = "import repro.experiments.cli"
        argv = [sys.executable, "-X", "importtime", "-c", code]
        _t, code, _rss = run_timed(argv, work / "out", work / "err")
        outcome.operation(code == 0)
        if code != 0:
            raise Failure(f"import repro.experiments.cli: exit {code}")
        report = (work / "err").read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cumulative = {}
    for line in report.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \| \s*(\S+)$", line)
        if match:
            cumulative.setdefault(match.group(2), int(match.group(1)) / 1e6)
    return {
        "startup.import_s": cumulative["repro.experiments.cli"],
        "startup.import.repro_api_s": cumulative.get("repro.api", 0.0),
        "startup.import.numpy_s": cumulative.get("numpy", 0.0),
    }


def vm_hwm_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Failure(f"no VmHWM for process {pid}")


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest() -> str:
    """SHA-256 over ``src/`` (identifies the code when there is no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def env_stamp() -> dict:
    """What a result depends on besides the code: compare like with like."""
    import warnings

    import numpy

    from repro.mining.kernels import native, resolve_backend

    with warnings.catch_warnings():
        # resolve_backend warns when it downgrades "native".
        warnings.simplefilter("ignore", RuntimeWarning)
        native_resolves_to = resolve_backend("native")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_loaded": native.available(),
        "count_backend": resolve_backend("bitmap"),
        "native_resolves_to": native_resolves_to,
        "REPRO_FORCE_PYTHON": os.environ.get("REPRO_FORCE_PYTHON"),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
    }


class Outcome:
    """What one run measured and checked."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        # Units of measured values that are not metrics of BENCHMARK.json.
        self.units: dict[str, str] = {}
        self.notes: dict[str, object] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0

    def operation(self, ok: bool) -> None:
        """Count one operation of the program (a run, a request)."""
        self.attempted += 1
        self.failed += 0 if ok else 1

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed check is a failure."""
        self.checks.append((name, bool(ok), detail))
        self.operation(ok)
        return ok
