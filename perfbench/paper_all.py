"""Workload ``paper_all``: cold and warm ``frapp all`` at paper scale.

The paper reproduction users run, as a subprocess with ``--jobs 1``.
Cold: a fresh empty ``--cache-dir``, so every cell computes and commits
to the result store.  Warm: a re-run on that filled directory, which
reads the store back and is dominated by start-up.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import sys
import time

from perfbench import tracing
from perfbench.common import (
    BENCH,
    Failure,
    make_work_dir,
    run_timed,
    startup_metrics,
)

REFERENCES = BENCH / "reference" / "paper_all.json"

#: Warm re-runs per cold run; warm_s is the median over all of them.
#: Each cycle also times one fresh-interpreter import (setup_s), so
#: every metric samples the whole run, not one moment of it.
WARM_REPEATS = 3

_IMPORT_CLI = [sys.executable, "-c", "import repro.experiments.cli"]


def frapp_all(seed: int, cache_dir) -> list[str]:
    argv = "-m repro.experiments all --jobs 1 --seed".split() + [str(seed)]
    return argv + ["--cache-dir", str(cache_dir)]


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(outcome, work, tag, argv, launcher_spans=None):
    """One CLI run; ``(seconds, peak RSS MB, stdout bytes)``."""
    if launcher_spans is not None:
        argv = ["-m", "perfbench.launcher", str(launcher_spans), "--"] + argv[2:]
    out, err = work / f"{tag}.out", work / f"{tag}.err"
    seconds, code, rss = run_timed([sys.executable] + argv, out, err)
    outcome.operation(code == 0)
    if code != 0:
        raise Failure(f"{tag}: exit {code}: {err.read_text()[-2000:]}")
    return seconds, rss, out.read_bytes()


def _check_reference(outcome, seed: int, stdout: bytes) -> None:
    references = json.loads(REFERENCES.read_text())["sha256_by_seed"]
    expected = references.get(str(seed))
    if expected is not None:
        outcome.check(
            "stdout matches the committed paper-scale reference",
            stdout_digest(stdout) == expected,
            f"seed {seed}",
        )
    else:
        outcome.notes["reference"] = f"no committed reference for seed {seed}"


def run(seed: int, seconds: float, outcome) -> None:
    work = make_work_dir("paper_all")
    try:
        setup, colds, warms, rss = [], [], [], []
        first = None
        start = time.monotonic()
        cycle = 0
        while True:
            cache = work / f"cache{cycle}"
            t, _r, _out = _cli(outcome, work, f"import{cycle}", _IMPORT_CLI[1:])
            setup.append(t)
            t, r, cold = _cli(outcome, work, f"cold{cycle}", frapp_all(seed, cache))
            colds.append(t)
            rss.append(r)
            for w in range(WARM_REPEATS):
                t, _r, warm = _cli(
                    outcome, work, f"warm{cycle}.{w}", frapp_all(seed, cache)
                )
                warms.append(t)
                outcome.check("warm stdout == cold stdout", warm == cold)
            if first is None:
                first = cold
                _check_reference(outcome, seed, cold)
            else:
                outcome.check("cold stdout repeats", cold == first)
            shutil.rmtree(cache)
            cycle += 1
            elapsed = time.monotonic() - start
            # Start another cycle only if at least half of it fits.
            if elapsed + 0.5 * elapsed / cycle >= seconds:
                break
        outcome.metrics["setup_s"] = statistics.median(setup)
        outcome.metrics["wall_s"] = statistics.median(colds)
        outcome.metrics["warm_s"] = statistics.median(warms)
        outcome.metrics["peak_rss_mb"] = max(rss)
        outcome.notes["samples"] = {
            "wall_s": len(colds),
            "warm_s": len(warms),
            "setup_s": len(setup),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def run_traced(seed: int, seconds: float, outcome) -> None:
    work = make_work_dir("paper_all-traced")
    try:
        outcome.metrics.update(startup_metrics(outcome))
        untraced, _r, plain = _cli(outcome, work, "cold", frapp_all(seed, work / "c0"))
        traces = []
        for tag in ("tcold", "twarm"):
            spans = work / f"{tag}.json"
            seconds_, _r, out = _cli(
                outcome, work, tag, frapp_all(seed, work / "c1"), spans
            )
            outcome.check(f"traced {tag} stdout == untraced", out == plain)
            traces.append(json.loads(spans.read_text()))
            if tag == "tcold":
                traced = seconds_
        merged = tracing.merge(traces)
        outcome.metrics.update(tracing.layer_metrics(merged))
        outcome.metrics["bench.trace_overhead_s"] = traced - untraced
        cold = tracing.aggregate(traces[0])
        heavy = sum(
            row["self_s"]
            for name, row in cold.items()
            if name.startswith("baselines.") or name == "mining.candidates"
        )
        outcome.notes["shares"] = {
            "baselines+candidates self s / untraced cold wall_s": heavy / untraced
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
