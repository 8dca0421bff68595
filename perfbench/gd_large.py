"""Workload ``gd_large``: DET-GD and RAN-GD mining of a large population.

In-process.  A HEALTH-schema population of :data:`N_RECORDS` records is
generated from the seed and mined exactly (the reference) during
set-up.  The timed part is ``run_mechanism`` for DET-GD and RAN-GD with
the Apriori cascade, a fixed chunk size and two pipeline workers:
perturbation, the chunked pipeline and the bitmap counting kernels do
most of the work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time

from perfbench.common import BENCH, startup_metrics, vm_hwm_mb

REFERENCES = BENCH / "reference" / "gd_large.json"

N_RECORDS = 4_000_000
CHUNK_SIZE = 1 << 18
WORKERS = 2
MECHANISMS = ("det-gd", "ran-gd")
MIN_SUPPORT = 0.02


def _config(seed: int):
    from repro.experiments.config import ExperimentConfig

    return ExperimentConfig(
        seed=seed,
        min_support=MIN_SUPPORT,
        workers=WORKERS,
        chunk_size=CHUNK_SIZE,
        protocol="apriori",
    )


def setup(seed: int):
    """The population and its exact-mining reference."""
    from repro.data.health import generate_health
    from repro.mining.reconstructing import mine_exact

    population = generate_health(N_RECORDS, seed=seed)
    return population, mine_exact(population, MIN_SUPPORT)


def mine(population, exact, seed: int) -> dict:
    """DET-GD then RAN-GD: ``{mechanism: AprioriResult}``."""
    from repro.experiments.runner import run_mechanism

    config = _config(seed)
    return {
        name: run_mechanism(population, name, config, true_result=exact).result
        for name in MECHANISMS
    }


def supports_digest(results: dict) -> str:
    """SHA-256 over every mined itemset and its support rounded to 1e-9."""
    rows = [
        [name, [list(item) for item in itemset.items], round(support, 9)]
        for name, result in sorted(results.items())
        for level in result.by_length.values()
        for itemset, support in level.items()
    ]
    rows.sort()
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _timed_setup(seed: int):
    gc.collect()
    start = time.monotonic()
    population, exact = setup(seed)
    return time.monotonic() - start, population, exact


def run(seed: int, seconds: float, outcome) -> None:
    """Cycles of set-up, perturb+mine (wall_s), exact re-mining (warm_s).

    Set-up is repeated in every cycle so that all three metrics sample
    the whole run; the population is the same in every cycle.
    """
    from repro.mining.reconstructing import mine_exact

    expected = json.loads(REFERENCES.read_text())["sha256_by_seed"].get(str(seed))
    setups, walls, warms, first = [], [], [], None
    start = time.monotonic()
    while True:
        population = exact = None  # free the previous copy first
        seconds_, population, exact = _timed_setup(seed)
        setups.append(seconds_)
        exact_digest = supports_digest({"exact": exact})
        t0 = time.monotonic()
        results = mine(population, exact, seed)
        walls.append(time.monotonic() - t0)
        outcome.operation(True)
        results["exact"] = exact
        digest = supports_digest(results)
        if first is None:
            first = digest
            if expected is not None:
                outcome.check(
                    "supports match the committed digest", digest == expected
                )
            else:
                outcome.notes["reference"] = f"no committed digest for seed {seed}"
        else:
            outcome.check("supports repeat across cycles", digest == first)
        t0 = time.monotonic()
        again = mine_exact(population, MIN_SUPPORT)
        warms.append(time.monotonic() - t0)
        outcome.check(
            "exact re-mining repeats the reference",
            supports_digest({"exact": again}) == exact_digest,
        )
        elapsed = time.monotonic() - start
        # Start another cycle only if at least half of it fits.
        if elapsed + 0.5 * elapsed / len(walls) >= seconds:
            break
    outcome.metrics["setup_s"] = statistics.median(setups)
    outcome.metrics["wall_s"] = statistics.median(walls)
    outcome.metrics["warm_s"] = statistics.median(warms)
    outcome.metrics["peak_rss_mb"] = vm_hwm_mb()
    outcome.notes["samples"] = {
        "wall_s": len(walls),
        "warm_s": len(warms),
        "setup_s": len(setups),
    }


def run_traced(seed: int, seconds: float, outcome) -> None:
    from perfbench import tracing

    outcome.metrics.update(startup_metrics(outcome))
    _s, population, exact = _timed_setup(seed)
    untraced = []
    for _ in range(2):
        t0 = time.monotonic()
        plain = supports_digest(mine(population, exact, seed))
        untraced.append(time.monotonic() - t0)
    population = exact = None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    _s, population, exact = _timed_setup(seed)
    t0 = time.monotonic()
    traced_digest = supports_digest(mine(population, exact, seed))
    traced = time.monotonic() - t0
    outcome.check("traced supports == untraced", traced_digest == plain)
    untraced_wall = statistics.median(untraced)
    trace = tracer.to_dict()
    outcome.metrics.update(tracing.layer_metrics(trace))
    outcome.metrics["bench.trace_overhead_s"] = traced - untraced_wall
    table = tracing.aggregate(trace, since=t0)
    heavy = sum(
        row["self_s"]
        for name, row in table.items()
        if name.split(".")[0] in ("kernels", "mechanisms", "pipeline")
    )
    outcome.notes["shares"] = {
        "kernels+mechanisms+pipeline self s / untraced wall_s": heavy / untraced_wall
    }
