#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with
no tracing; ``--trace 1`` runs the same workload with layer spans and
prints the per-layer metrics.  Every run checks the program's outputs;
a failed check makes the run exit 1.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_all", "gd_large", "service_mixed")


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    for name in common.SCRUBBED:
        os.environ.pop(name, None)
    module = __import__(f"perfbench.{args.workload}", fromlist=["run"])
    outcome = common.Outcome()
    measure = module.run_traced if args.trace else module.run
    try:
        measure(args.seed, args.seconds, outcome)
    except common.Failure as error:
        outcome.check("workload completed", False, str(error))
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        outcome.check("workload completed", False, traceback.format_exc())

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in wanted}
    missing = [name for name in units if name not in outcome.metrics]
    if missing and not outcome.failed:
        outcome.check("every metric measured", False, f"missing {missing}")
    correct = outcome.failed == 0

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    print("env " + json.dumps(common.env_stamp(), sort_keys=True))
    for name, value in outcome.metrics.items():
        unit = units.get(name, outcome.units.get(name, ""))
        print(f"  {name} = {_format(value)} {unit}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(
        f"  error_rate = {error_rate:.6g} ratio "
        f"({outcome.failed} failed of {outcome.attempted} attempted)"
    )
    passed: dict[str, int] = {}
    for name, ok, detail in outcome.checks:
        if ok:
            passed[name] = passed.get(name, 0) + 1
        else:
            print(f"check FAILED: {name}" + (f" ({detail})" if detail else ""))
    for name, n in passed.items():
        print(f"check ok x{n}: {name}")
    if outcome.notes:
        print("notes " + json.dumps(outcome.notes, sort_keys=True, default=str))
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
