#!/usr/bin/env python3
"""Run a workload many times and judge how steady its metrics are.

Usage::

    # ten untraced runs, seeds 1..10: spread of every end-to-end metric
    python3 perfbench/repeat.py --workload paper_all --runs 10 --out a.json
    # a second set, compared with the first by the agreement rule
    python3 perfbench/repeat.py --workload paper_all --runs 10 --first-seed 11 \\
        --out b.json --against a.json
    # two traced runs at one seed: the deterministic counters must repeat
    python3 perfbench/repeat.py --workload gd_large --counters --seed 3

Spread is the interquartile distance as a share of the median
(``statistics.quantiles(values, n=4)``); a set is steady when every
spread except that of ``setup_s`` is within a third of the metric's
bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Work counters that must repeat exactly across traced runs at one seed.
DETERMINISTIC = (
    "mining.candidates_built",
    "baselines.cp.solves",
    "baselines.mask.solves",
    "kernels.itemsets_counted",
    "spool.appends",
    "ledger.saves",
)

#: Counters that depend on timing in a workload, printed but not
#: compared: in service_mixed a mine sees however many rows have been
#: flushed when it runs, and how many open-loop submissions share one
#: flush (one spool append, one ledger save) depends on when they land.
TIMING_DEPENDENT = {
    "service_mixed": {"mining.candidates_built", "spool.appends", "ledger.saves"},
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py")]
    argv += ["--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(
        argv, cwd=str(ROOT), capture_output=True, text=True, timeout=900
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {done.returncode}\n"
            f"{done.stdout[-3000:]}\n{done.stderr[-3000:]}"
        )
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.stats import compare_run_sets, spread

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against", help="a previous --out file to compare with")
    parser.add_argument(
        "--counters",
        action="store_true",
        help="two traced runs at --seed; compare work counters",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if args.counters:
        runs = [run_once(args.workload, args.seed, args.seconds, 1) for _ in range(2)]
        same = True
        timed = TIMING_DEPENDENT.get(args.workload, set())
        for name in DETERMINISTIC:
            values = [run["metrics"][name]["value"] for run in runs]
            if name in timed:
                verdict = "  (timing-dependent here; not compared)"
            else:
                same &= values[0] == values[1]
                verdict = "" if values[0] == values[1] else "  DIFFERS"
            print(f"{name}: {values[0]} / {values[1]}{verdict}")
        return 0 if same else 1

    metrics = spec["end_to_end"]
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        result = run_once(args.workload, args.first_seed + i, args.seconds, 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        shown = ", ".join(
            f"{name}={result['metrics'][name]['value']:.5g}" for name in values
        )
        print(f"seed {result['seed']}: {shown}", flush=True)
    steady = True
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        s = spread(values[name])
        ok = name == "setup_s" or s < bound / 3
        steady &= ok
        print(
            f"{name}: spread {s:.4f} (bound {bound}, target < {bound / 3:.4f})"
            f"{'' if ok else '  NOT STEADY'}"
        )
    if args.out:
        Path(args.out).write_text(json.dumps({args.workload: values}, indent=1))
    if args.against:
        first = json.loads(Path(args.against).read_text())[args.workload]
        for name, verdict in compare_run_sets(first, values, metrics).items():
            steady &= verdict["ok"]
            print(
                f"{name}: second median worse by {verdict['worse_by']:+.4f}, "
                f"spreads {verdict['spread'][0]:.4f}/{verdict['spread'][1]:.4f}"
                f" -> {'agree' if verdict['ok'] else 'DISAGREE'}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
