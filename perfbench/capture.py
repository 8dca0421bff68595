#!/usr/bin/env python3
"""Capture the committed output references of ``paper_all`` and ``gd_large``.

Usage::

    python3 perfbench/capture.py --workload paper_all --seeds 0-15

Records, per seed, the SHA-256 of cold ``frapp all`` stdout
(``paper_all``) or of the rounded mined supports (``gd_large``) into
``perfbench/reference/<workload>.json``.  Run it only at a commit whose
outputs are known to be right: the benchmark fails any later run whose
output differs from a captured reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    workloads = ("paper_all", "gd_large")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 0-15")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common, gd_large, paper_all

    module = paper_all if args.workload == "paper_all" else gd_large
    references = json.loads(module.REFERENCES.read_text())
    digests = references.setdefault("sha256_by_seed", {})
    work = common.make_work_dir("capture")
    try:
        for seed in args.seeds:
            if module is paper_all:
                cli_argv = paper_all.frapp_all(seed, work / f"c{seed}")
                outcome = common.Outcome()
                _t, _rss, stdout = paper_all._cli(outcome, work, "cold", cli_argv)
                digest = paper_all.stdout_digest(stdout)
            else:
                population, exact = gd_large.setup(seed)
                results = gd_large.mine(population, exact, seed)
                results["exact"] = exact
                digest = gd_large.supports_digest(results)
            digests[str(seed)] = digest
            print(f"{args.workload} seed {seed}: {digest}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    by_seed = sorted(digests.items(), key=lambda kv: int(kv[0]))
    references["sha256_by_seed"] = dict(by_seed)
    module.REFERENCES.write_text(json.dumps(references, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
