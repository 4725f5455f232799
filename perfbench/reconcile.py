#!/usr/bin/env python3
"""Numbers for the baseline reconciliation note in README.md.

Reads the traced runs' span files under ``perfbench/out/`` and times
cold interpreter starts:

    python3 perfbench/run.py --workload dense-ladder --seed 1 --trace 1
    python3 perfbench/run.py --workload oracle --seed 1 --trace 1
    python3 perfbench/reconcile.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import run
from tracing import span_times

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

STAGES = ("critical.match_pairs", "critical.hypothesis_I", "critical.analyze", "linfactor.find_linear_factor")
EXACT = ("rpoly.", "critical.")


def load(workload, seed):
    data = json.loads((OUT / f"spans-{workload}-seed{seed}.json").read_text())
    return data["spans"], data["items"]


def dense(seed):
    spans, kinds = load("dense-ladder", seed)
    by_degree = defaultdict(set)
    for item, kind in enumerate(kinds):
        n, m = kind.split()[1].split("x")
        if n == m:
            by_degree[int(n)].add(item)
    for n in (10, 20):
        walls = [span_times(spans, {i})[0]["classify.classify"] for i in by_degree[n]]
        print(f"dense n={n}: traced classify median {statistics.median(walls) * 1000:.0f} ms over {len(walls)} pairs")
    busy, _ = span_times(spans, by_degree[20])
    share = {s: busy[s] / busy["classify.classify"] for s in STAGES}
    # classify reaches analyze only through match_pairs (the pair's cache)
    share["critical.match_pairs"] -= share["critical.analyze"]
    split = ", ".join(f"{s.split('.')[1]} {v:.0%}" for s, v in share.items())
    print(f"dense n=20 stage split of classify (match_pairs net of analyze): {split}")


def oracle(seed):
    """Share of corroborate_hypothesis_I spent outside the exact layers."""
    spans, kinds = load("oracle", seed)
    random_items = {i for i, kind in enumerate(kinds) if kind == "random"}
    whole = exact = 0.0
    for name, start, end, parent, item in spans:
        if item not in random_items:
            continue
        if name == "numoracle.corroborate_hypothesis_I":
            whole += end - start
        elif name.startswith(EXACT) and not (parent is not None and spans[parent][0].startswith(EXACT)):
            exact += end - start
    print(
        f"oracle random draws: numeric part {1 - exact / whole:.0%}, exact kernels "
        f"{exact / whole:.0%} of corroborate_hypothesis_I ({len(random_items)} draws)"
    )


def cold_import(spawns=15):
    """Median wall times of fresh interpreters, spawned the way setup_s spawns them."""
    run.prepare_environment()
    times = {
        code: statistics.median(wall for wall, _ in run.time_setup(spawns, code)[2:])
        for code in ("pass", "import mpmath", "import sepcurve.cli")
    }
    bare, mp, cli = times.values()
    print(
        f"cold start: bare interpreter {bare * 1000:.0f} ms, + mpmath {(mp - bare) * 1000:.0f} ms, "
        f"+ sepcurve.cli {(cli - bare) * 1000:.0f} ms; mpmath is {(mp - bare) / (cli - bare):.0%} "
        "of the import"
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    dense(args.seed)
    oracle(args.seed)
    cold_import()
    return 0


if __name__ == "__main__":
    sys.exit(main())
