#!/usr/bin/env python3
"""Differential check of the numeric oracles against recorded answers.

    PYTHONPATH=src python3 tests/oracle_sweep.py           # compare
    PYTHONPATH=src python3 tests/oracle_sweep.py --write   # re-record

Draws the inputs of the benchmark's ``oracle`` workload: one pass for
each of seeds 1-40 and 7919, plus every other pass of a 20-second run
of seeds 1 and 7919.  The generator is copied here, not imported, so the
check does not depend on the benchmark's code.  Each item's oracle
summary (outcome, precision, and cluster sizes or l0 and detail) is
hashed and compared with ``golden/oracle_sweep.json``; every differing
item is printed, and the exit code is 1 if any differs.  An oracle
change is expected to leave every summary as it was; ``--write``
re-records the digests and belongs only to a change that means to alter
an answer.

``--write-golden`` writes ``golden/oracle.jsonl``: a smaller fixed set
of inputs with their full summaries, which the tier-1 suite replays
(``test_numoracle.py``).  It parses back every input it writes.

The sweep's 3080 items take 3.0-4.3 s (median 3.7 s of five runs) on
a 2-CPU x86 host with Python 3.11.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import random
import sys

from sepcurve import instances, numoracle
from sepcurve.critical import PolynomialPair, hypothesis_I
from sepcurve.parsepoly import parse_poly
from sepcurve.rationals import rat
from sepcurve.rpoly import Poly

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "oracle_sweep.json"
REPLAY = GOLDEN / "oracle.jsonl"

SEEDS = tuple(range(1, 41)) + (7919,)
FULL_RUN_SEEDS = (1, 7919)
FULL_RUN_PASSES = 8  # round(20 s / 2.6 s per pass)

# the workload's draw: 2^-k bands, with no k between the last resolving
# band and the past-cap bands
K_BANDS = ((100, 300), (300, 700), (700, 1500), (1500, 3000), (3000, 4000)) + ((4600, 5000),) * 4
EXTRA_D6 = 8


def _ladders(k):
    x = Poly.x()
    a = x**3 - 3 * x
    return (
        (f"x^4 - 2x^2 + 2^-{k}x", (x**4 - 2 * x**2 + rat(1, 2**k) * x,)),
        (f"x^3 - 3x vs +2^-{k}", (a, a + rat(1, 2**k))),
    )


def draw(rng):
    """One pass of the workload: (kind, polys) in its order."""
    cells = [(d, sparse) for d in range(2, 11) for sparse in (True, False)] + [(6, False)] * EXTRA_D6
    out = [("random", (instances.random_polynomial(rng, d, d, sparse=sparse),)) for d, sparse in cells]
    for lo, hi in K_BANDS:
        hyp = _ladders(rng.randint(lo, hi))[0]
        pair = _ladders(rng.randint(lo, hi))[1]
        out += [hyp, pair]
    for _ in range(12):
        pair = instances.random_affine_image(instances.theorem3_pair(rng.randint(3, 8)), rng)
        out.append(("theorem3 image", (pair.p, pair.q)))
    rng.shuffle(out)
    return out


def summary(polys) -> dict:
    if len(polys) == 1:
        rep = numoracle.corroborate_hypothesis_I(polys[0])
        return {
            "outcome": rep.outcome.value,
            "precision_bits": rep.precision_bits,
            "symbolic": rep.symbolic,
            "cluster_sizes": list(rep.cluster_sizes),
        }
    rep = numoracle.verify_pair_counts(PolynomialPair(*polys))
    return {
        "outcome": rep.outcome.value,
        "precision_bits": rep.precision_bits,
        "l0": rep.l0_numeric,
        "detail": rep.detail,
    }


def digest(s: dict) -> str:
    return hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()[:16]


def passes():
    for seed in SEEDS:
        for k in range(FULL_RUN_PASSES if seed in FULL_RUN_SEEDS else 1):
            yield f"{seed}/{k}", draw(random.Random(f"oracle/{seed}/{k}"))


def sweep(write: bool) -> int:
    recorded = {} if write else json.loads(DIGESTS.read_text())
    got, differing, items = {}, 0, 0
    for key, batch in passes():
        got[key] = []
        for i, (kind, polys) in enumerate(batch):
            s = summary(polys)
            got[key].append(digest(s))
            items += 1
            if not write and recorded[key][i] != got[key][-1]:
                differing += 1
                shown = " | ".join(p.to_string() for p in polys)
                print(f"{key} #{i} {kind}: {shown}\n    now {json.dumps(s, sort_keys=True)}")
    if write:
        DIGESTS.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
    print(f"{items} items, {differing} differ")
    return 1 if differing else 0


def golden_cases():
    rng = random.Random("oracle-golden")
    cases = [
        (instances.random_polynomial(rng, d, d, sparse=sparse),)
        for d in range(2, 11)
        for sparse in (True, False)
    ]
    for k in (150, 500, 1000, 2000, 3500, 4000, 4100, 4200, 4700):
        cases += [polys for _, polys in _ladders(k)]
    for _ in range(6):
        pair = instances.random_affine_image(instances.theorem3_pair(rng.randint(3, 8)), rng)
        cases.append((pair.p, pair.q))
    return cases


def write_golden() -> int:
    lines = []
    for polys in golden_cases():
        texts = [p.to_string() for p in polys]
        assert [parse_poly(t) for t in texts] == list(polys), texts
        s = summary(polys)
        assert len(polys) == 2 or s["symbolic"] == hypothesis_I(polys[0])
        lines.append(json.dumps({"inputs": texts, "summary": s}, sort_keys=True))
    REPLAY.write_text("\n".join(lines) + "\n")
    print(f"{len(lines)} records")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="re-record the sweep digests")
    ap.add_argument("--write-golden", action="store_true", help="write the replay set")
    args = ap.parse_args(argv)
    if args.write_golden:
        return write_golden()
    return sweep(args.write)


if __name__ == "__main__":
    sys.exit(main())
