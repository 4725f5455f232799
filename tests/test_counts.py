"""Counts, not clocks: how often each exact kernel runs on fixed inputs.

Every call is one ``cli.main`` classify run with the witness and the
geometry oracle, as the benchmark's pinned-cli workload makes it.  Kernel
counts repeat exactly where wall times do not, so each count is held at
or below a budget.  A change that lowers a count lowers its budget; one
that raises a budget says why.
"""

import contextlib
import io
import json
import random

from helpers import COUNTED, count_calls
from sepcurve import cli, instances
from sepcurve.critical import PolynomialPair

# Per call, in the order of helpers.COUNTED: resultant_shift, poly_gcd,
# squarefree_decomposition, _value_image_mod_p, _coprime_mod_p,
# find_linear_factor and the exact match_pairs.  An affine image of a pair
# keeps its pair's budget.
BUDGETS = {
    # a certified pair with a linear factor reads its matching from the
    # witness: no value polynomial and no gcd
    "case 1": (0, 0, 0, 0, 1, 1, 0),
    "case 2": (0, 0, 0, 1, 2, 0, 1),
    "case 3": (1, 1, 0, 1, 2, 1, 1),
    # every critical point rational, at most two a side from g P'' = h P':
    # the tables are P at the points, with no image, Yun, shift or gcd
    "case 4": (0, 0, 0, 0, 1, 1, 1),
    "case 5": (0, 0, 0, 0, 1, 1, 1),
    # P' has a repeated root and three distinct roots mod p: each side's
    # one-class image declines and P', P'' are tested for a common root
    "case 6": (4, 3, 2, 6, 7, 1, 1),
    "case 7": (0, 0, 0, 2, 3, 1, 0),
    "gap rule": (0, 0, 0, 2, 3, 1, 1),
    "count threshold": (0, 0, 0, 1, 2, 0, 1),
    "below thresholds": (0, 0, 0, 0, 1, 0, 1),
    "theorem3 k=3": (1, 2, 0, 1, 2, 1, 1),
    "theorem3 k>=4": (0, 0, 0, 0, 1, 1, 1),
    # the seeded random_linear_factor_pair draws, all certified
    "linear factor": (0, 0, 2, 6, 7, 1, 0),
    # two certified sides whose images are coprime: the three mod-p
    # tests, two of the sides and one of the pair, and nothing exact
    "dense degree 12": (0, 0, 0, 2, 3, 0, 1),
}


def _selftest_pairs():
    """The 16 selftest pairs, each with its budget row."""
    out = [(f"case {c}", instances.case_instance(c)) for c in instances.CASE_IDS]
    out += [
        ("gap rule", instances.theorem2_pair()),
        ("count threshold", instances.theorem1_pair()),
        ("below thresholds", instances.inconclusive_pair()),
    ]
    out += [(_theorem3_row(k), instances.theorem3_pair(k)) for k in range(3, 9)]
    return out


def _theorem3_row(k):
    return "theorem3 k=3" if k == 3 else "theorem3 k>=4"


def _pinned_draw(seed):
    """One pass of the pinned-cli draw: an affine image of each case pair
    and of theorem3_pair(k), k = 3..18, and eight linear-factor pairs."""
    rng = random.Random(seed)
    out = [
        (f"case {c}", instances.random_affine_image(instances.case_instance(c), rng))
        for c in instances.CASE_IDS
    ]
    out += [
        (_theorem3_row(k), instances.random_affine_image(instances.theorem3_pair(k), rng))
        for k in range(3, 19)
    ]
    out += [("linear factor", instances.random_linear_factor_pair(rng)[0]) for _ in range(8)]
    return out


def _dense_pair():
    rng = random.Random(26)
    return PolynomialPair(*(instances.random_polynomial(rng, 12, 12, sparse=False) for _ in "pq"))


def test_kernel_counts_per_cli_call_stay_within_budget(monkeypatch, debug_checks):
    debug_checks(False)  # the cross-checks rerun the kernels
    counts = count_calls(monkeypatch)
    calls = _selftest_pairs() + _pinned_draw(1) + [("dense degree 12", _dense_pair())]
    over = []
    for row, pair in calls:
        counts.clear()
        argv = ["classify", f"--p={pair.p.to_string()}", f"--q={pair.q.to_string()}"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(argv + ["--json", "--witness", "--oracle", "geometry"])
        json.loads(out.getvalue())
        got = tuple(counts[name] for name in COUNTED)
        if any(g > b for g, b in zip(got, BUDGETS[row])):
            over.append((row, pair, got))
    assert len(calls) == 16 + 31 + 1
    assert over == []
