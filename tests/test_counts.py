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
import pathlib
import random

from helpers import COUNTED, chebyshev, count_calls
from sepcurve import cli, instances
from sepcurve.critical import PolynomialPair
from sepcurve.rpoly import Poly

# Per call, in the order of helpers.COUNTED: resultant_shift, poly_gcd,
# squarefree_decomposition, _value_image_mod_p, _coprime_mod_p,
# find_linear_factor and the exact match_pairs.  An affine image of a pair
# keeps its pair's budget.
BUDGETS = {
    # a certified pair with a linear factor reads its matching from the
    # witness: no value polynomial and no gcd
    "case 1": (0, 0, 0, 0, 1, 1, 0),
    "case 2": (0, 0, 0, 1, 2, 0, 1),
    "case 3": (1, 0, 0, 1, 2, 1, 1),
    # every critical point rational, at most two a side from g P'' = h P':
    # each side's image is P at each of them mod p, and the value table,
    # read where the images are not coprime, is P at each of them over Q,
    # its pieces meeting by equality or evaluation: no value image, Yun,
    # shift or gcd
    "case 4": (0, 0, 0, 0, 1, 1, 1),
    "case 5": (0, 0, 0, 0, 1, 1, 1),
    # P' has a repeated root and three distinct roots: each side's
    # one-class image declines and P', P'' are tested for a common root;
    # the linear class gives its image and its piece by evaluation, the
    # quadratic one by a value image and a shift, and a linear piece
    # meets a quadratic one by evaluation
    "case 6": (2, 1, 2, 4, 7, 1, 1),
    "case 7": (0, 0, 0, 2, 3, 1, 0),
    "gap rule": (0, 0, 0, 2, 3, 1, 1),
    "count threshold": (0, 0, 0, 1, 2, 0, 1),
    "below thresholds": (0, 0, 0, 0, 1, 0, 1),
    "theorem3 k=3": (1, 0, 0, 1, 2, 1, 1),
    "theorem3 k>=4": (0, 0, 0, 0, 1, 1, 1),
    # the seeded random_linear_factor_pair draws, all certified
    "linear factor": (0, 0, 2, 4, 7, 1, 0),
    # two certified sides whose images are coprime: the three mod-p
    # tests, two of the sides and one of the pair, and nothing exact
    "dense degree 12": (0, 0, 0, 2, 3, 0, 1),
    # a side with squarefree P' whose critical values repeat: its one-class
    # image declines, P' and P'' coprime mod p keep S = P' made monic as
    # the one class with no Yun of P', and the exact table takes one shift
    # and one Yun of the value polynomial per side
    "chebyshev": (2, 0, 2, 2, 4, 1, 0),
    "composition": (2, 0, 2, 2, 4, 1, 0),
    # x^6 - 3x^4 against its shift: classes x^2 - 2 and x, and -4 taken
    # twice, so no side is certified; each side's table takes one shift
    # and one Yun for x^2 - 2 and one evaluation for x, and no gcd
    "mixed": (2, 0, 4, 4, 6, 1, 0),
    # the 276 records of tests/golden/corpus.jsonl, each run as the corpus
    # runs it; CORPUS_TOTALS holds their sums
    "corpus": (3, 1, 4, 4, 7, 1, 1),
}
CORPUS_TOTALS = (104, 12, 122, 404, 730, 100, 231)


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


def _nongeneric_pairs():
    """T_n against T_n(x + 1), R(S(x)) against its shift by 1, for R and
    S fixed cubic and quintic, and x^6 - 3x^4 against its shift by 1:
    the values of each side repeat."""
    out = []
    for n in (5, 10, 20, 30):
        t = chebyshev(n)
        out.append(("chebyshev", PolynomialPair(t, t.shift_argument(1))))
    rs = Poly([2, -1, 3, 1])(Poly([1, 0, -2, 1, 0, 1]))
    mixed = Poly([0, 0, 0, 0, -3, 0, 1])
    return out + [
        ("composition", PolynomialPair(rs, rs.shift_argument(1))),
        ("mixed", PolynomialPair(mixed, mixed.shift_argument(1))),
    ]


def _dense_pair():
    rng = random.Random(26)
    return PolynomialPair(*(instances.random_polynomial(rng, 12, 12, sparse=False) for _ in "pq"))


def _counted_run(counts, argv):
    """The kernel counts of one ``cli.main`` run of ``argv``, in the order
    of helpers.COUNTED."""
    counts.clear()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(argv)
    json.loads(out.getvalue())
    return tuple(counts[name] for name in COUNTED)


def test_kernel_counts_per_cli_call_stay_within_budget(monkeypatch, debug_checks):
    debug_checks(False)  # the cross-checks rerun the kernels
    counts = count_calls(monkeypatch)
    calls = _selftest_pairs() + _pinned_draw(1) + [("dense degree 12", _dense_pair())]
    calls += _nongeneric_pairs()
    over = []
    for row, pair in calls:
        argv = ["classify", f"--p={pair.p.to_string()}", f"--q={pair.q.to_string()}"]
        got = _counted_run(counts, argv + ["--json", "--witness", "--oracle", "geometry"])
        if any(g > b for g, b in zip(got, BUDGETS[row])):
            over.append((row, pair, got))
    assert len(calls) == 16 + 31 + 1 + 6
    assert over == []


def test_kernel_counts_over_the_corpus_stay_within_budget(monkeypatch, debug_checks):
    """Every corpus record, with the numeric oracle on every 25th as the
    corpus runs it: each call within the ``corpus`` row, and the sums
    within CORPUS_TOTALS."""
    debug_checks(False)
    counts = count_calls(monkeypatch)
    lines = (pathlib.Path(__file__).parent / "golden" / "corpus.jsonl").read_text().splitlines()
    over, totals = [], [0] * len(COUNTED)
    for index, line in enumerate(lines):
        inputs = json.loads(line)["input"]
        oracle = "both" if index % 25 == 0 else "geometry"
        argv = ["classify", f"--p={inputs['p']}", f"--q={inputs['q']}", "--json", "--witness"]
        got = _counted_run(counts, argv + ["--oracle", oracle])
        totals = [t + g for t, g in zip(totals, got)]
        if any(g > b for g, b in zip(got, BUDGETS["corpus"])):
            over.append((inputs, got))
    assert len(lines) == 276
    assert over == []
    assert all(t <= b for t, b in zip(totals, CORPUS_TOTALS)), totals
