"""The benchmark's three workloads: seeded inputs, timed calls, known answers.

Each workload is a fixed composition of items repeated over a number of
passes; every pass draws fresh inputs from the seed, so the same seed
gives the same inputs and no input repeats inside a run, except the 16
fixed selftest pairs of ``pinned-cli``.  An item's timed call goes
through a public entry point, looked up on its module at call time so
the traced run's wrappers see it.  Known answers come from the way an
input is built.  Where an answer needs a reference computation, it runs
once per item outside the timed loop: while drawing for dense-ladder,
whose draws must be confirmed generic, and after the loop otherwise.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field

MODULES = ("classify", "cli", "critical", "instances", "numoracle", "oneforms", "rpoly", "rationals")
EXIT_CODES = {"Hyperbolic": 0, "HasLowGenusComponent": 10, "Inconclusive": 20}

# dense-ladder: one pair per equal degree 8-22 and two unequal pairs,
# plus extra draws so that the median falls in the middle of a tier of
# degree-14 pairs and the tail, the 11th slowest item, in the middle of
# the tier of degree-18 and 22x8 pairs.  Single items there, or a tail
# on the tier's upper edge, would let one noisy timing, a step between
# degrees or the seed's heaviest draw move the metric.  Every pass has
# DENSE_DEGREES; DENSE_TOP, above the tail, is in a draw's own pass
# only, since its sign variants would add time but no sample near the
# median or the tail.
DENSE_DEGREES = (
    tuple((n, n) for n in range(8, 19))
    + ((10, 6), (22, 8))
    + ((8, 8),) * 6
    + ((14, 14),) * 4
    + ((18, 18),) * 6
)
DENSE_TOP = tuple((n, n) for n in range(19, 23))

# oracle: 2^-k perturbations.  With PRECISION_CAP = 4096 bits the
# oracles resolve k <= 4000 and cannot resolve k >= 4600 (measured
# edge: 4100 resolves, 4200 does not), so no k is drawn in between.
K_BANDS = ((100, 300), (300, 700), (700, 1500), (1500, 3000), (3000, 4000)) + ((4600, 5000),) * 4
PAST_CAP = 4600
ORACLE_EXTRA_D6 = 8

# Passes per run: --seconds / PASS_SECONDS, rounded, at least one, so a
# run's item count is fixed.  A pass takes about this long at the
# baseline at the reference speed; for dense-ladder it is the mean of
# a draw's pass (about 16 s) and a variant's (about 10 s).
PASS_SECONDS = {"dense-ladder": 13.0, "pinned-cli": 1.0, "oracle": 2.6}


def modules() -> dict:
    return {name: importlib.import_module(f"sepcurve.{name}") for name in MODULES}


@dataclass
class Item:
    id: int
    kind: str
    args: tuple  # inputs handed to the entry point
    expect: dict  # known answer; reference() fills what needs computing
    sides: int  # polynomials the package analyses for this item
    meta: dict = field(default_factory=dict)  # generator facts used by reference()

    def label(self) -> str:
        shown = [a.to_string() if hasattr(a, "to_string") else str(a) for a in self.args]
        return f"#{self.id} {self.kind}: " + " | ".join(shown)


class Workload:
    name = ""

    def __init__(self):
        self.m = modules()

    def passes(self, seconds: int) -> int:
        return max(1, round(seconds / PASS_SECONDS[self.name]))

    def items(self, seed: int, passes: int) -> list:
        out = []
        for k in range(passes):
            rng = random.Random(f"{self.name}/{seed}/{k}")
            batch = self.draw(rng)
            rng.shuffle(batch)
            out.extend(batch)
        for i, item in enumerate(out):
            item.id = i
        return out

    def draw(self, rng) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        """One small untimed call so lazy set-up is not timed."""
        raise NotImplementedError

    def call(self, item: Item):
        """The timed call; returns the raw result."""
        raise NotImplementedError

    def summarize(self, item: Item, raw) -> dict:
        """JSON-able digest of a result, taken outside the timed call."""
        raise NotImplementedError

    def reference(self, item: Item) -> str | None:
        """Complete item.expect; return a problem text if the reference
        cannot be confirmed."""
        return None

    def check(self, item: Item, got: dict) -> list:
        """Problems with a result; an empty list means it is correct."""
        raise NotImplementedError


def _mismatches(got: dict, want: dict) -> list:
    return [f"{k} {got.get(k)!r} != {v!r}" for k, v in want.items() if got.get(k) != v]


class DenseLadder(Workload):
    """Dense random pairs through the Python API ``classify``.

    Passes come in groups of four sign variants of one draw:
    (P(x), Q(x)), (P(-x), Q(-x)), (-P(x), -Q(x)) and (-P(-x), -Q(-x)).
    Each variant has new polynomials on both sides with the same
    coefficient sizes and the same critical-value aggregates, so its
    known answer follows from the reference recorded for the draw, and
    every variant costs about the same.
    """

    name = "dense-ladder"

    def _pair_item(self, rng, n, m):
        rp = self.m["instances"].random_polynomial
        p, q = rp(rng, n, n, sparse=False), rp(rng, m, m, sparse=False)
        expect = {"outcome": "Hyperbolic", "rule": "Theorem 1", "case": None,
                  "l0": 0, "theorem1_lhs": n - 1, "corollary1_lhs": m - 1}
        return Item(0, f"dense {n}x{m}", (p, q), expect, 2)

    def items(self, seed, passes):
        out = []
        for k in range(passes):
            rng = random.Random(f"{self.name}/{seed}/{k}")
            if k % 4 == 0:
                base = random.Random(f"{self.name}/{seed}/draw{k // 4}")
                draw = [self._generic_pair(base, n, m) for n, m in DENSE_DEGREES + DENSE_TOP]
            batch = [self._variant(item, k % 4) for item in (draw if k % 4 == 0 else draw[: len(DENSE_DEGREES)])]
            rng.shuffle(batch)
            out.extend(batch)
        for i, item in enumerate(out):
            item.id = i
        return out

    def _generic_pair(self, rng, n, m):
        """Draw until the reference confirms a generic pair.

        The reference is recorded here, once per draw: the certified-disk
        recount must agree with the exact matching and find no shared
        critical value.  A draw on which both routes agree that a value
        is shared is not a generic pair and is drawn again; any other
        outcome is kept and fails the item.
        """
        while True:
            item = self._pair_item(rng, n, m)
            rep = self.m["numoracle"].verify_pair_counts(self.m["critical"].PolynomialPair(*item.args))
            if rep.outcome.value == "Agree" and rep.l0_numeric == 0:
                item.meta["reference"] = None
                return item
            if rep.outcome.value != "Agree":
                item.meta["reference"] = f"reference not confirmed: {rep.outcome.value} ({rep.detail})"
                return item

    def _variant(self, item, v):
        if v == 0:
            return item
        x = self.m["rpoly"].Poly((0, -1 if v & 1 else 1))
        sign = -1 if v & 2 else 1
        p, q = (sign * side(x) for side in item.args)
        return Item(0, f"{item.kind} variant {v}", (p, q), item.expect, 2, {"draw": item})

    def warmup(self):
        self.call(self._pair_item(random.Random("warmup"), 6, 6))

    def call(self, item):
        return self.m["classify"].classify(self.m["critical"].PolynomialPair(*item.args))

    def summarize(self, item, v):
        crit = self.m["critical"]
        out = {"outcome": v.outcome.value, "rule": v.rule, "case": v.case}
        if v.matching is not None:
            out["l0"] = v.matching.matched_pair_count
            out["theorem1_lhs"] = crit.theorem1_lhs(v.matching)
            out["corollary1_lhs"] = crit.corollary1_lhs(v.matching)
        return out

    def reference(self, item):
        return item.meta.get("draw", item).meta["reference"]

    def check(self, item, got):
        return _mismatches(got, item.expect)


class PinnedCli(Workload):
    """In-process ``cli.main`` with the witness and geometry options."""

    name = "pinned-cli"
    FLAGS = ("--json", "--witness", "--oracle", "geometry")

    def _item(self, kind, pair, outcome, rule, case, **meta):
        expect = {"outcome": outcome, "rule": rule, "case": case}
        return Item(0, kind, (pair.p, pair.q), expect, 2, meta)

    def selftest(self):
        ins = self.m["instances"]
        out = [self._item(f"case {c}", ins.case_instance(c), "HasLowGenusComponent",
                          f"Theorem 3 case {1 if c == 7 else c}", 1 if c == 7 else c)
               for c in ins.CASE_IDS]
        out.append(self._item("gap rule", ins.theorem2_pair(), "Hyperbolic", "Theorem 2", None))
        out.append(self._item("count threshold", ins.theorem1_pair(), "Hyperbolic", "Theorem 1", None))
        out.append(self._item("below thresholds", ins.inconclusive_pair(), "Inconclusive", "inconclusive", None))
        out += [self._item(f"generic degree {k + 2}", ins.theorem3_pair(k), "Hyperbolic", "Theorem 3", None)
                for k in range(3, 9)]
        return out

    def draw(self, rng):
        ins = self.m["instances"]
        out = self.selftest()
        for item in out[: len(ins.CASE_IDS)]:
            image = ins.random_affine_image(self.m["critical"].PolynomialPair(*item.args), rng)
            out.append(self._item("image " + item.kind, image, **item.expect))
        out += [self._item(f"image theorem3 k={k}", ins.random_affine_image(ins.theorem3_pair(k), rng),
                           "Hyperbolic", "Theorem 3", None) for k in range(3, 19)]
        for _ in range(8):
            pair, _ = ins.random_linear_factor_pair(rng)
            # rule and case depend on whether the factor A has simple
            # critical values: reference() decides it.
            out.append(self._item("linear factor", pair, "HasLowGenusComponent", None, None,
                                  factor=pair.q))
        return out

    def argv(self, item):
        p, q = item.args
        # "=" keeps a leading minus sign from reading as an option
        return ["classify", f"--p={p.to_string()}", f"--q={q.to_string()}", *self.FLAGS]

    def warmup(self):
        self.call(self.selftest()[8])

    def call(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m["cli"].main(self.argv(item))
        return code, out.getvalue(), err.getvalue()

    def summarize(self, item, raw):
        code, out, err = raw
        return {"exit": code, "stdout": out, "stderr": err}

    def reference(self, item):
        factor = item.meta.get("factor")
        if factor is None:
            return None
        rep = self.m["numoracle"].corroborate_hypothesis_I(factor)
        if rep.outcome.value != "Agree":
            return f"reference hypothesis I not corroborated: {rep.outcome.value}"
        item.expect["rule"], item.expect["case"] = (
            ("Theorem 3 case 1", 1) if rep.symbolic else ("linear factor", None)
        )
        return None

    def check(self, item, got):
        want = item.expect
        problems = []
        if got["exit"] != EXIT_CODES[want["outcome"]]:
            problems.append(f"exit {got['exit']} != {EXIT_CODES[want['outcome']]}")
        try:
            report = json.loads(got["stdout"])
        except ValueError:
            return problems + [f"no JSON report (stderr {got['stderr']!r})"]
        problems += _mismatches({"outcome": report.get("verdict"), "rule": report.get("rule"),
                                 "case": report.get("case")}, want)
        p, q = item.args
        if report.get("input") != {"p": p.to_string(), "q": q.to_string()}:
            problems.append(f"echoed input {report.get('input')!r}")
        if want["outcome"] == "Hyperbolic" and not problems:
            problems += self.audit(item, report.get("witness_forms"), want["rule"])
        return problems

    def audit(self, item, forms, rule):
        """Re-run the witness audit the CLI discards, outside the timed
        call: emit and check the forms for this rule and matching."""
        if not forms or len(forms) != 2:
            return [f"expected two witness forms, got {forms!r}"]
        cls, crit = self.m["classify"], self.m["critical"]
        pair = crit.PolynomialPair(*item.args)
        verdict = cls.Verdict(cls.Outcome.HYPERBOLIC, rule, pair, matching=crit.match_pairs(pair))
        emitted, reports = self.m["oneforms"].verify_witnesses(verdict)
        problems = []
        if [f.to_text() for f in emitted] != forms:
            problems.append("witness forms differ from the audited ones")
        if not all(r.overall for r in reports):
            problems.append("witness audit failed")
        return problems


class Oracle(Workload):
    """The numeric oracles on random draws and near-coincidence ladders."""

    name = "oracle"

    @staticmethod
    def _outcomes(k):
        """Agree, or also Ambiguous for a perturbation past the cap."""
        return ["Agree", "Ambiguous"] if k is not None and k >= PAST_CAP else ["Agree"]

    def _hyp_item(self, kind, p, k=None):
        return Item(0, kind, (p,), {"outcome": self._outcomes(k)}, 1, {"k": k})

    def _pair_item(self, kind, pair, l0, k=None):
        return Item(0, kind, (pair.p, pair.q), {"outcome": self._outcomes(k), "l0": l0}, 2, {"k": k})

    def draw(self, rng):
        ins, rpoly, rat = self.m["instances"], self.m["rpoly"], self.m["rationals"].rat
        x = rpoly.Poly.x()
        # random_polynomial draws as in criterion 4, stratified over the
        # degree range 2-10 and the sparse/dense halves so that every
        # pass has the same mix of sizes, plus dense degree-6 draws that
        # put the median in the middle of their tier: without them it
        # sat where the cost climbs steeply with degree, and moved with
        # the seed
        cells = [(d, sparse) for d in range(2, 11) for sparse in (True, False)] + [(6, False)] * ORACLE_EXTRA_D6
        out = [self._hyp_item("random", ins.random_polynomial(rng, d, d, sparse=sparse)) for d, sparse in cells]
        for lo, hi in K_BANDS:
            k = rng.randint(lo, hi)
            out.append(self._hyp_item(f"x^4 - 2x^2 + 2^-{k}x", x**4 - 2 * x**2 + rat(1, 2**k) * x, k))
            k = rng.randint(lo, hi)
            a = x**3 - 3 * x
            out.append(self._pair_item(f"x^3 - 3x vs +2^-{k}", self.m["critical"].PolynomialPair(a, a + rat(1, 2**k)), 0, k))
        for _ in range(12):
            # theorem3_pair shares both critical values: two matched pairs
            pair = ins.random_affine_image(ins.theorem3_pair(rng.randint(3, 8)), rng)
            out.append(self._pair_item("theorem3 image", pair, 2))
        return out

    def warmup(self):
        self.call(self._hyp_item("warmup", self.m["instances"].random_polynomial(random.Random("warmup"), 5, 5)))

    def call(self, item):
        nu = self.m["numoracle"]
        if len(item.args) == 1:
            return nu.corroborate_hypothesis_I(item.args[0])
        return nu.verify_pair_counts(self.m["critical"].PolynomialPair(*item.args))

    def summarize(self, item, rep):
        out = {"outcome": rep.outcome.value, "precision_bits": rep.precision_bits}
        if len(item.args) == 1:
            out.update(symbolic=rep.symbolic, cluster_sizes=list(rep.cluster_sizes))
        else:
            out.update(l0=rep.l0_numeric, detail=rep.detail)
        return out

    def reference(self, item):
        if len(item.args) == 1:
            item.expect["symbolic"] = self.m["critical"].hypothesis_I(item.args[0])
        return None

    def check(self, item, got):
        want = item.expect
        if got["outcome"] not in want["outcome"]:
            return [f"outcome {got['outcome']} not in {want['outcome']}"]
        if "symbolic" in want and got["symbolic"] != want["symbolic"]:
            return [f"symbolic {got['symbolic']} != hypothesis_I {want['symbolic']}"]
        if "l0" in want and got["outcome"] == "Agree" and got["l0"] != want["l0"]:
            return [f"l0 {got['l0']} != {want['l0']}"]
        return []


WORKLOADS = {w.name: w for w in (DenseLadder, PinnedCli, Oracle)}
