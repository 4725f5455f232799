"""Per-layer tracing of sepcurve from outside the package.

The traced run rebinds the public functions of each module in every
``sepcurve`` module that holds a reference to them (``critical``,
``linfactor`` and ``numoracle`` import the kernels by name, and
``rpoly`` calls ``poly_gcd`` internally), records one span per call and
a few counters, and restores the originals afterwards.  Results pass
through the wrappers unchanged.

Spans are ``(name, start, end, parent, item)`` tuples kept in memory;
``parent`` is the index of the enclosing span or ``None``.  Self time is
a span's duration minus its direct children's; busy time sums the spans
of a name that have no enclosing span of the same name.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

# module -> functions wrapped in the traced run
LAYERS = {
    "rpoly": ("poly_gcd", "squarefree_decomposition", "resultant", "resultant_shift"),
    "critical": ("analyze", "hypothesis_I", "match_pairs"),
    "linfactor": ("find_linear_factor",),
    "classify": ("classify",),
    "oneforms": ("emit_witnesses", "check_regularity"),
    "geometry": ("genus_if_supported",),
    "numoracle": ("complex_roots", "corroborate_hypothesis_I", "verify_pair_counts"),
    "parsepoly": ("parse_poly",),
    "cli": ("main",),
}

# Rule labels the three workloads can reach; anything else counts as "other".
RULES = (
    "linear factor",
    "Theorem 1",
    "Theorem 2",
    "Theorem 3",
    "Theorem 3 case 1",
    "Theorem 3 case 2",
    "Theorem 3 case 3",
    "Theorem 3 case 4",
    "Theorem 3 case 5",
    "Theorem 3 case 6",
    "inconclusive",
)


def rule_key(rule: str) -> str:
    return "classify.rule_counts." + (rule.replace(" ", "_") if rule in RULES else "other")


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [
        ("rpoly.resultant_shift.calls", "count", "lower"),
        ("rpoly.resultant_shift.busy_s", "s", "lower"),
        ("rpoly.resultant_shift.calls_per_side", "calls/side", "lower"),
        ("rpoly.resultant.calls", "count", "lower"),
        ("rpoly.resultant.busy_s", "s", "lower"),
        ("rpoly.poly_gcd.calls", "count", "lower"),
        ("rpoly.poly_gcd.busy_s", "s", "lower"),
        ("rpoly.squarefree_decomposition.calls", "count", "lower"),
        ("rpoly.squarefree_decomposition.busy_s", "s", "lower"),
        ("rpoly.peak_coeff_bits", "bits", "lower"),
        ("critical.hypothesis_I.calls", "count", "lower"),
        ("critical.hypothesis_I.busy_s", "s", "lower"),
        ("critical.analyze.calls", "count", "lower"),
        ("critical.analyze.busy_s", "s", "lower"),
        ("critical.match_pairs.calls", "count", "lower"),
        ("critical.match_pairs.self_s", "s", "lower"),
        ("linfactor.find_linear_factor.calls", "count", "lower"),
        ("linfactor.find_linear_factor.busy_s", "s", "lower"),
        ("linfactor.found_frac", "frac", "higher"),
        ("classify.classify.calls", "count", "lower"),
        ("classify.classify.self_s", "s", "lower"),
    ]
    + [(rule_key(r), "count", "higher") for r in RULES]
    + [
        ("classify.rule_counts.other", "count", "lower"),
        ("oneforms.emit_witnesses.busy_s", "s", "lower"),
        ("oneforms.check_regularity.calls", "count", "lower"),
        ("oneforms.check_regularity.busy_s", "s", "lower"),
        ("oneforms.audit_pass_frac", "frac", "higher"),
        ("geometry.genus_if_supported.busy_s", "s", "lower"),
        ("geometry.supported_frac", "frac", "higher"),
        ("numoracle.corroborate_hypothesis_I.calls", "count", "lower"),
        ("numoracle.corroborate_hypothesis_I.busy_s", "s", "lower"),
        ("numoracle.verify_pair_counts.calls", "count", "lower"),
        ("numoracle.verify_pair_counts.busy_s", "s", "lower"),
        ("numoracle.complex_roots.calls", "count", "lower"),
        ("numoracle.complex_roots.busy_s", "s", "lower"),
        ("numoracle.precision_steps", "count", "lower"),
        ("numoracle.escalated_frac", "frac", "lower"),
        ("numoracle.ambiguous_frac", "frac", "lower"),
        ("parsepoly.parse_poly.calls", "count", "lower"),
        ("parsepoly.parse_poly.busy_s", "s", "lower"),
        ("cli.main.calls", "count", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("cli.match_pairs_rerun.calls", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

_ORACLES = ("numoracle.corroborate_hypothesis_I", "numoracle.verify_pair_counts")


def _coeff_bits(poly) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in poly.coeffs),
        default=0,
    )


def span_times(spans, items=None):
    """Per-name (busy, self) seconds over the spans of ``items`` (all when None)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent is not None:
            child[parent] += end - start
    busy, self_s = Counter(), Counter()
    for i, (name, start, end, parent, item) in enumerate(spans):
        if items is not None and item not in items:
            continue
        self_s[name] += end - start - child[i]
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            busy[name] += end - start
    return busy, self_s


class Tracer:
    """Wraps the LAYERS functions inside a ``with`` block; records only while
    ``active`` so work done outside the timed calls stays unrecorded."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.item = None
        self.active = False
        self._stack = []
        self._saved = []

    def _observe(self, name, fn, args, kwargs, result):
        c = self.counters
        c[name + ".calls"] += 1
        if name in ("rpoly.resultant_shift", "rpoly.poly_gcd"):
            c["rpoly.peak_coeff_bits"] = max(c["rpoly.peak_coeff_bits"], _coeff_bits(result))
        elif name == "linfactor.find_linear_factor":
            c["linfactor.found"] += result is not None
        elif name == "classify.classify":
            c[rule_key(result.rule)] += 1
        elif name == "oneforms.check_regularity":
            c["oneforms.audit_pass"] += bool(result.overall)
        elif name == "geometry.genus_if_supported":
            c["geometry.supported"] += result.method.value != "Unsupported"
        elif name in _ORACLES:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            start = bound.arguments["precision_bits"]
            steps = round(math.log2(result.precision_bits / start))
            c["numoracle.precision_steps"] += steps
            c["numoracle.escalated"] += steps > 0
            c["numoracle.ambiguous"] += result.outcome.value == "Ambiguous"
            c["numoracle.oracle_calls"] += 1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.item)
            self._observe(name, fn, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        """Rebind every LAYERS function in every loaded sepcurve module.

        Modules are reached through ``importlib`` because the package
        ``__init__`` shadows ``sepcurve.classify`` with the function.
        """
        wrappers = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"sepcurve.{module}")
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(f"{module}.{fname}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "sepcurve" and not modname.startswith("sepcurve."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def counts(self) -> dict:
        """The deterministic part of the trace: counters only, no times."""
        out = dict(self.counters)
        out["cli.match_pairs_rerun.calls"] = self._rerun_count()
        return dict(sorted(out.items()))

    def _rerun_count(self) -> int:
        spans = self.spans
        return sum(
            1
            for name, _, _, parent, _ in spans
            if name == "critical.match_pairs"
            and parent is not None
            and spans[parent][0] == "cli.main"
        )

    def metrics(self, sides: int, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric as {name: (value, unit)}."""
        c = self.counts()
        busy, self_s = span_times(self.spans)

        def frac(num, den):
            return c.get(num, 0) / c[den] if c.get(den) else 0.0

        values = {
            "rpoly.resultant_shift.calls_per_side": (
                c.get("rpoly.resultant_shift.calls", 0) / sides if sides else 0.0
            ),
            "linfactor.found_frac": frac("linfactor.found", "linfactor.find_linear_factor.calls"),
            "oneforms.audit_pass_frac": frac("oneforms.audit_pass", "oneforms.check_regularity.calls"),
            "geometry.supported_frac": frac("geometry.supported", "geometry.genus_if_supported.calls"),
            "numoracle.escalated_frac": frac("numoracle.escalated", "numoracle.oracle_calls"),
            "numoracle.ambiguous_frac": frac("numoracle.ambiguous", "numoracle.oracle_calls"),
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".busy_s"):
                value = busy.get(name[: -len(".busy_s")], 0.0)
            elif name.endswith(".self_s"):
                value = self_s.get(name[: -len(".self_s")], 0.0)
            else:
                value = c.get(name, 0)
            out[name] = (value, unit)
        return out
