"""Exact hyperbolicity analysis for separated-variable plane curves.

Given P, Q in Q[x] of degree at least 2, the package decides (when the
implemented criteria apply) whether every component of the projective
curve P(x) - Q(y) = 0 has genus at least 2, working only with aggregate
critical-point data over Q — no root isolation, no number-field towers.

Entry points: :func:`classify` for the verdict cascade (its steps that
read only the matching are :func:`decide`, callable on a bare
``PairMatching``), :func:`verify_witnesses` for explicit holomorphic
one-forms backing a hyperbolic verdict, :func:`genus_if_supported`
(the genus count from a pair's matched critical points;
:func:`genus_from_matching` takes the matching itself) and the
``numoracle`` module for independent cross-checks, and
:mod:`sepcurve.cli` for the command-line front end.
"""

import importlib

# ``classify`` is bound now: it names both a function and the submodule
# ``sepcurve.classify``, and once the submodule is imported the import
# system sets the package attribute, so __getattr__ would never be asked.
from .classify import classify

# Every other export is imported from its submodule on first access (PEP 562).
_EXPORTS = {
    "classify": ("Outcome", "Verdict", "decide", "matching_case_ids", "sufficient_conditions"),
    "critical": (
        "CriticalClass",
        "CriticalStructure",
        "PairMatching",
        "PolynomialPair",
        "analyze",
        "corollary1_lhs",
        "homogenized_meta",
        "hypothesis_I",
        "match_pairs",
        "theorem1_lhs",
    ),
    "geometry": ("DeficiencyReport", "GenusMethod", "genus_from_matching", "genus_if_supported"),
    "linfactor": ("LinearFactorWitness", "find_linear_factor"),
    "numoracle": ("OracleOutcome", "complex_roots", "corroborate_hypothesis_I", "verify_pair_counts"),
    "oneforms": (
        "MalformedFormError",
        "OneFormSpec",
        "RegularityReport",
        "check_regularity",
        "emit_witnesses",
        "verify_witnesses",
    ),
    "parsepoly": ("ParseError", "parse_poly"),
    "rationals": ("Rat", "rat"),
    "rpoly": ("Poly", "is_squarefree", "resultant", "resultant_shift", "squarefree_decomposition"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

__all__ = sorted(["classify", *_MODULE_OF])
