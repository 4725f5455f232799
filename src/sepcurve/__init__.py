"""Exact hyperbolicity analysis for separated-variable plane curves.

Given P, Q in Q[x] of degree at least 2, the package decides (when the
implemented criteria apply) whether every component of the projective
curve P(x) - Q(y) = 0 has genus at least 2, working only with aggregate
critical-point data over Q — no root isolation, no number-field towers.

Entry points: :func:`classify` for the verdict cascade,
:func:`verify_witnesses` for explicit holomorphic one-forms backing a
hyperbolic verdict, :func:`genus_if_supported` and the ``numoracle``
module for independent cross-checks, and :mod:`sepcurve.cli` for the
command-line front end.
"""

from .classify import Outcome, Verdict, classify, matching_case_ids, sufficient_conditions
from .critical import (
    CriticalClass,
    CriticalStructure,
    PairMatching,
    PolynomialPair,
    analyze,
    corollary1_lhs,
    homogenized_meta,
    hypothesis_I,
    match_pairs,
    theorem1_lhs,
)
from .geometry import (
    DeficiencyReport,
    GenusMethod,
    IrreducibilityVerdict,
    SingularProfile,
    UnsupportedRegionError,
    deficiency,
    genus_from_profile,
    genus_if_supported,
    singular_profile,
)
from .linfactor import LinearFactorWitness, find_linear_factor
from .numoracle import (
    OracleOutcome,
    complex_roots,
    corroborate_hypothesis_I,
    verify_pair_counts,
)
from .oneforms import (
    MalformedFormError,
    OneFormSpec,
    RegularityReport,
    check_regularity,
    emit_witnesses,
    order_bounds,
    verify_witnesses,
)
from .parsepoly import ParseError, parse_poly
from .rationals import Rat, rat
from .rpoly import (
    Poly,
    is_squarefree,
    resultant,
    resultant_shift,
    squarefree_decomposition,
    squarefree_part,
)

__version__ = "0.1.0"

__all__ = [
    "CriticalClass",
    "CriticalStructure",
    "DeficiencyReport",
    "GenusMethod",
    "IrreducibilityVerdict",
    "LinearFactorWitness",
    "MalformedFormError",
    "OneFormSpec",
    "OracleOutcome",
    "Outcome",
    "PairMatching",
    "ParseError",
    "Poly",
    "PolynomialPair",
    "Rat",
    "RegularityReport",
    "SingularProfile",
    "UnsupportedRegionError",
    "Verdict",
    "analyze",
    "check_regularity",
    "classify",
    "complex_roots",
    "corollary1_lhs",
    "corroborate_hypothesis_I",
    "deficiency",
    "emit_witnesses",
    "find_linear_factor",
    "genus_from_profile",
    "genus_if_supported",
    "homogenized_meta",
    "hypothesis_I",
    "is_squarefree",
    "match_pairs",
    "matching_case_ids",
    "order_bounds",
    "parse_poly",
    "rat",
    "resultant",
    "resultant_shift",
    "singular_profile",
    "squarefree_decomposition",
    "squarefree_part",
    "sufficient_conditions",
    "theorem1_lhs",
    "verify_pair_counts",
    "verify_witnesses",
]
