import collections
import json
import pathlib
from unittest import mock

from helpers import make_matching
from sepcurve.critical import PolynomialPair
from sepcurve.geometry import GenusMethod, genus_from_matching, genus_if_supported
from sepcurve.instances import case_instance, theorem2_pair, theorem3_pair
from sepcurve.parsepoly import parse_poly

SMOOTH = GenusMethod.SMOOTH_COUNT
ORDINARY = GenusMethod.ORDINARY_DEFICIENCY
TRANSFORM = GenusMethod.QUADRATIC_TRANSFORM_ADJUSTED
ASSERTED = GenusMethod.ASSERTED_IRREDUCIBLE_DEFICIENCY
UNSUPPORTED = GenusMethod.UNSUPPORTED


def table(*rows):
    """A test of genus_from_matching on each row: the degree n, the
    matched (p, q) points and the expected (delta, genus, method)."""

    def test():
        for n, points, expected in rows:
            rep = genus_from_matching(make_matching(points, deg=(n, n)))
            assert (rep.delta, rep.genus, rep.method) == expected, (n, points)

    return test


# The table: each row group keeps the name of the test it was, so
# the suite's test ids stay put.
test_matched_point_multiplicity_and_ordinariness = table(
    (5, [(2, 2)], (3, 3, ORDINARY)),  # one ordinary triple point
    (6, [(3, 1)], (9, 8, TRANSFORM)),  # a non-ordinary double point
    (6, [(1, 4)], (9, None, UNSUPPORTED)),  # double, non-ordinary, not {1, 3}
)
test_deficiency_counts = table(
    (4, [], (3, 3, SMOOTH)),
    (5, [(2, 2), (1, 1), (1, 1)], (1, 1, ORDINARY)),
    (5, [(2, 2), (2, 2)], (0, 0, ORDINARY)),
)
test_smooth_curve_genus = table((7, [], (15, 15, SMOOTH)))
test_ordinary_five_point_configuration_has_genus_one = table(
    (5, [(2, 2), (1, 1), (1, 1)], (1, 1, ORDINARY))
)
test_two_triple_points_give_genus_zero = table((5, [(2, 2), (2, 2)], (0, 0, ORDINARY)))
# the {n-2, n-1} shape: deficiency 0 and irreducibility asserted
test_single_unbalanced_point_at_degree_five = table((5, [(4, 3)], (0, 0, ASSERTED)))
# degree 4, single (3, 1) point: one blow-up lowers delta by one
test_quadratic_transform_branch = table((4, [(3, 1)], (2, 1, TRANSFORM)))
test_full_multiplicity_point_is_left_unresolved = table((5, [(4, 4)], (-4, None, UNSUPPORTED)))
test_non_ordinary_multi_point_profiles_unsupported = table(
    (6, [(3, 2), (1, 2)], (6, None, UNSUPPORTED))
)
# A single ordinary point of multiplicity n-1 or n-2 forces
# irreducibility, an (n-1)-fold point next to a double point forces a
# line; anything else is left to the degree-5 exclusion, and past
# degree 5 to nothing.
test_irreducibility_pattern_checks = table(
    (5, [(3, 3)], (0, 0, ORDINARY)),
    (5, [(3, 3), (1, 1)], (-1, 0, ORDINARY)),
    (5, [(2, 2), (2, 2)], (0, 0, ORDINARY)),
    (6, [(3, 3)], (4, 4, ORDINARY)),
    (6, [(4, 4), (1, 1)], (-1, 0, ORDINARY)),
    (6, [(2, 2), (2, 2)], (4, None, UNSUPPORTED)),
)


def test_genus_from_a_matching():
    # degrees from the mass identity: n = 5, points of multiplicities 3 and 2
    rep = genus_from_matching(make_matching([(2, 2), (1, 1)], unm_p=(1,), unm_q=(1,)))
    assert (rep.delta, rep.genus, rep.method) == (2, None, UNSUPPORTED)
    # unequal degrees are out of scope
    rep = genus_from_matching(make_matching([(2, 1)], unm_q=(1,), deg=(4, 3)))
    assert (rep.delta, rep.genus, rep.method) == (None, None, UNSUPPORTED)


def test_unequal_degrees_leave_the_matching_uncomputed():
    pair = PolynomialPair(parse_poly("x^4 + x"), parse_poly("x^3"))
    with mock.patch("sepcurve.critical.match_pairs", side_effect=AssertionError):
        rep = genus_if_supported(pair)
    assert (rep.delta, rep.genus, rep.method) == (None, None, UNSUPPORTED)


def test_corpus_geometry_blocks_reach_every_method():
    """The byte-stable corpus replays --oracle geometry on every pair;
    its reports cover every branch's method."""
    corpus = pathlib.Path(__file__).parent / "golden" / "corpus.jsonl"
    methods = collections.Counter(
        json.loads(line)["oracle"]["geometry"]["method"]
        for line in corpus.read_text().splitlines()
    )
    assert set(methods) == {m.value for m in GenusMethod}, methods


def test_genus_if_supported_on_instances():
    rep = genus_if_supported(case_instance(4))
    assert case_instance(4).n == case_instance(4).m  # equal degrees here
    assert rep.genus == 0

    rep = genus_if_supported(theorem2_pair())
    assert rep.genus == 15  # smooth degree-7 curve

    for k in (3, 4):
        pair = theorem3_pair(k)
        rep = genus_if_supported(pair)
        if rep.genus is not None:
            assert rep.genus >= 2


def test_genus_consistency_with_low_genus_verdicts():
    for cid in (5, 6, 7):
        pair = case_instance(cid)
        rep = genus_if_supported(pair)
        if rep.genus is not None:
            assert rep.genus <= 1, (cid, rep)
