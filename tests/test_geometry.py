import pytest

from helpers import make_matching
from sepcurve.geometry import (
    GenusMethod,
    IrreducibilityVerdict,
    SingularProfile,
    UnsupportedRegionError,
    deficiency,
    genus_from_profile,
    genus_if_supported,
    irreducibility_from_profile,
    point_for_pair,
    singular_profile,
)
from sepcurve.instances import case_instance, theorem2_pair, theorem3_pair


def profile_of(points, n):
    return SingularProfile(tuple(point_for_pair(p, q) for p, q in points), n)


def test_point_for_pair():
    s = point_for_pair(2, 2)
    assert (s.multiplicity, s.ordinary) == (3, True)
    s = point_for_pair(3, 1)
    assert (s.multiplicity, s.ordinary) == (2, False)
    assert point_for_pair(1, 4).multiplicity == 2


def test_profile_from_matching():
    prof = singular_profile(make_matching([(2, 2), (1, 1)], unm_p=(1,), unm_q=(1,)))
    assert prof.multiplicities() == (3, 2)
    with pytest.raises(UnsupportedRegionError):
        singular_profile(make_matching([(2, 1)], unm_q=(1,), deg=(4, 3)))


def test_deficiency_counts():
    assert deficiency(profile_of([], 4)) == 3
    assert deficiency(profile_of([(2, 2), (1, 1), (1, 1)], 5)) == 1
    assert deficiency(profile_of([(2, 2), (2, 2)], 5)) == 0


def test_smooth_curve_genus():
    rep = genus_from_profile(profile_of([], 7))
    assert (rep.delta, rep.genus, rep.method) == (15, 15, GenusMethod.SMOOTH_COUNT)


def test_ordinary_five_point_configuration_has_genus_one():
    rep = genus_from_profile(profile_of([(2, 2), (1, 1), (1, 1)], 5))
    assert rep.genus == 1 and rep.delta == 1
    assert rep.method is not GenusMethod.UNSUPPORTED


def test_two_triple_points_give_genus_zero():
    rep = genus_from_profile(profile_of([(2, 2), (2, 2)], 5))
    assert rep.genus == 0 and rep.delta == 0


def test_single_unbalanced_point_at_degree_five():
    # the {n-2, n-1} shape: deficiency 0 and irreducibility asserted
    rep = genus_from_profile(profile_of([(4, 3)], 5))
    assert (rep.delta, rep.genus) == (0, 0)
    assert rep.method is GenusMethod.ASSERTED_IRREDUCIBLE_DEFICIENCY


def test_quadratic_transform_branch():
    # degree 4, single (3, 1) point: one blow-up lowers delta by one
    rep = genus_from_profile(profile_of([(3, 1)], 4))
    assert rep.method is GenusMethod.QUADRATIC_TRANSFORM_ADJUSTED
    assert (rep.delta, rep.genus) == (2, 1)


def test_full_multiplicity_point_is_left_unresolved():
    rep = genus_from_profile(profile_of([(4, 4)], 5))
    assert rep.method is GenusMethod.UNSUPPORTED
    assert rep.genus is None and rep.delta is not None


def test_non_ordinary_multi_point_profiles_unsupported():
    rep = genus_from_profile(profile_of([(3, 2), (1, 2)], 6))
    assert rep.method is GenusMethod.UNSUPPORTED


def test_irreducibility_pattern_checks():
    # a single ordinary point of multiplicity n-1 or n-2 forces irreducibility
    assert (
        irreducibility_from_profile(profile_of([(3, 3)], 5))
        is IrreducibilityVerdict.IRREDUCIBLE
    )
    # an (n-1)-fold point next to a double point forces a line component
    assert (
        irreducibility_from_profile(profile_of([(3, 3), (1, 1)], 5))
        is IrreducibilityVerdict.HAS_LINEAR_COMPONENT
    )
    # anything else is left open at this level
    assert (
        irreducibility_from_profile(profile_of([(2, 2), (2, 2)], 5))
        is IrreducibilityVerdict.UNKNOWN
    )


def test_genus_if_supported_on_instances():
    # unequal degrees: out of scope, no genus claim
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
