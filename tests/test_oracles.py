from fractions import Fraction

import pytest

from superspan.errors import TooManyTerms
from superspan.oracles import OracleResult, power_diff_classify, vanishing_subsum_bruteforce
from superspan.orbit import ProjPoint
from superspan.subsum import det_terms


def test_power_diff_d2():
    res = power_diff_classify(2, 10)
    assert res.ok
    assert res.checked == 11 ** 4


def test_power_diff_d3():
    assert power_diff_classify(3, 10).ok


def test_power_diff_trivial_solutions():
    # a = b, x = y quadruples always solve the equation and satisfy the set
    # condition {a, y} = {b, x}; the oracle counts them without complaint
    res = power_diff_classify(2, 3)
    assert res.ok


def test_power_diff_validation():
    with pytest.raises(ValueError):
        power_diff_classify(1, 5)
    with pytest.raises(ValueError):
        power_diff_classify(2, 25)


def test_bruteforce_constructed():
    hits = vanishing_subsum_bruteforce([Fraction(1), Fraction(-1), Fraction(2), Fraction(-2)])
    assert hits == [(0, 1), (2, 3)]


def test_bruteforce_generic_none():
    assert vanishing_subsum_bruteforce([Fraction(x) for x in (3, 5, 11, 23, 45, 91)]) == []


def test_bruteforce_on_term_vector():
    tv = det_terms(ProjPoint.rational([1, 2, -3]), 2, (0, 1, 2))
    assert vanishing_subsum_bruteforce(tv) == []


def test_bruteforce_labels_are_perms():
    # the -1 coordinate makes pairs of terms cancel
    tv = det_terms(ProjPoint.rational([1, -1, 2]), 2, (0, 1, 2))
    hits = vanishing_subsum_bruteforce(tv)
    assert hits, "expected vanishing subsums for a torsion coordinate"
    for subset in hits:
        assert sum((tv.signed[perm] for perm in subset),
                   start=tv.signed[subset[0]] * 0).is_zero()
        for perm in subset:
            assert isinstance(perm, tuple) and len(perm) == 3


def test_bruteforce_cap():
    with pytest.raises(TooManyTerms):
        vanishing_subsum_bruteforce([Fraction(1)] * 25)


def test_oracle_result_shape():
    res = power_diff_classify(5, 4)
    assert isinstance(res, OracleResult)
    assert res.counterexamples == ()
