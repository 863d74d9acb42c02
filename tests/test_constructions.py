import warnings
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from superspan import constructions, linalg, relations
from superspan.constructions import (
    cyclotomic_family,
    exponent_gap_vector,
    is_primitive_root,
    quadric_case_probe,
    sextic_field,
    sextic_point,
    verify_cyclotomic_family,
    verify_sextic_example,
)
from superspan.errors import (
    AllPrimesBad,
    DegenerateModulus,
    ExponentBudgetExceeded,
    NonPrime,
    NotPrimitiveRoot,
    OffQuadric,
    WrongRelationRank,
    ZeroTail,
)
from superspan.orbit import ExactOrbit, ProjPoint, iterate, subspace_membership


def test_primitive_root_examples():
    assert is_primitive_root(2, 5)        # 2, 4, 3, 1
    assert not is_primitive_root(2, 7)    # order 3
    assert not is_primitive_root(1, 11)
    assert is_primitive_root(3, 7)


def test_primitive_root_errors():
    with pytest.raises(NonPrime):
        is_primitive_root(2, 9)
    with pytest.raises(NonPrime):
        is_primitive_root(2, 2)
    with pytest.raises(DegenerateModulus):
        is_primitive_root(10, 5)


def test_family_construction():
    fam = cyclotomic_family(2, 5, (2, 3))
    assert len(fam.hyperplanes) == 4
    assert fam.point.dim == 3
    for i in range(1, 5):
        assert fam.hyperplane(i).dim_projective == 2


@pytest.mark.parametrize("tail", [(), (2,), (2, 3), (2, 3, 7)])
def test_family_hyperplanes_are_canonical_spans(tail):
    # H_i is built from its RREF rows directly; span_canonical agrees
    fam = cyclotomic_family(2, 5, tail)
    C, n = fam.point.ambient, fam.point.dim
    for i in range(1, 5):
        rows = [[C.one(), C.gen() ** i] + [C.zero()] * (n - 1)]
        rows += [[C.one() if j == k else C.zero() for j in range(n + 1)]
                 for k in range(2, n + 1)]
        assert fam.hyperplane(i) == linalg.span_canonical(rows)


def test_family_not_primitive_root():
    with pytest.raises(NotPrimitiveRoot):
        cyclotomic_family(2, 7, (2, 3))


def test_family_zero_tail():
    with pytest.raises(ZeroTail):
        cyclotomic_family(2, 5, (2, 0))


def test_family_dependent_tail_warns():
    with pytest.warns(UserWarning):
        cyclotomic_family(2, 5, (2, 4))  # 4 = 2^2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cyclotomic_family(2, 5, (2, 3))  # independent: no warning


def test_membership_pattern():
    fam = cyclotomic_family(2, 5, (2, 3))
    P = fam.point
    for m in range(9):
        Q = iterate(P, 2, m)
        for i in range(1, 5):
            assert subspace_membership(Q, fam.hyperplane(i)) == (pow(2, m, 5) == i)


def test_return_indices():
    fam = cyclotomic_family(2, 5, (2, 3))
    assert fam.return_index(1) == 0
    assert fam.return_index(2) == 1
    assert fam.return_index(4) == 2
    assert fam.return_index(3) == 3


def test_verify_cyclotomic_family():
    report = verify_cyclotomic_family(2, 5, (2, 3), max_iter=12)
    assert all(c["pass"] for c in report["checks"])
    names = [c["name"] for c in report["checks"]]
    assert names == ["membership_pattern", "superspanned_hyperplanes"]


def exact_cyclotomic_verification(d, ell, tail, max_iter, budget=None):
    """The family's verification with every hyperplane settled on whole
    iterates: rows, super_rank and span_canonical."""
    family = cyclotomic_family(d, ell, tail)
    n = family.point.dim
    orbit = ExactOrbit(family.point, d, budget)
    pattern_ok = True
    detail = f"phi^n(P) in H_i iff d^n = i mod {ell}, for 0 <= n <= {max_iter}"
    for m in range(max_iter + 1):
        for i in range(1, ell):
            if orbit.member(m, family.hyperplane(i)) != (pow(d, m, ell) == i):
                pattern_ok = False
                detail = f"pattern fails at n={m}, i={i}"
    checks = [{"name": "membership_pattern", "pass": pattern_ok, "detail": detail}]
    span_ok = True
    detail = f"each H_i super-spanned by {n + 1} orbit points"
    for i in range(1, ell):
        indices = [family.return_index(i) + k * (ell - 1) for k in range(n + 1)]
        rows = orbit.rows(indices)
        if not linalg.super_rank(rows):
            span_ok = False
            detail = f"H_{i}: iterates {indices} do not super-span"
        elif linalg.span_canonical(rows) != family.hyperplane(i):
            span_ok = False
            detail = f"H_{i}: span of iterates {indices} is not H_{i}"
    checks.append({"name": "superspanned_hyperplanes", "pass": span_ok, "detail": detail})
    return {"checks": checks}


def outcome(verify, *args):
    """The report, or the type and message of the error raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dependent tails warn
        try:
            return verify(*args)
        except ExponentBudgetExceeded as exc:
            return type(exc), str(exc)


PRIMITIVE_ROOTS = {ell: [d for d in range(2, 12) if d % ell and is_primitive_root(d, ell)]
                   for ell in (3, 5, 7)}
NONZERO_RATIONALS = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 5))


@st.composite
def family_cases(draw):
    ell = draw(st.sampled_from(sorted(PRIMITIVE_ROOTS)))
    d = draw(st.sampled_from(PRIMITIVE_ROOTS[ell]))
    tail = tuple(draw(st.lists(NONZERO_RATIONALS, max_size=3)))
    # a budget that keeps the exact reference's iterates below 2^16 bits
    # per unit of height
    return d, ell, tail, draw(st.integers(0, 8)), draw(st.sampled_from([2 ** 10, 2 ** 16]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family_cases())
@example((2, 5, (2, 3), 8, 2 ** 16))
@example((2, 5, (), 8, 2 ** 10))
@example((2, 5, (2, 2), 8, 2 ** 16))
@example((2, 5, (Fraction(2), Fraction(1, 2)), 8, 2 ** 16))
@example((3, 7, (-1,), 8, 2 ** 10))
@example((2, 5, (-1,), 8, 2 ** 10))   # x0 = 1 and x2 = -1 agree from iterate 1 on
@example((2, 5, (2, -2), 8, 2 ** 16))
@example((2, 3, (1,), 8, 2 ** 10))
@example((2, 3, (2, 3, 5), 8, 2 ** 16))
def test_verify_cyclotomic_family_matches_the_exact_verification(case):
    assert outcome(verify_cyclotomic_family, *case) == \
        outcome(exact_cyclotomic_verification, *case)


def test_verify_cyclotomic_family_without_a_prime_takes_the_exact_path(monkeypatch):
    def no_prime(*args):
        raise AllPrimesBad("no usable filter prime")

    calls = []
    super_rank = linalg.super_rank
    monkeypatch.setattr(constructions, "ModularOrbit", no_prime)
    monkeypatch.setattr(linalg, "super_rank", lambda rows: calls.append(1) or super_rank(rows))
    report = verify_cyclotomic_family(2, 5, (2, 3), 12)
    assert len(calls) == 4  # one exact check per hyperplane
    assert report == exact_cyclotomic_verification(2, 5, (2, 3), 12)
    assert all(c["pass"] for c in report["checks"])


def test_verify_cyclotomic_family_certificate_builds_no_iterate(monkeypatch):
    def refuse(*args):
        raise AssertionError("a whole iterate was built")

    monkeypatch.setattr(ExactOrbit, "rows", refuse)
    monkeypatch.setattr(linalg, "super_rank", refuse)
    report = verify_cyclotomic_family(2, 5, (2, 3), 20)
    assert all(c["pass"] for c in report["checks"])


@pytest.mark.parametrize("tail", [(2, 2), (1,), (3, 1, 3), (2, -2), (-1,)])
def test_verify_cyclotomic_family_with_equal_coordinates_builds_no_iterate(monkeypatch, tail):
    def refuse(*args):
        raise AssertionError("a whole iterate was built")

    expected = outcome(exact_cyclotomic_verification, 2, 5, tail, 8)
    monkeypatch.setattr(ExactOrbit, "rows", refuse)
    monkeypatch.setattr(linalg, "super_rank", refuse)
    report = outcome(verify_cyclotomic_family, 2, 5, tail, 8)
    assert report == expected
    assert report["checks"][1]["pass"] is False


def test_sextic_verification():
    report = verify_sextic_example()
    assert len(report["checks"]) == 4
    for check in report["checks"]:
        assert check["pass"], check


def test_sextic_point_shape():
    P = sextic_point()
    K = sextic_field()
    assert K.degree == 6
    # canonical scaling divides by alpha; the linear relation survives it
    alpha, beta, gamma = P.coords
    assert alpha == K.one()
    assert (alpha + beta + gamma).is_zero()


def test_sextic_first_line_vanishes_too():
    # the (1,2,4)-exponent determinant dies through the alpha+beta+gamma factor
    from superspan.orbit import iterate_matrix
    P = sextic_point()
    assert linalg.det(iterate_matrix(P, 2, (0, 1, 2)).rows()).is_zero()


def test_quadric_probe_clean():
    P = ProjPoint.rational([1, 6, 2, 3])
    report = quadric_case_probe(P, 2, 4)
    assert report["counterexamples"] == []
    assert report["checked"] > 0


def test_quadric_probe_rejects_trivial_lattice():
    with pytest.raises(WrongRelationRank):
        quadric_case_probe(ProjPoint.rational([1, 2, 3, 5]), 2, 4)


def test_quadric_probe_rejects_wrong_rank_lattice():
    # on no quadric and with a different single relation 4 = 2^2
    with pytest.raises(WrongRelationRank):
        quadric_case_probe(ProjPoint.rational([1, 2, 3, 4]), 2, 4)


def test_quadric_probe_rejects_wrong_dimension():
    with pytest.raises(OffQuadric):
        quadric_case_probe(ProjPoint.rational([1, 6, 2]), 2, 4)


COARSE_LATTICES = [
    ((1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)),   # every sum-zero vector
    ((1, 1, -1, -1), (0, 2, 0, -2)),
    # pivot 3: the representative of x - y is not rep(x) - rep(y)
    ((1, 1, -1, -1), (0, 3, 0, -3)),
]


@pytest.mark.parametrize("coarse, d", [
    pytest.param(coarse, d, id=f"coarse{i}" + ("" if d == 2 else f"-d{d}"))
    for d in (2, 3) for i, coarse in enumerate(COARSE_LATTICES)])
def test_quadric_probe_matches_per_pair_definition(monkeypatch, coarse, d):
    # reducing modulo a lattice coarser than R(P) makes counterexamples
    # appear; the reference tests every pair for membership on its own
    L = relations.RelLattice(4, coarse)
    monkeypatch.setattr(constructions, "lattice_reduce",
                        lambda lattice, v: relations.lattice_reduce(L, v))
    bound = 4
    report = quadric_case_probe(ProjPoint.rational([1, 6, 2, 3]), d, bound)
    expected, checked = [], 0
    tuples = list(combinations(range(bound + 1), 4))
    perms = list(permutations(range(4)))
    for m in tuples:
        for mt in tuples:
            if mt == m:
                continue
            for sigma in perms:
                for tau in perms:
                    checked += 1
                    v = exponent_gap_vector(d, m, mt, sigma, tau)
                    fixed_point_free = all(s != t for s, t in zip(sigma, tau))
                    if (fixed_point_free or any(v)) and relations.lattice_contains(L, v):
                        expected.append({"m": list(m), "m_tilde": list(mt),
                                         "sigma": list(sigma), "tau": list(tau), "v": v,
                                         "case": "fixed_point_free" if fixed_point_free
                                         else "common_fixed_point"})
    assert expected
    assert report["checked"] == checked
    assert report["counterexamples"] == expected


def test_double_transposition_gap_shape():
    # tau^{-1} sigma = (01)(23) forces the gap vector shape (X, -X, Y, -Y)
    swap = (1, 0, 3, 2)
    for tau in [(0, 1, 2, 3), (2, 3, 0, 1), (1, 2, 3, 0)]:
        sigma = tuple(tau[swap[i]] for i in range(4))
        v = exponent_gap_vector(2, (0, 2, 3, 5), (1, 2, 4, 6), sigma, tau)
        assert v[1] == -v[0] and v[3] == -v[2]
