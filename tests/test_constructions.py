import warnings
from itertools import combinations, permutations

import pytest

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
    DegenerateModulus,
    NonPrime,
    NotPrimitiveRoot,
    OffQuadric,
    WrongRelationRank,
    ZeroTail,
)
from superspan.orbit import ProjPoint, iterate, subspace_membership


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
