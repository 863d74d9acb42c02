import random
import time
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

from superspan import field, linalg
from superspan.constructions import sextic_field
from superspan.errors import (
    DimensionMismatch,
    ExponentBudgetExceeded,
    TupleTooLong,
    ZeroCoordinate,
)
from superspan.orbit import (
    ExactOrbit,
    ProjPoint,
    checked_power,
    iterate,
    iterate_matrix,
    subspace_membership,
    validate_exp_tuple,
)


def test_iterate_identity():
    P = ProjPoint.rational([1, 2, 3])
    assert iterate(P, 2, 0) == P


def test_iterate_squares_twice():
    P = ProjPoint.rational([1, 2, 3])
    assert iterate(P, 2, 2) == ProjPoint.rational([1, 16, 81])


def test_iterate_cyclotomic_reduction():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    P = ProjPoint(C5, [C5.one(), z])
    Q = iterate(P, 2, 3)  # exponent 8 = 3 mod 5
    assert Q == ProjPoint(C5, [C5.one(), z ** 3])


def test_iterate_composition():
    rng = random.Random(23)
    P = ProjPoint.rational([1, 2, -3])
    for _ in range(10):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        assert iterate(P, 2, a + b) == iterate(iterate(P, 2, a), 2, b)


def test_canonical_scaling():
    assert ProjPoint.rational([2, 4, -6]) == ProjPoint.rational([1, 2, -3])
    assert ProjPoint.rational([0, 5, 10]) == ProjPoint.rational([0, 1, 2])
    with pytest.raises(ZeroCoordinate):
        ProjPoint.rational([0, 0, 0])


def test_iterate_scale_invariance():
    a = iterate(ProjPoint.rational([2, 4, 6]), 2, 2)
    b = iterate(ProjPoint.rational([1, 2, 3]), 2, 2)
    assert a == b


def test_iterate_matrix_entries():
    P = ProjPoint.rational([1, 2, -3])
    A = iterate_matrix(P, 2, (0, 1, 2))
    expect = [[1, 2, -3], [1, 4, 9], [1, 16, 81]]
    got = [[v.as_rational() for v in row] for row in A.rows()]
    assert got == [[Fraction(x) for x in row] for row in expect]


def test_iterate_matrix_small():
    P = ProjPoint.rational([1, 2])
    A = iterate_matrix(P, 3, (0, 1))
    got = [[v.as_rational() for v in row] for row in A.rows()]
    assert got == [[1, 2], [1, 8]]


def test_iterate_matrix_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        iterate_matrix(ProjPoint.rational([1, 0, 2]), 2, (0, 1))


def test_iterate_matrix_rejects_long_tuple():
    with pytest.raises(TupleTooLong):
        iterate_matrix(ProjPoint.rational([1, 2]), 2, (0, 1, 2))


def test_iterate_matrix_rejects_non_power_map_degree():
    with pytest.raises(ValueError, match="degree must be >= 2"):
        iterate_matrix(ProjPoint.rational([1, 2, 3]), 1, (0, 1))


@pytest.mark.parametrize("d", [1, 0])
def test_exact_orbit_rejects_non_power_map_degree(d):
    with pytest.raises(ValueError, match="degree must be >= 2"):
        ExactOrbit(ProjPoint.rational([1, 2, 3]), d)


def test_exp_tuple_validation():
    assert validate_exp_tuple([0, 3, 5]) == (0, 3, 5)
    with pytest.raises(ValueError):
        validate_exp_tuple([3, 3])
    with pytest.raises(ValueError):
        validate_exp_tuple([-1, 2])


def test_budget_guard():
    P = ProjPoint.rational([1, 2, 3])
    with pytest.raises(ExponentBudgetExceeded):
        iterate(P, 2, 50, budget=2 ** 20)
    with pytest.raises(ExponentBudgetExceeded):
        iterate_matrix(P, 2, (0, 30), budget=2 ** 10).rows()
    # huge m refused without computing d**m
    with pytest.raises(ExponentBudgetExceeded):
        iterate(P, 2, 10 ** 9)


def test_rows_match_iterates():
    P = ProjPoint.rational([1, 2, -3])
    A = iterate_matrix(P, 2, (0, 2, 3))
    for i in range(3):
        assert A.rows()[i] == list(iterate(P, 2, A.tuple[i]).coords)


def test_membership_on_line():
    L = linalg.span_canonical([ProjPoint.rational([1, 2, -3]),
                               ProjPoint.rational([1, 4, 9])])
    assert subspace_membership(ProjPoint.rational([1, 16, 81]), L)
    assert not subspace_membership(ProjPoint.rational([1, 256, 6561]), L)
    assert subspace_membership(ProjPoint.rational([1, 4, 9]), L)


def test_membership_dimension_check():
    L = linalg.span_canonical([ProjPoint.rational([1, 2, -3])])
    with pytest.raises(DimensionMismatch):
        subspace_membership(ProjPoint.rational([1, 2]), L)


FIELDS = (field.rational_field(), field.cyclotomic_field(5), sextic_field())


@st.composite
def membership_cases(draw):
    """A subspace of P^n over Q, Q(zeta_5) or the sextic, spanned by up to
    n+1 random rows, and a point that is half the time a combination of
    its basis rows."""
    K = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    entries = st.fractions(-3, 3, max_denominator=3) if K.degree == 1 else st.integers(-2, 2)
    values = st.lists(entries, min_size=K.degree, max_size=K.degree).map(
        lambda cs: field.FieldValue(K, cs))
    rows = st.lists(values, min_size=n + 1, max_size=n + 1)
    L = linalg.span_canonical(draw(st.lists(rows, min_size=1, max_size=n + 1)))
    coords = draw(rows)
    if L.rank and draw(st.booleans()):
        coeffs = draw(st.lists(values, min_size=L.rank, max_size=L.rank))
        coords = [sum((c * row[j] for c, row in zip(coeffs, L.basis)), K.zero())
                  for j in range(n + 1)]
    if all(v.is_zero() for v in coords):
        coords[0] = K.one()
    return ProjPoint(K, coords), L


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(membership_cases())
@example((ProjPoint.rational([1, 16, 81]),
          linalg.span_canonical([ProjPoint.rational([1, 2, -3]), ProjPoint.rational([1, 4, 9])])))
@example((ProjPoint.rational([1, 5, 0, 7]),
          linalg.span_canonical([ProjPoint.rational([1, 5, 0, 0]), ProjPoint.rational([0, 0, 1, 1])])))
def test_membership_matches_rank(case):
    Q, L = case
    member = subspace_membership(Q, L)
    assert member == (linalg.rank(list(L.basis) + [Q.coords]) == L.rank)
    event(f"{Q.ambient.kind}, member {member}")


@pytest.mark.parametrize("m", [13, 50])
def test_exact_orbit_budget(m):
    # the message is checked_power's, and a refused index is not cached,
    # whichever access refused it
    P = ProjPoint.rational([1, 2, -3])
    exact = ExactOrbit(P, 2, budget=4096)
    L = linalg.span_canonical([P, iterate(P, 2, 1)])
    for access in (lambda: exact.rows([m]), lambda: exact.power(2, m),
                   lambda: exact.member(m, L)):
        with pytest.raises(ExponentBudgetExceeded) as got:
            access()
        with pytest.raises(ExponentBudgetExceeded) as want:
            checked_power(2, m, 4096)
        assert str(got.value) == str(want.value)
        assert not any(m in powers for powers in exact.powers)
    assert exact.rows([0, 12]) == [P.coords, iterate(P, 2, 12).coords]
    # a step from the cached power 12 is checked too
    with pytest.raises(ExponentBudgetExceeded):
        exact.power(1, 13)
    assert 13 not in exact.powers[1]


@st.composite
def orbit_cases(draw):
    """A point of P^n over Q, Q(zeta_5) or the sextic, a degree, subspaces
    spanned by its iterates, by random rows and by nothing, and a run of
    orbit accesses in random order, with repeats."""
    K = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 3))
    entries = st.fractions(-3, 3, max_denominator=3) if K.degree == 1 else st.integers(-2, 2)
    values = st.lists(entries, min_size=K.degree, max_size=K.degree).map(
        lambda cs: field.FieldValue(K, cs))
    rows = st.lists(values, min_size=n + 1, max_size=n + 1)
    coords = draw(rows)
    if all(v.is_zero() for v in coords):
        coords[0] = K.one()
    P = ProjPoint(K, coords)
    indices = st.integers(0, 4)
    spans = [linalg.Subspace(n, ())]
    for ms in draw(st.lists(st.lists(indices, min_size=1, max_size=n), max_size=2)):
        spans.append(linalg.span_canonical([iterate(P, d, m) for m in ms]))
    for basis in draw(st.lists(st.lists(rows, min_size=1, max_size=n), max_size=2)):
        spans.append(linalg.span_canonical(basis))
    accesses = draw(st.lists(st.tuples(st.sampled_from(["point", "member", "power"]),
                                       indices, st.integers(0, n + 1)), max_size=12))
    return P, d, spans, accesses


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(orbit_cases())
@example((ProjPoint.rational([1, 2, -3]), 2, [linalg.Subspace(2, ())],
          [("power", 4, 1), ("power", 2, 1), ("point", 3, 0), ("point", 0, 0),
           ("point", 3, 0), ("power", 4, 2)]))
def test_exact_orbit_matches_iterate(case):
    # the cache answers as iterate and subspace_membership do, and
    # computes each (coordinate, index) power with exactly one **
    P, d, spans, accesses = case
    exact = ExactOrbit(P, d)
    pow_calls = []
    power = field.FieldValue.__pow__

    def counting_pow(self, e):
        pow_calls.append(e)
        return power(self, e)

    field.FieldValue.__pow__ = counting_pow
    try:
        got = [exact.rows([m])[0] if kind == "point"
               else exact.power(k % (P.dim + 1), m) if kind == "power"
               else exact.member(m, spans[k % len(spans)])
               for kind, m, k in accesses]
    finally:
        field.FieldValue.__pow__ = power
    assert len(pow_calls) == sum(len(powers) for powers in exact.powers)
    for (kind, m, k), value in zip(accesses, got):
        if kind == "point":
            assert value == iterate(P, d, m).coords
        elif kind == "power":
            assert value == P.coords[k % (P.dim + 1)] ** d ** m
        else:
            assert value == subspace_membership(iterate(P, d, m), spans[k % len(spans)])
    for j, powers in enumerate(exact.powers):
        for m, value in powers.items():
            assert value == P.coords[j] ** d ** m


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 7]), st.sampled_from([2, 3, 4]),
       st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 6)), min_size=1, max_size=3))
def test_period_is_the_first_repeat_of_the_orbit(ell, d, entries):
    """Iterates 0..s+t-1 are distinct and iterate s+t is iterate s; past
    a budget of 4 every power is read through the period, and equals the
    power of iterate."""
    C = field.cyclotomic_field(ell)
    P = ProjPoint(C, [C.one()] + [sign * C.gen() ** a for sign, a in entries])
    s, t = ExactOrbit(P, d).period()
    points = [iterate(P, d, m) for m in range(s + t + 1)]
    assert len(set(points[:-1])) == s + t and points[-1] == points[s]
    exact = ExactOrbit(P, d, budget=4)
    for m in range(16):
        Q = iterate(P, d, m)
        assert exact.rows([m]) == [Q.coords]
        assert exact.rep(m) < s + t and points[exact.rep(m)] == Q
    # past the budget only the distinct iterates are cached
    assert all(k < s + t or d ** k <= 4 for powers in exact.powers for k in powers)
    event(f"(s, t) = {(s, t)}")


@pytest.mark.parametrize("min_poly, root, period", [
    ([1, 0, 0, 1, 0, 0, 1], 1, (0, 6)),     # zeta_9: 2^m mod 9
    ([1, 1, 1, 1, 1, 1, 1], 1, (0, 3)),     # zeta_7 in a degree-6 field: 2^m mod 7
    ([1, 0, 0, 1, 0, 0, 1], -1, (1, 6)),    # -zeta_9, of order 18: 2^m mod 18
    ([1, 0, 1], 1, (2, 1)),                 # i, of order 4: 2^m mod 4 is 0 from m = 2
    ([1] * 13, 1, (0, 12)),                 # zeta_13, W0 = 32760: screened mod p first
])
def test_number_field_roots_of_unity_get_their_period(min_poly, root, period):
    # a root of unity in a field of degree n has an order w with phi(w) | n,
    # and every such w divides 252 for n = 6 and 12 for n = 2
    K = field.number_field(min_poly)
    assert ExactOrbit(ProjPoint(K, [K.one(), root * K.gen()]), 2).period() == period


def test_non_torsion_orbit_past_the_budget_still_raises():
    # 2 is no root of unity, so [1, zeta_5, 2] has no period to read through
    C5 = field.cyclotomic_field(5)
    exact = ExactOrbit(ProjPoint(C5, [C5.one(), C5.gen(), C5.from_rational(2)]), 2, budget=4)
    with pytest.raises(ExponentBudgetExceeded):
        exact.power(1, 3)
    assert exact.period() is None


@pytest.mark.parametrize("min_poly", [[1] * 13, [-2] + [0] * 59 + [1]], ids=["Phi_13", "x^60-2"])
def test_torsion_test_of_a_large_field_is_cheap(min_poly):
    # W0 is 32760 for degree 12 and about 1.1e9 for degree 60: the exact
    # power alpha ** W0 of a coordinate that is no root of unity would
    # take 0.16 s and forever; its image at a prime rules it out at once
    K = field.number_field(min_poly)
    start = time.monotonic()
    for alpha in (K.gen() + K.from_rational(2), K.gen() * K.from_rational(3)):
        assert ExactOrbit(ProjPoint(K, [K.one(), alpha]), 2).period() is None
    assert time.monotonic() - start < 1
