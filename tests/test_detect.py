from fractions import Fraction
from itertools import combinations, islice
from math import log

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from superspan import detect, field, linalg
from superspan import orbit as orbit_module
from superspan.constructions import cyclotomic_family, sextic_field, sextic_point
from superspan.detect import (
    DEFAULT_FILTER_PRIME_COUNT,
    enumerate_exceptional,
    intersection_count,
)
from superspan.errors import (
    AllPrimesBad,
    BadPrime,
    ExponentBudgetExceeded,
    NonInvertible,
    Unsupported,
    ZeroCoordinate,
)
from superspan.linalg import span_canonical
from superspan.orbit import ExactOrbit, ModularOrbit, ProjPoint, iterate, iterate_matrix


def stream_primes(k, seed=0):
    return list(islice(detect._prime_stream(seed), k))


def test_filter_primes_deterministic():
    a = stream_primes(3, seed=0)
    b = stream_primes(3, seed=0)
    assert a == b
    assert len(set(a)) == 3
    assert all(field.is_prime(p) and p.bit_length() == 30 for p in a)
    assert stream_primes(3, seed=1) != a


def test_one_exceptional_line():
    P = ProjPoint.rational([1, 2, -3])
    report = enumerate_exceptional(P, 2, 2, 3)
    assert report.tuples == ((0, 1, 2),)
    assert len(report.subspaces) == 1
    rec = report.subspaces[0]
    assert rec.preimage == ((0, 1, 2),)
    assert rec.intersection_count == 3
    assert rec.subspace.dim_projective == 1


def test_generic_point_no_subspaces():
    P = ProjPoint.rational([1, 2, 3])
    report = enumerate_exceptional(P, 2, 2, 5)
    assert report.tuples == ()
    assert report.subspaces == ()


def test_monotone_in_bound():
    P = ProjPoint.rational([1, 2, -3])
    small = enumerate_exceptional(P, 2, 2, 3)
    large = enumerate_exceptional(P, 2, 2, 6)
    small_keys = {rec.subspace for rec in small.subspaces}
    large_keys = {rec.subspace for rec in large.subspaces}
    assert small_keys <= large_keys
    counts_small = {rec.subspace: rec.intersection_count for rec in small.subspaces}
    counts_large = {rec.subspace: rec.intersection_count for rec in large.subspaces}
    for key, count in counts_small.items():
        assert counts_large[key] >= count


def test_subspace_count_stabilizes():
    # observed (not proved): with a trivial relation lattice the number
    # of reported subspaces stops growing as the bound increases
    for coords, expected in [([1, 2, -3], 1), ([1, 2, 3], 0)]:
        P = ProjPoint.rational(coords)
        counts = [len(enumerate_exceptional(P, 2, 2, M).subspaces)
                  for M in range(3, 8)]
        assert counts == [expected] * 5


def test_diagnostics_fields():
    P = ProjPoint.rational([1, 2, -3])
    report = enumerate_exceptional(P, 2, 2, 3)
    diag = report.diagnostics
    assert diag["generic_expectation"] == 2  # n=2, r=2: floor(2/1)
    analyses = diag["partition_analyses"]
    assert len(analyses) == 1
    entry = analyses[0]["per_p"]["0,1,2"]
    assert entry["exceptional_for"] == []
    assert entry["bullet_vanishing_t"] == []
    assert entry["non_unique"] is False


def test_filtered_equals_unfiltered():
    for coords, r, M in [([1, 2, -3], 2, 4), ([1, 2, 3], 2, 5), ([1, 2, 3, 6], 2, 4)]:
        P = ProjPoint.rational(coords)
        fast = enumerate_exceptional(P, 2, r, M)
        slow = enumerate_exceptional(P, 2, r, M, prime_count=0)
        assert fast.semantic_content() == slow.semantic_content()
        assert fast.diagnostics["filtered"] + fast.diagnostics["exact_checked"] == \
            fast.diagnostics["tuples_total"]
        assert slow.diagnostics["filtered"] == 0


def test_r0_unsupported():
    with pytest.raises(Unsupported):
        enumerate_exceptional(ProjPoint.rational([1, 2, 3]), 2, 0, 3)


def test_r_out_of_range():
    with pytest.raises(Unsupported):
        enumerate_exceptional(ProjPoint.rational([1, 2, 3]), 2, 3, 5)


def test_zero_coordinate_rejected():
    with pytest.raises(ZeroCoordinate):
        enumerate_exceptional(ProjPoint.rational([1, 0, 3]), 2, 2, 3)


def test_degree_below_2_fails_before_any_prime_is_drawn(monkeypatch):
    calls = []
    root = orbit_module.root_mod_prime

    def counting_root(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(orbit_module, "root_mod_prime", counting_root)
    with pytest.raises(ValueError, match="degree must be >= 2"):
        enumerate_exceptional(sextic_point(), 1, 2, 6)
    assert calls == []


def test_budget_skips_are_reported():
    C5 = field.cyclotomic_field(5)
    P = ProjPoint(C5, [C5.one(), C5.gen(), C5.from_rational(2), C5.from_rational(3)])
    report = enumerate_exceptional(P, 2, 3, 16, budget=2 ** 12)
    assert report.diagnostics["skipped"], "big tuples should blow the tiny budget"
    for entry in report.diagnostics["skipped"]:
        assert "reason" in entry


def test_preperiodicity_witness_r1():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    P = ProjPoint(C5, [C5.one(), z])
    report = enumerate_exceptional(P, 2, 1, 5)
    # 2^m mod 5 cycles with period 4: iterates 0 and 4, 1 and 5 coincide
    assert ((0, 4) in report.tuples) and ((1, 5) in report.tuples)
    assert report.diagnostics.get("preperiodicity_witness") is True
    for rec in report.subspaces:
        assert rec.subspace.dim_projective == 0


def test_intersection_count_direct():
    P = ProjPoint.rational([1, 2, -3])
    L = span_canonical([iterate(P, 2, 0), iterate(P, 2, 1)])
    assert intersection_count(P, 2, L, 3) == 3
    far = span_canonical([ProjPoint.rational([0, 1, 0]), ProjPoint.rational([0, 0, 1])])
    assert intersection_count(P, 2, far, 3) == 0


def test_quadric_point_detection():
    # [1,6,2,3] sits on x0 x1 = x2 x3; hyperplane detection at r = 3
    P = ProjPoint.rational([1, 6, 2, 3])
    report = enumerate_exceptional(P, 2, 3, 5)
    slow = enumerate_exceptional(P, 2, 3, 5, prime_count=0)
    assert report.semantic_content() == slow.semantic_content()


def _default_primes(P, d, r, M, seed=0):
    return enumerate_exceptional(P, d, r, M, seed=seed).diagnostics["primes"]


def test_default_primes_have_roots():
    C5 = field.cyclotomic_field(5)
    z5 = ProjPoint(C5, [C5.one(), C5.gen(), C5.from_rational(2), C5.from_rational(3)])
    for P, r, M in [(z5, 3, 5), (sextic_point(), 2, 4)]:
        primes = _default_primes(P, 2, r, M)
        assert len(primes) == DEFAULT_FILTER_PRIME_COUNT
        stream = stream_primes(200)
        assert [p for p in stream if p in primes] == primes  # drawn in stream order
        for p in primes:
            root = field.root_mod_prime(P.ambient, p)
            assert root is not None
            f = [c.numerator * pow(c.denominator, -1, p) for c in P.ambient.min_poly]
            assert sum(c * pow(root, i, p) for i, c in enumerate(f)) % p == 0
        assert all(p % 5 == 1 for p in _default_primes(z5, 2, 3, 5))


def test_default_primes_follow_the_seed():
    P = sextic_point()
    assert _default_primes(P, 2, 2, 4, seed=7) == _default_primes(P, 2, 2, 4, seed=7)
    assert _default_primes(P, 2, 2, 4, seed=7) != _default_primes(P, 2, 2, 4, seed=8)
    # a 30-bit prime never divides a small rational coordinate, so rational
    # points keep the first primes of the stream
    assert _default_primes(ProjPoint.rational([1, 2, -3]), 2, 2, 3, seed=7) == \
        stream_primes(DEFAULT_FILTER_PRIME_COUNT, seed=7)


@pytest.mark.parametrize("min_poly", [[0, 0, 1], [1, -2, 1]])
def test_default_primes_give_up_when_f_is_not_squarefree(min_poly):
    # x^2 and (x - 1)^2 are not squarefree mod any prime
    K = field.number_field(min_poly)
    P = ProjPoint(K, [K.one(), K.gen() + 2])
    with pytest.raises(AllPrimesBad):
        enumerate_exceptional(P, 2, 1, 5)


def test_coordinate_vanishing_at_every_root():
    # x - 1 maps to 0 at the least root 1 of x^2 - 1 mod every odd p; the
    # filter never certifies, and the exact check meets the zero divisor
    K = field.number_field([-1, 0, 1])
    P = ProjPoint(K, [K.one(), K.gen() - 1])
    for prime_count in (DEFAULT_FILTER_PRIME_COUNT, 0):
        with pytest.raises(NonInvertible):
            enumerate_exceptional(P, 2, 1, 5, prime_count=prime_count)


# ----------------------------------------------------------------------
# intersection counts certified mod p
# ----------------------------------------------------------------------

Q = field.rational_field()
C5 = field.cyclotomic_field(5)
K6 = sextic_field()
ZETA = C5.gen()
ALPHA = K6.gen()
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# field -> (coordinates to build points from, filter primes to draw from,
# cap on d^m so the exact iterates stay cheap).  Roots of unity make
# iterates repeat, so a subspace meets the orbit beyond its spanning
# iterates; the small primes collide with denominators of random rows.
COUNT_FIELDS = {
    "Q": ([Q.from_rational(c) for c in (-1, 2, -2, 3, -3, 6, Fraction(1, 2))],
          [3, 5, 7, 11, 13, 10007], 4096),
    "C5": ([ZETA, ZETA ** 2, ZETA ** 3, -C5.one(), ZETA + 1, C5.from_rational(2)],
           [7, 11, 31, 41, 10061], 512),
    "sextic": ([ALPHA, -K6.one() - ALPHA, K6.from_rational(2), ALPHA * ALPHA],
               [2, 3, 31, 83, 101, 257], 256),
}


@st.composite
def field_rows(draw, K, width, count):
    """count rows of small field values with denominators among small primes."""
    rows = []
    for _ in range(count):
        row = []
        for _ in range(width):
            coeffs = [Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 3, 7, 11])))
                      for _ in range(K.degree)]
            row.append(field.FieldValue(K, coeffs))
        rows.append(row)
    return rows


@st.composite
def count_cases(draw):
    """(point, d, subspace, max_iter, primes); the subspace is spanned by
    iterates or by random rows."""
    kind = draw(st.sampled_from(sorted(COUNT_FIELDS)))
    specials, pool, cap = COUNT_FIELDS[kind]
    K = specials[0].ambient
    n = draw(st.integers(2, 3))
    P = ProjPoint(K, [K.one()] + [draw(st.sampled_from(specials)) for _ in range(n)])
    d = draw(st.sampled_from((2, 3)))
    M = int(log(cap) / log(d) + 1e-9)
    r = draw(st.integers(1, n))
    if draw(st.booleans()):
        ms = draw(st.lists(st.integers(0, M), min_size=r, max_size=r, unique=True))
        rows = [iterate(P, d, m) for m in ms]
    else:
        rows = draw(field_rows(K, n + 1, r))
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    if pool[-1] not in primes and draw(st.booleans()):
        primes.append(pool[-1])  # usable for most points
    return P, d, span_canonical(rows), M, primes


@PROPERTY
@given(count_cases())
@example((ProjPoint(C5, [C5.one(), ZETA, ZETA ** 2]), 2,
          span_canonical([[C5.one(), ZETA, ZETA ** 2], [C5.zero(), C5.from_rational(11), C5.one()]]),
          9, [11, 31]))
def test_modular_intersection_count_is_exact(case):
    P, d, L, M, primes = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        assume(False)
    exact = intersection_count(P, d, L, M)
    assert intersection_count(P, d, L, M, orbit=orbit) == exact
    if exact > L.rank:
        event("members beyond the spanning rank")
    if any(c.denominator % p == 0 for p in orbit.primes
           for row in L.basis for v in row for c in v.coeffs):
        event("a usable prime divides a denominator of L")


@pytest.fixture
def materialized(monkeypatch):
    """The (iterate index, coordinate) powers exact orbits compute, in order."""
    seen = []
    power = ExactOrbit.power

    def counting_power(self, j, m):
        fresh = m not in self.powers[j]
        value = power(self, j, m)
        if fresh:
            seen.append((m, j))
        return value

    monkeypatch.setattr(ExactOrbit, "power", counting_power)
    return seen


def indices(materialized):
    """The iterate indices among the computed powers, in first-seen order."""
    return list(dict.fromkeys(m for m, _ in materialized))


def test_cyclotomic_hyperplane_count_with_orbit(materialized):
    # 2^n = 1 mod 5 iff n = 0 mod 4: six members among 0..20, repeated
    # points outside any preimage tuple; only they are materialized, and
    # only on the coordinates x1 = zeta*x0 reads
    fam = cyclotomic_family(2, 5, (2, 3))
    orbit = ModularOrbit(fam.point, 2, detect._prime_stream(0), DEFAULT_FILTER_PRIME_COUNT)
    assert intersection_count(fam.point, 2, fam.hyperplane(1), 20, orbit=orbit) == 6
    assert indices(materialized) == [0, 4, 8, 12, 16, 20]
    assert {j for _, j in materialized} == {0, 1}


@pytest.mark.parametrize("primes, exact_indices", [
    ([11], list(range(10))),      # L is not reduced at 11: all exact
    ([11, 31], [0, 4, 8]),        # 31 certifies the non-members
])
def test_denominator_divisible_by_filter_prime(materialized, primes, exact_indices):
    # the basis carries 1/11; iterates 0, 4 and 8 lie on the line
    P = ProjPoint(C5, [C5.one(), ZETA, ZETA ** 2])
    L = span_canonical([P.coords, [C5.zero(), C5.from_rational(11), C5.one()]])
    orbit = ModularOrbit(P, 2, primes, len(primes))
    with pytest.raises(BadPrime):
        orbit.image(11, L.basis[0][2])
    assert intersection_count(P, 2, L, 9, orbit=orbit) == 3
    assert indices(materialized) == exact_indices


@pytest.mark.parametrize("coords, d", [([1, 5, 7], 2), ([1, 2, -3], 3), ([1, 2], 2)])
def test_intersection_count_rejects_another_orbit(coords, d):
    # read from another point's or degree's rows the count would be 0 or 1,
    # not 3, and another dimension's rows raised IndexError
    P = ProjPoint.rational([1, 2, -3])
    L = span_canonical([iterate(P, 2, 0), iterate(P, 2, 1)])
    other = ProjPoint.rational(coords)
    with pytest.raises(ValueError, match="not the orbit of"):
        intersection_count(P, 2, L, 3, orbit=ModularOrbit(other, d, stream_primes(3), 3))
    with pytest.raises(ValueError, match="not the orbit of"):
        intersection_count(P, 2, L, 3, exact=ExactOrbit(other, d))
    # an equal point built afresh is the same orbit
    same = ProjPoint.rational([1, 2, -3])
    assert intersection_count(P, 2, L, 3, orbit=ModularOrbit(same, 2, stream_primes(3), 3),
                              exact=ExactOrbit(same, 2)) == 3


def test_modular_count_keeps_budget_errors():
    # the filter primes certify every iterate past 2 off the line, so only
    # members 0, 1 and 2 are exact work; without them every index is
    P = ProjPoint.rational([1, 2, -3])
    L = span_canonical([iterate(P, 2, 0), iterate(P, 2, 1)])
    orbit = ModularOrbit(P, 2, stream_primes(3), 3)
    assert intersection_count(P, 2, L, 60, orbit=orbit, exact=ExactOrbit(P, 2, 4096)) == 3
    with pytest.raises(ExponentBudgetExceeded):
        intersection_count(P, 2, L, 14, exact=ExactOrbit(P, 2, 4096))


# ----------------------------------------------------------------------
# the run's exact orbit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("filtered", [True, False])
@pytest.mark.parametrize("P, r, M, lines", [
    (ProjPoint.rational([1, 2, -3]), 2, 8, 1),
    (ProjPoint(C5, [C5.one(), ZETA, ZETA ** 2]), 2, 9, 0),
    (sextic_point(), 2, 6, 2),
], ids=["1,2,-3", "1,z5,z5^2", "sextic"])
def test_detect_materializes_each_iterate_once(materialized, P, r, M, lines, filtered):
    # confirmation, grouping and intersection counts share one cache
    prime_count = DEFAULT_FILTER_PRIME_COUNT if filtered else 0
    report = enumerate_exceptional(P, 2, r, M, prime_count=prime_count)
    assert len(report.subspaces) == lines
    assert len(materialized) == len(set(materialized))
    if not filtered:
        assert sorted(indices(materialized)) == list(range(M + 1))


def super_rank_by_definition(rows):
    r = len(rows) - 1
    return linalg.rank(rows) == r and all(linalg.rank(list(sub)) == r
                                          for sub in combinations(rows, r))


@pytest.mark.parametrize("exponents, r, M", [((0, 1, 2), 1, 6), ((0, 1, 2), 2, 7),
                                             ((0, 1, 2, 3), 3, 6)])
def test_periodic_orbit_matches_definition(exponents, r, M):
    # iterates m and m + 4 coincide: every tuple holding both repeats a
    # point, which super-spans for r = 1 and never for r >= 2
    P = ProjPoint(C5, [ZETA ** k for k in exponents])
    fast = enumerate_exceptional(P, 2, r, M)
    slow = enumerate_exceptional(P, 2, r, M, prime_count=0)
    assert fast.semantic_content() == slow.semantic_content()
    assert fast.tuples == tuple(m for m in combinations(range(M + 1), r + 1)
                                if super_rank_by_definition(iterate_matrix(P, 2, m).rows()))
