"""The modular kernel: roots of f mod p, the residue rows of ModularOrbit,
and the soundness of the rank filter, over Q, Q(zeta_5) and the sextic."""

from collections import Counter
from fractions import Fraction
from itertools import chain, islice, repeat
from math import log

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from superspan import field, linalg, modp, orbit as orbit_module
from superspan.constructions import sextic_field, sextic_point
from superspan.detect import _prime_stream, enumerate_exceptional
from superspan.errors import AllPrimesBad, BadPrime
from superspan.orbit import ModularOrbit, ProjPoint, iterate_matrix

Q = field.rational_field()
C5 = field.cyclotomic_field(5)
K6 = sextic_field()
ZETA = C5.gen()
ALPHA = K6.gen()

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# field -> (small nonzero values that make structured points, filter primes
# to draw from, cap on d^m so exact iterates stay cheap).  The primes mix
# usable ones with ones that have no root of f (7 for Q(zeta_5); 3 and 7
# for the sextic), collide with a denominator (2 for the sextic) or make
# f mod p non-squarefree (5 for Q(zeta_5)).
FIELDS = {
    "Q": ([Q.from_rational(c) for c in (1, -1, 2, -2, 3, -3, 6, 97, Fraction(1, 2))],
          [2, 3, 5, 7, 11, 13, 97, 10007], 8000),
    "C5": ([ZETA, ZETA ** 2, -C5.one(), ZETA - 3, C5.from_rational(2), ZETA + 1],
           [5, 7, 11, 31, 41, 61, 10061], 1000),
    "sextic": ([ALPHA, -K6.one() - ALPHA, K6.from_rational(2), ALPHA * ALPHA],
               [2, 3, 7, 31, 83, 101, 257], 256),
}
DEGREES = (2, 3, 6, 10)


def poly_mod(ambient, p):
    """f mod p, constant term first (x for the rationals, whose trivial
    root is 0)."""
    if ambient.min_poly is None:
        return [0, 1]
    return [c.numerator * pow(c.denominator, -1, p) % p for c in ambient.min_poly]


def evaluate(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def image(value, p, root):
    """value in F_p: its reduction mod p evaluated at the root."""
    return evaluate(field.reduce_mod_prime(value, p).coeffs, root, p)


def max_index(d, cap):
    return int(log(cap) / log(d) + 1e-9)


@st.composite
def values(draw, kind):
    specials, _, _ = FIELDS[kind]
    K = specials[0].ambient
    if draw(st.integers(0, 2)):
        return draw(st.sampled_from(specials))
    if K.degree == 1:
        num = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
        return K.from_rational(Fraction(num, draw(st.sampled_from([1, 1, 2, 3]))))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=K.degree, max_size=K.degree))
    return field.FieldValue(K, coeffs) if any(coeffs) else K.one()


@st.composite
def orbit_cases(draw, rank_cases=False):
    """(point, d, iterate indices, primes).  With rank_cases the indices
    are an increasing (r+1)-tuple and r is returned as well."""
    kind = draw(st.sampled_from(sorted(FIELDS)))
    specials, pool, cap = FIELDS[kind]
    K = specials[0].ambient
    n = draw(st.integers(2, 3))
    P = ProjPoint(K, [K.one()] + [draw(values(kind)) for _ in range(n)])
    d = draw(st.sampled_from(DEGREES))
    top = max_index(d, cap)
    primes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    if not rank_cases:
        ms = draw(st.lists(st.integers(0, top), min_size=1, max_size=4, unique=True))
        return P, d, ms, primes
    r = draw(st.integers(1, min(n, top)))
    m = sorted(draw(st.lists(st.integers(0, top), min_size=r + 1, max_size=r + 1,
                             unique=True)))
    return P, d, tuple(m), r, primes


def test_roots_match_brute_force():
    for ambient in (Q, C5, K6):
        for p in (q for q in range(2, 300) if field.is_prime(q)):
            try:
                root = field.root_mod_prime(ambient, p)
            except BadPrime:
                assert any(c.denominator % p == 0 for c in ambient.min_poly)
                continue
            f = poly_mod(ambient, p)
            roots = [x for x in range(p) if evaluate(f, x, p) == 0]
            assert root == (roots[0] if roots else None), (ambient.kind, p)


@PROPERTY
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(lambda c: c + [1]),
       st.sampled_from([2, 3, 5, 7, 11, 13, 31, 97, 101]))
@example([0, -1, 0, 1], 3)       # x^3 - x splits completely into distinct roots
@example([4, -4, 1], 7)          # (x - 2)^2, a repeated root
@example([1, 2, 1], 2)           # (x + 1)^2 over F_2
# complete splits, where one round splits several factors at once
@example([1, 1, 1, 1, 1], 11)    # Phi_5: 5 | p - 1, four roots
@example([1, 1, 1, 1, 1], 31)
@example([1, 1, 1, 1, 1], 41)
@example([-1, 0, 0, 0, 0, 0, 1], 7)    # x^6 - 1: 6 | p - 1, six roots
@example([-1, 0, 0, 0, 0, 0, 1], 13)
@example([720, -1764, 1624, -735, 175, -21, 1], 101)  # (x - 1)(x - 2)...(x - 6)
def test_roots_of_random_polynomials(coeffs, p):
    K = field.number_field(coeffs)
    f = poly_mod(K, p)
    roots = [x for x in range(p) if evaluate(f, x, p) == 0]
    assert modp.poly_roots(f, p) == roots
    assert field.root_mod_prime(K, p) == (roots[0] if roots else None)


# small primes, where common factors are frequent, and 30-bit ones as drawn
# by the filter
GCD_PRIMES = [2, 3, 5, 7, 13] + [p for p in range((1 << 30) - 200, 1 << 30) if field.is_prime(p)]


@st.composite
def gcd_cases(draw):
    """(a, b, p): two polynomials over F_p with a drawn common factor, a
    nonzero."""
    p = draw(st.sampled_from(GCD_PRIMES))
    coeffs = st.integers(0, p - 1)

    def poly(min_size):
        return modp.poly_trim(draw(st.lists(coeffs, min_size=min_size, max_size=5)))

    common, a, b = poly(1), poly(1), poly(0)
    assume(common and a)
    return modp.poly_mul(common, a, p), modp.poly_mul(common, b, p), p


@PROPERTY
@given(gcd_cases())
@example(([2, 2], [], 7))           # gcd(f, 0) is f made monic
@example(([3], [0, 1], 5))          # a unit: the gcd is 1
@example(([6, 5, 1], [2, 3, 1], 1073741789))  # (x+2)(x+3) and (x+1)(x+2)
def test_poly_gcd_is_monic_common_divisor(case):
    a, b, p = case
    g = modp.poly_gcd(a, b, p)
    assert g and g[-1] == 1
    assert all(0 <= c < p for c in g)
    cofactors = []
    for f in (a, b):
        q, r = modp.poly_divmod(f, g, p)
        assert r == []
        cofactors.append(q)
    assert modp.poly_gcd(*cofactors, p) == [1]


def test_root_mod_prime_rejects():
    with pytest.raises(BadPrime):
        field.root_mod_prime(Q, 10001)
    with pytest.raises(BadPrime):
        field.root_mod_prime(K6, 2)  # 5/2 in the sextic's minimal polynomial
    assert field.root_mod_prime(Q, 10007) == 0
    with pytest.raises(BadPrime):
        field.root_mod_prime(C5, 10001)  # 10001 = 73 * 137 is 1 mod 5 but not prime


ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def least_root_by_poly_roots(ambient, p):
    """root_mod_prime through modp.poly_roots, as for a non-cyclotomic f."""
    roots = modp.poly_roots(poly_mod(ambient, p), p)
    return roots[0] if roots else None


def stream_prime(seed, k):
    return next(islice(_prime_stream(seed), k, None))


@PROPERTY
@given(st.sampled_from(ODD_PRIMES), st.builds(stream_prime, st.integers(0, 10 ** 6),
                                               st.integers(0, 20)))
@example(3, 2)
@example(31, 2)
@example(5, 5)      # Phi_5 = (x - 1)^4 mod 5: the root 1, later rejected as not squarefree
@example(31, 31)
@example(5, 11)     # 11 = 1 mod 5
@example(31, 311)   # 311 = 1 mod 31
@example(5, 13)     # 13 = 3 mod 5
@example(7, 19)     # 19 = 5 mod 7
def test_cyclotomic_root_matches_poly_roots(ell, p):
    """For Q(zeta_ell) the least root of Phi_ell mod p, found from one
    primitive ell-th root of unity, is the least root poly_roots finds."""
    event("p = 1 mod ell" if p % ell == 1 else "p != 1 mod ell")
    K = field.cyclotomic_field(ell)
    assert field.root_mod_prime(K, p) == least_root_by_poly_roots(K, p)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ODD_PRIMES[:5]), st.integers(0, 10 ** 6))
@example(5, 0)
@example(7, 1)
def test_cyclotomic_orbit_draws_as_with_poly_roots(ell, seed):
    """The filter primes and the bad primes with their reasons do not
    depend on how the root of Phi_ell mod p is found."""
    K = field.cyclotomic_field(ell)
    zeta = K.gen()
    P = ProjPoint(K, [1, zeta, zeta - 3, 2])
    orbit = ModularOrbit(P, 2, _prime_stream(seed), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orbit_module, "root_mod_prime", least_root_by_poly_roots)
        reference = ModularOrbit(P, 2, _prime_stream(seed), 3)
    assert orbit.primes == reference.primes
    assert orbit.bad_primes == reference.bad_primes
    assert [orbit.row(p, 3) for p in orbit.primes] == \
        [reference.row(p, 3) for p in reference.primes]


@PROPERTY
@given(orbit_cases())
@example((ProjPoint.rational([1, 97, 2]), 6, [0, 5], [97, 10007]))   # 97 | x1; 96 | 6^5
@example((ProjPoint.rational([1, 2, 3]), 6, [1, 5, 0], [97]))        # 96 | 6^5
@example((ProjPoint(C5, [1, ZETA - 3, 2]), 10, [1, 2], [11, 31]))     # zeta - 3 = 0 at 3 mod 11; 10 | 10^m
@example((ProjPoint(C5, [1, ZETA, 2]), 10, [0, 1, 2], [11]))          # 10 | 10^m
@example((sextic_point(), 2, [0, 8], [2, 3, 257]))                     # 256 | 2^8
@example((sextic_point(), 10, [1, 2], [101]))                          # 100 | 10^2
def test_cached_rows_are_reduced_exact_iterates(case):
    P, d, ms, primes = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        orbit = None
    for p in primes:
        if orbit is None or p in orbit.bad_primes:
            event("unusable prime")
            continue
        event("usable prime")
        root = field.root_mod_prime(P.ambient, p)
        assert evaluate(poly_mod(P.ambient, p), root, p) == 0
        for m in ms:
            exact = [c ** d ** m for c in P.coords]
            assert orbit.row(p, m) == tuple(image(v, p, root) for v in exact)
            assert orbit.row(p, m) is orbit.row(p, m)  # computed once
    # a prime is usable exactly when f has a root mod p and every
    # coordinate reduces mod p; a coordinate may map to 0
    for p in primes:
        try:
            usable = field.root_mod_prime(P.ambient, p) is not None
            for c in P.coords:
                field.reduce_mod_prime(c, p)
        except BadPrime:
            usable = False
        assert usable == (orbit is not None and p in orbit.primes)


@PROPERTY
@given(orbit_cases(rank_cases=True))
@example((ProjPoint.rational([1, 2, -3]), 2, (0, 1, 2), 2, [3, 10007]))
@example((ProjPoint.rational([1, 97, 2]), 6, (0, 1, 5), 2, [97, 13]))
@example((ProjPoint(C5, [1, ZETA, ZETA ** 2]), 2, (0, 1, 4), 2, [11, 31]))
@example((ProjPoint(C5, [1, ZETA, 2, 3]), 2, (0, 4, 8, 12), 3, [11, 10061]))
@example((sextic_point(), 2, (0, 1, 2), 2, [31, 83, 101, 257]))
@example((sextic_point(), 2, (0, 3, 4), 2, [31, 83, 101, 257]))
def test_filter_never_certifies_rank_deficient(case):
    P, d, m, r, primes = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        return
    verdict = linalg.modular_rank_filter(orbit, m, r)
    exact = linalg.rank(iterate_matrix(P, d, m).rows())
    event(f"exact rank {'full' if exact == r + 1 else 'deficient'}, "
          f"{'certified' if verdict.certified else 'candidate'}")
    if verdict.certified:
        assert exact == r + 1
        assert verdict.diagnostics["ranks"][verdict.prime] == r + 1
    assert all(rank <= exact for rank in verdict.diagnostics["ranks"].values())


@st.composite
def filter_call_sequences(draw):
    """(point, d, r, primes, tuples): increasing (r+1)-tuples in random
    order, with repeats and tuples that share a prefix with another."""
    P, d, m, r, primes = draw(orbit_cases(rank_cases=True))
    cap = next(cap for specials, _, cap in FIELDS.values()
               if specials[0].ambient == P.ambient)
    top = max_index(d, cap)
    tuples = [m]
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.sampled_from(tuples))
        keep = draw(st.integers(0, r + 1))  # r + 1 repeats base
        free = range(base[keep - 1] + 1 if keep else 0, top + 1)
        if keep <= r and len(free) >= r + 1 - keep:
            rest = draw(st.lists(st.sampled_from(free), min_size=r + 1 - keep,
                                 max_size=r + 1 - keep, unique=True))
            base = base[:keep] + tuple(sorted(rest))
        tuples.append(base)
    return P, d, r, primes, draw(st.permutations(tuples))


@PROPERTY
@given(filter_call_sequences())
# iterates 0 and 4 agree mod every prime, so the prefix (0, 4) drops rank
@example((ProjPoint(C5, [1, ZETA, ZETA ** 2]), 2, 2, [11, 31],
          [(0, 4, 8), (0, 1, 2), (0, 4, 5), (0, 1, 4), (0, 4, 8), (0, 1, 2), (1, 5, 9)]))
@example((ProjPoint(C5, [1, ZETA, 2, 3]), 2, 3, [11, 10061],
          [(0, 4, 8, 9), (0, 1, 2, 3), (0, 4, 8, 9), (0, 4, 5, 6), (1, 2, 3, 4)]))
# p - 1 | d^m: every iterate m >= 1 maps to a row of ones and zeros
@example((ProjPoint(C5, [1, ZETA, 2]), 10, 2, [11], [(1, 2, 3), (0, 1, 2), (0, 1, 3), (1, 2, 3)]))
@example((ProjPoint.rational([1, 97, 2]), 6, 2, [97, 13], [(0, 1, 5), (0, 4, 5), (0, 1, 5), (1, 2, 5)]))
@example((sextic_point(), 2, 2, [2, 3, 257], [(0, 1, 8), (0, 2, 8), (0, 1, 8), (1, 2, 8)]))
@example((sextic_point(), 10, 1, [101], [(1, 2), (0, 1), (1, 2), (0, 2)]))
def test_filter_verdicts_do_not_depend_on_call_order(case):
    P, d, r, primes, tuples = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        return
    for m in tuples:
        verdict = linalg.modular_rank_filter(orbit, m, r)
        fresh = ModularOrbit(P, d, primes, len(primes))
        assert verdict == linalg.modular_rank_filter(fresh, m, r)
        event("certified" if verdict.certified else "candidate")
        if any(rank < len(m) - 1 for rank in verdict.diagnostics["ranks"].values()):
            event("a prefix drops rank mod p")


@pytest.mark.parametrize("P, r, reductions", [
    (sextic_point(), 2, 45),                  # 3 primes x 3 coordinates x (1 + two lines of rank 2)
    (ProjPoint(C5, [1, ZETA, 2, 3]), 3, 12),  # 3 primes x 4 coordinates, no subspace
])
def test_f_is_reduced_once_per_prime(monkeypatch, P, r, reductions):
    drawn, squarefree_checks, reduced = [], [], []
    root_mod_prime, reduce_mod_prime = orbit_module.root_mod_prime, orbit_module.reduce_mod_prime
    poly_deriv = modp.poly_deriv
    monkeypatch.setattr(orbit_module, "root_mod_prime",
                        lambda K, p: drawn.append(p) or root_mod_prime(K, p))
    monkeypatch.setattr(orbit_module, "reduce_mod_prime",
                        lambda v, p: reduced.append(p) or reduce_mod_prime(v, p))
    monkeypatch.setattr(modp, "poly_deriv",
                        lambda f, p: squarefree_checks.append(p) or poly_deriv(f, p))
    field._min_poly_mod.cache_clear()
    report = enumerate_exceptional(P, 2, r, 6)
    assert set(squarefree_checks) <= set(drawn)
    assert max(Counter(squarefree_checks).values()) == 1
    # reduce_mod_prime is called once per reduced value: each coordinate,
    # and each entry of each subspace's basis, once per usable prime
    primes = report.diagnostics["primes"]
    assert len(reduced) == reductions == len(primes) * len(P.coords) * (
        1 + sum(rec.subspace.rank for rec in report.subspaces))
    assert set(reduced) == set(primes)


def test_bad_prime_reasons():
    P = ProjPoint(C5, [1, ZETA - 3, 2])
    orbit = ModularOrbit(P, 2, [7, 5, 11, 31], 4)
    assert orbit.primes == [11, 31]
    reasons = orbit.bad_primes
    assert list(reasons) == [7, 5]
    assert "no root" in reasons[7]
    assert "squarefree" in reasons[5]
    # zeta - 3 maps to 0 at the root 3 mod 11: the prime stays usable and
    # its rows have a zero column, so it cannot certify
    assert orbit.image(11, ZETA) == 3
    assert orbit.row(11, 2) == (1, 0, 5)
    verdict = linalg.modular_rank_filter(orbit, (0, 1, 2), 2)
    assert verdict.diagnostics == {"ranks": {11: 2, 31: 3}}
    assert verdict.prime == 31
    with pytest.raises(AllPrimesBad):
        ModularOrbit(P, 2, [7, 5], 2)


def test_drawn_primes_skip_unusable():
    P = ProjPoint.rational([1, Fraction(1, 97), 2])
    orbit = ModularOrbit(P, 6, iter([97, 3, 101, 103]), count=2)
    assert orbit.primes == [3, 101]
    assert list(orbit.bad_primes) == [97]
    assert "97" in orbit.bad_primes[97]


def test_explicit_primes_without_root_are_bad():
    # Phi_5 has a root mod p only when p = 1 mod 5
    P = ProjPoint(C5, [1, ZETA])
    orbit = ModularOrbit(P, 2, [10007, 10061], 2)
    assert orbit.primes == [10061]
    assert "no root" in orbit.bad_primes[10007]
    with pytest.raises(AllPrimesBad):
        ModularOrbit(P, 2, [10007], 1)


def test_sextic_records_the_primes_it_passes_over():
    # f has a root mod only 3 of the first 16 primes of the default stream
    drawn = list(islice(_prime_stream(0), 16))
    orbit = ModularOrbit(sextic_point(), 2, _prime_stream(0), 3)
    assert len(orbit.primes) == 3
    assert len(orbit.bad_primes) == 13
    assert sorted(orbit.primes + list(orbit.bad_primes)) == sorted(drawn)
    assert all("no root" in reason for reason in orbit.bad_primes.values())


@PROPERTY
@given(st.sampled_from(sorted(FIELDS)).flatmap(lambda kind: st.tuples(
           st.sampled_from(FIELDS[kind][0]),
           st.lists(st.sampled_from(FIELDS[kind][1]), min_size=1, max_size=6, unique=True))),
       st.integers(1, 4))
@example((ZETA - 3, [7, 5, 11, 31]), 1)
@example((C5.from_rational(2), [5, 7, 41]), 3)
@example((Q.from_rational(Fraction(1, 2)), [2, 3, 5, 7, 11]), 2)
def test_orbit_primes_and_bad_primes_split_a_prefix(case, count):
    value, primes = case
    K = value.ambient
    try:
        orbit = ModularOrbit(ProjPoint(K, [K.one(), value]), 2, primes, count)
    except AllPrimesBad:
        event("no usable prime")
        return
    usable, bad = orbit.primes, list(orbit.bad_primes)
    event(f"{len(bad)} unusable primes")
    assert not set(usable) & set(bad)
    assert len(usable) <= count
    drawn = primes[:len(usable) + len(bad)]
    # each list keeps the draw order, and together they are the draws
    assert usable == [p for p in drawn if p in usable]
    assert bad == [p for p in drawn if p in orbit.bad_primes]
    assert sorted(usable + bad) == sorted(drawn)
    # draws stop at the count-th usable prime, or when the list runs out
    assert len(usable) == count or len(drawn) == len(primes)


def test_drawn_primes_are_capped():
    # f = x^2 is not squarefree mod any p, so no prime of an endless
    # stream is usable: the draws stop after DRAWS_PER_PRIME * count * deg f
    K = field.number_field([0, 0, 1])
    drawn = []

    def stream():
        p = 2
        while True:
            p += 1
            if field.is_prime(p):
                drawn.append(p)
                yield p

    with pytest.raises(AllPrimesBad, match="squarefree"):
        ModularOrbit(ProjPoint(K, [K.one(), K.gen() + 2]), 2, stream(), count=3)
    assert len(drawn) == ModularOrbit.DRAWS_PER_PRIME * 3 * 2
    # draws that run out with fewer than count usable primes keep those
    P = ProjPoint.rational([1, Fraction(1, 97), 2])
    orbit = ModularOrbit(P, 2, chain([101], repeat(97)), count=3)
    assert orbit.primes == [101]
