"""The modular kernel: roots of f mod p, the residue rows of ModularOrbit,
and the soundness of the rank filter, over Q, Q(zeta_5) and the sextic."""

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, islice, repeat
from math import log

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from superspan import field, linalg, modp, orbit as orbit_module
from superspan.constructions import sextic_field, sextic_point
from superspan.detect import _prime_stream, enumerate_exceptional, intersection_count
from superspan.errors import AllPrimesBad, BadPrime
from superspan.orbit import ExactOrbit, ModularOrbit, ProjPoint, iterate_matrix

Q = field.rational_field()
C5 = field.cyclotomic_field(5)
K6 = sextic_field()
ZETA = C5.gen()
ALPHA = K6.gen()

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# field -> (small nonzero values that make structured points, filter primes
# to draw from, cap on d^m so exact iterates stay cheap).  The primes mix
# usable ones with ones that have no root of f (7 for Q(zeta_5), 3 for the
# sextic) or collide with a denominator (2 for the sextic).  Some usable
# ones make f mod p non-squarefree: 5 for Q(zeta_5), 7 for the sextic.
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
    """value in F_p: its coefficients mod p evaluated at the root."""
    return evaluate(value.num, root, p) * pow(value.den, -1, p) % p


def echelon(orbit, p, m):
    """The echelon basis mod p of the rows of the iterates m."""
    return linalg.echelon_mod_p([orbit.row(p, i) for i in m], p)


def certifying_prime(orbit, m):
    """The first filter prime at which the rows of m have full rank."""
    return next((p for p in orbit.primes if len(echelon(orbit, p, m)) == len(m)), None)


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


def remainder(a, f, p):
    return modp.poly_divmod(a, f, p)[1]


def reference_powmod(a, e, f, p):
    """a^e modulo a monic f, right to left by square-and-multiply with
    schoolbook products and long division."""
    result, base = [1], remainder(a, f, p)
    while e:
        if e & 1:
            result = remainder(modp.poly_mul(result, base, p), f, p)
        e >>= 1
        if e:
            base = remainder(modp.poly_mul(base, base, p), f, p)
    return remainder(result, f, p)


def power_by_multiplication(delta, e, f, p):
    """(x + delta)^e modulo a monic f, one product at a time."""
    result = remainder([1], f, p)
    for _ in range(e):
        result = remainder(modp.poly_mul(result, [delta % p, 1], p), f, p)
    return result


def reference_roots(f, p):
    """The distinct roots of f in F_p: gcd(x^p - x, f) split by
    Cantor-Zassenhaus, with reference_powmod for every power."""
    g = modp.poly_gcd(f, modp.poly_sub(reference_powmod([0, 1], p, f, p), [0, 1], p), p)
    roots, pending, delta = [], [g], 0
    while True:
        roots += [-h[0] % p for h in pending if len(h) == 2]
        pending = [h for h in pending if len(h) > 2]
        if not pending:
            return sorted(roots)
        if p == 2:
            return sorted(roots + [0, 1])  # the pending factor is x^2 + x
        split = []
        for h in pending:
            s = reference_powmod([delta, 1], (p - 1) // 2, h, p)
            k = modp.poly_gcd(h, modp.poly_sub(s, [1], p), p)
            split += [k, modp.poly_divmod(h, k, p)[0]] if 1 < len(k) < len(h) else [h]
        pending = split
        delta += 1


P30 = GCD_PRIMES[-1]  # 2^30 - 35, the largest 30-bit prime
P61 = (1 << 61) - 1   # a Mersenne prime: residues take two 64-bit words per slot


@st.composite
def power_cases(draw):
    """(f, p, delta, e): a monic f of degree 1 to 8 and delta in [0, 3p),
    with e either small or 30 bits long."""
    p = draw(st.sampled_from(GCD_PRIMES + [P61]))
    f = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)) + [1]
    delta = draw(st.integers(0, 3 * p - 1))
    e = draw(st.one_of(st.integers(0, 199), st.integers(1 << 29, 1 << 30)))
    return f, p, delta, e


@PROPERTY
@given(power_cases())
@example(([3, 1], 7, 2, 0))              # e = 0
@example(([3, 1], 7, 2, 1))              # e = 1: x + 2 = -1 mod x + 3
@example(([5, 1], 7, 5, 150))            # a zero base: x + 5 = 0 mod x + 5
@example(([5, 1], 7, 5, 0))              # 0^0 = 1
@example(([1, 2, 3, 1], 13, 13 + 4, 100))  # delta >= p
@example(([1, 0, 1], 2, 1, 1 << 29))
@example(([P61 - 1] * 8 + [1], P61, P61 - 1, (P61 - 1) // 2))
def test_linear_power_matches_reference(case):
    f, p, delta, e = case
    expected = power_by_multiplication(delta, e, f, p) if e < 200 else \
        reference_powmod([delta, 1], e, f, p)
    assert modp._linear_power(delta, e, f, p) == expected


@pytest.mark.parametrize("p, n", [(3, 1), (5, 4), (P30, 7), (P30, 8), (P61, 6)])
@pytest.mark.parametrize("times_x", [False, True])
def test_square_of_the_largest_residue_does_not_carry(p, n, times_x):
    """Every coefficient p - 1, in f and in the residue, puts the most
    into each slot of the square and of its reduction; n = 7 is the
    largest degree whose slots at 30-bit primes are one 64-bit word."""
    f, a = [p - 1] * n + [1], [p - 1] * n
    expected = modp.poly_mul(a, a, p)
    if times_x:
        expected = [0] + expected
    assert modp.poly_trim(modp._Modulus(f, p).square(a, times_x)) == remainder(expected, f, p)


@st.composite
def split_cases(draw):
    """(p, q, roots): roots in F_p, some of them repeated, and either no
    q or a quadratic q with no root mod p, x^2 - n for a non-residue n
    (x^2 + x + 1 for p = 2).  The product has degree 1 to 8."""
    p = draw(st.sampled_from([2, 3, 5] + GCD_PRIMES[5:]))
    q = None
    if draw(st.booleans()):
        if p == 2:
            q = [1, 1, 1]
        else:
            n = draw(st.integers(1, p - 1))
            assume(pow(n, (p - 1) // 2, p) == p - 1)  # Euler's criterion
            q = [-n % p, 0, 1]
    distinct = draw(st.lists(st.integers(0, p - 1), min_size=0 if q else 1, max_size=6))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=6 - len(distinct))) \
        if distinct else []
    return p, q, draw(st.permutations(distinct + repeats))


@PROPERTY
@given(split_cases())
@example((2, [1, 1, 1], [0, 0]))         # (p - 1)/2 = 0
@example((2, None, [1, 0, 1]))
@example((3, [1, 0, 1], [2, 2, 0]))      # (p - 1)/2 = 1; -1 is a non-residue mod 3
@example((P30, None, [12345]))           # deg f = 1
@example((P30, None, [1, 2, 3, 4, 5, 6]))  # a sextic that splits completely
@example((P30, None, [P30 - 1, 7, 1 << 29, 0, 99, 123456789]))
@example((P61, [1, 0, 1], [5, 5, 1 << 60]))  # -1 is a non-residue mod 2^61 - 1
def test_roots_of_products_of_linear_factors(case):
    p, q, roots = case
    f = q or [1]
    for r in roots:
        f = modp.poly_mul(f, [-r % p, 1], p)
    event(f"p = {p}" if p < 10 else "30-bit p")
    assert modp.poly_roots(f, p) == sorted(set(roots))


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
@example(5, 5)      # Phi_5 = (x - 1)^4 mod 5: the root 1, a usable one
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
        mp.setattr(field, "root_mod_prime", least_root_by_poly_roots)
        reference = ModularOrbit(P, 2, _prime_stream(seed), 3)
    assert orbit.primes == reference.primes
    assert orbit.bad_primes == reference.bad_primes
    assert [orbit.row(p, 3) for p in orbit.primes] == \
        [reference.row(p, 3) for p in reference.primes]


def least_root_by_reference(ambient, p):
    """root_mod_prime through reference_roots, for the 30-bit stream
    primes, at which f's denominators are units."""
    roots = reference_roots(poly_mod(ambient, p), p)
    return roots[0] if roots else None


NUMBER_FIELD_POINTS = {
    "sextic": sextic_point(),
    # 3x^6 + 9x^5 + 23x^4 + 31x^3 + 23x^2 + 9x + 3, made monic
    "palindromic sextic": ProjPoint(
        field.number_field([1, 3, Fraction(23, 3), Fraction(31, 3), Fraction(23, 3), 3, 1]),
        [[0, 1], [-1, -1], 1]),
    "cube root of 2": ProjPoint(field.number_field([-2, 0, 0, 1]), [[0, 1], [-3, 1], 2, 1]),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(NUMBER_FIELD_POINTS))
def test_number_field_orbit_draws_as_with_reference_roots(name, seed):
    """The filter primes, the bad primes with their reasons and the rows
    of a number-field orbit do not depend on how f mod p is split."""
    P = NUMBER_FIELD_POINTS[name]
    orbit = ModularOrbit(P, 2, _prime_stream(seed), 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "root_mod_prime", least_root_by_reference)
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
    certified = m not in linalg.modular_rank_filter(orbit, m[:-2], m[-1])
    exact = linalg.rank(iterate_matrix(P, d, m).rows())
    event(f"exact rank {'full' if exact == r + 1 else 'deficient'}, "
          f"{'certified' if certified else 'candidate'}")
    if certified:
        assert exact == r + 1
    # certified exactly when some prime has rank r + 1
    assert certified == (certifying_prime(orbit, m) is not None)
    assert all(len(echelon(orbit, p, m)) <= exact for p in orbit.primes)


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
        uncertified = linalg.modular_rank_filter(orbit, m[:-2], m[-1])
        fresh = ModularOrbit(P, d, primes, len(primes))
        assert uncertified == linalg.modular_rank_filter(fresh, m[:-2], m[-1])
        assert orbit.primes == fresh.primes
        assert all(orbit.row(p, i) == fresh.row(p, i) for p in orbit.primes for i in m)
        event("candidate" if m in uncertified else "certified")
        if any(len(echelon(orbit, p, m[:-1])) < len(m) - 1 for p in orbit.primes):
            event("a prefix drops rank mod p")


def reference_filter(orbit, prefix, max_iter):
    """The tuples prefix + (c, l) that no filter prime certifies, one
    rank computation per tuple and prime, in lexicographic order."""
    start = prefix[-1] + 1 if prefix else 0
    tuples = (prefix + pair for pair in combinations(range(start, max_iter + 1), 2))
    return [m for m in tuples
            if not any(len(echelon(orbit, p, m)) == len(m) for p in orbit.primes)]


@st.composite
def prefix_cases(draw):
    """(point, d, (r-1)-prefix, max_iter, primes); rows mod p are cheap,
    so max_iter may pass the cap on exact iterates."""
    P, d, m, r, primes = draw(orbit_cases(rank_cases=True))
    return P, d, m[:-2], m[-1] + draw(st.integers(0, 8)), primes


@PROPERTY
@given(prefix_cases())
@example((ProjPoint.rational([1, 2, -3]), 2, (), 8, [3, 10007]))       # r = 1
@example((ProjPoint(C5, [1, ZETA, ZETA ** 2]), 2, (0,), 9, [11, 31]))  # row 4 reduces to zero
# the prefix drops rank at 31, where 2^16 = 2, and not at 11
@example((ProjPoint(C5, [1, ZETA, ZETA ** 2, 2]), 2, (0, 4), 10, [11, 31]))
@example((ProjPoint(C5, [1, ZETA, ZETA ** 2, 2]), 2, (0, 4), 10, [31]))
@example((ProjPoint(C5, [1, ZETA - 3, 2]), 2, (0,), 8, [11]))          # a zero column
@example((ProjPoint(C5, [1, ZETA, 2]), 10, (1,), 7, [11]))             # p - 1 | d^m
@example((sextic_point(), 2, (0,), 10, [7, 13]))
@example((sextic_point(), 2, (2,), 12, [7, 13]))
def test_filter_matches_per_tuple_reference(case):
    P, d, prefix, max_iter, primes = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        return
    expected = reference_filter(orbit, prefix, max_iter)
    assert linalg.modular_rank_filter(orbit, prefix, max_iter) == expected
    if any(len(echelon(orbit, p, prefix)) < len(prefix) for p in orbit.primes):
        event("the prefix drops rank mod p")
    event("every tuple certified" if not expected else "some tuple uncertified")


@st.composite
def filter_path_cases(draw):
    """(point, d, primes, calls): (prefix, max_iter) filter calls on one
    orbit.  Each call after the first keeps the start of an earlier
    prefix (the prefix again, its parent, a sibling or a child) and draws
    the rest and max_iter, which rises and falls."""
    P, d, prefix, max_iter, primes = draw(prefix_cases())
    calls = [(prefix, max_iter)]
    for _ in range(draw(st.integers(1, 8))):
        base = draw(st.sampled_from(calls))[0]
        keep = draw(st.integers(0, len(base)))
        start = base[keep - 1] + 1 if keep else 0
        rest = draw(st.lists(st.integers(start, start + 8), max_size=P.dim - 1 - keep,
                             unique=True))
        new = base[:keep] + tuple(sorted(rest))
        calls.append((new, (new[-1] if new else 0) + draw(st.integers(-1, 8))))
    return P, d, primes, calls


P4 = ProjPoint(C5, [1, ZETA, ZETA ** 2, 2])


@PROPERTY
@given(filter_path_cases())
# (0, 4) drops rank at 31, where 2^16 = 2, and not at 11: first or later
@example((P4, 2, [31, 11], [((0, 4), 10), ((0, 3), 10), ((0, 4), 8), ((0, 5), 12),
                            ((0,), 12), ((0, 4), 12), ((1, 4), 12), ((0, 4), 10)]))
@example((P4, 2, [11, 31], [((0, 4), 10), ((0, 3), 10), ((0, 4), 8), ((0, 5), 12),
                            ((0,), 12), ((0, 4), 12), ((1, 4), 12), ((0, 4), 10)]))
@example((ProjPoint.rational([1, 2, -3]), 2, [3, 10007],
          [((0,), 9), ((1,), 9), ((), 9), ((1,), 6), ((1,), 11), ((0,), 6)]))
def test_filter_residuals_shared_along_prefix_paths_match_reference(case):
    P, d, primes, calls = case
    try:
        orbit = ModularOrbit(P, d, primes, len(primes))
    except AllPrimesBad:
        return
    for prefix, max_iter in calls:
        assert linalg.modular_rank_filter(orbit, prefix, max_iter) == \
            reference_filter(orbit, prefix, max_iter), (prefix, max_iter)
    if any(len(echelon(orbit, orbit.primes[0], prefix)) < len(prefix) for prefix, _ in calls):
        event("a prefix drops rank at the first prime")


@pytest.mark.parametrize("coords, r, M", [([1, 2, -3], 2, 60), ([1, 2, 3, 6], 3, 24)])
def test_filter_shares_residuals_across_prefixes(monkeypatch, coords, r, M):
    """The filter reads each row at most once per prime: the first
    prime's residuals are shared along the prefix path, and a later prime
    reads only the rows still in a pair.  Reducing each index against
    every prefix would read about C(M+1, r) rows.  [1, 2, -3] has one
    line, whose intersection count reads the first prime's rows again;
    [1, 2, 3, 6] has no subspace, so every read is the filter's."""
    calls = []
    row = ModularOrbit.row
    monkeypatch.setattr(ModularOrbit, "row", lambda self, p, m: calls.append(m) or row(self, p, m))
    report = enumerate_exceptional(ProjPoint.rational(coords), 2, r, M)
    assert 0 < len(calls) <= (M + 1) * len(report.diagnostics["primes"])


@pytest.mark.parametrize("prefix", [(3, 1), (2, 2), (-1,)])
def test_filter_rejects_a_prefix_that_is_not_increasing(prefix):
    orbit = ModularOrbit(ProjPoint.rational([1, 2, 3, 6]), 2, [10007], 1)
    with pytest.raises(ValueError, match="not increasing"):
        linalg.modular_rank_filter(orbit, prefix, 9)


@pytest.mark.parametrize("P, M, filtered, exact_checked, confirmed, counts", [
    (ProjPoint.rational([1, -1, 2]), 14, 91, 364, 364, [14]),
    (ProjPoint(C5, [1, -1, ZETA]), 7, 18, 38, 20, [7]),
    (ProjPoint(C5, [1, ZETA, 2]), 18, 935, 34, 34, [5, 5, 5, 4]),
    (ProjPoint.rational([1, 2, -3]), 200, 1333299, 1, 1, [3]),
], ids=["1,-1,2", "1,-1,z5", "1,z5,2", "1,2,-3"])
def test_filter_verdicts_on_runs_with_many_survivors(P, M, filtered, exact_checked,
                                                     confirmed, counts):
    # values of the per-prefix filter, which reduced each index against
    # every prefix row, at the default seed and r = 2
    report = enumerate_exceptional(P, 2, 2, M)
    assert (report.diagnostics["filtered"], report.diagnostics["exact_checked"],
            report.diagnostics["confirmed"]) == (filtered, exact_checked, confirmed)
    assert [rec.intersection_count for rec in report.subspaces] == counts


SQUARE = field.number_field([0, 0, 1])          # x^2
SHIFTED_SQUARE = field.number_field([1, -2, 1])  # (x - 1)^2


@pytest.mark.parametrize("P, primes", [
    (ProjPoint(C5, [1, ZETA, -1]), [5]),  # iterates 1 and 5 coincide
    (ProjPoint(C5, [1, ZETA, ZETA ** 2, 2]), [5]),
    (ProjPoint(SQUARE, [1, -1, SQUARE.gen() + 2, 3]), [3, 5, 7]),
    (ProjPoint(SHIFTED_SQUARE, [1, -1, SHIFTED_SQUARE.gen() + 2]), [3, 5, 7]),
], ids=["z5,-1 at 5", "z5,z5^2,2 at 5", "x^2", "(x-1)^2"])
def test_filter_is_sound_where_f_is_not_squarefree(P, primes):
    """A root of a non-squarefree f mod p still gives a ring homomorphism:
    every tuple certified there has full exact rank, and counts read
    through those primes match the exact counts, for every subspace
    spanned by iterates."""
    orbit = ModularOrbit(P, 2, primes, len(primes))
    assert orbit.primes == primes
    exact, M = ExactOrbit(P, 2), 6
    certified = 0
    for r in range(1, P.dim):
        for m in combinations(range(M + 1), r + 1):
            full = linalg.rank(exact.rows(m)) == r + 1
            if m not in linalg.modular_rank_filter(orbit, m[:-2], m[-1]):
                certified += 1
                assert full
            if full:
                L = linalg.span_canonical(exact.rows(m))
                assert intersection_count(P, 2, L, M, orbit=orbit, exact=exact) == \
                    intersection_count(P, 2, L, M, exact=exact)
    assert certified


@pytest.mark.parametrize("P, r, reductions", [
    (sextic_point(), 2, 45),                  # 3 primes x 3 coordinates x (1 + two lines of rank 2)
    (ProjPoint(C5, [1, ZETA, 2, 3]), 3, 12),  # 3 primes x 4 coordinates, no subspace
])
def test_f_is_reduced_once_per_prime(monkeypatch, P, r, reductions):
    checked, reduced = [], []
    is_prime, reduce_mod_prime = field.is_prime, orbit_module.reduce_mod_prime

    def counting_reduce(v, p):
        residue = reduce_mod_prime(v, p)
        reduced.append(p)
        return residue

    # root_mod_prime tests p for primality once each time it computes a root
    monkeypatch.setattr(field, "is_prime", lambda n: checked.append(n) or is_prime(n))
    monkeypatch.setattr(orbit_module, "reduce_mod_prime", counting_reduce)
    field.root_mod_prime.cache_clear()
    report = enumerate_exceptional(P, 2, r, 6)
    # its cache finds the root of f once per prime drawn, usable or not
    primes = report.diagnostics["primes"]
    assert set(primes) <= set(checked)
    assert max(Counter(checked).values()) == 1
    # a value is reduced once: each coordinate, and each entry of each
    # subspace's basis, once per usable prime
    assert len(reduced) == reductions == len(primes) * len(P.coords) * (
        1 + sum(rec.subspace.rank for rec in report.subspaces))
    assert set(reduced) == set(primes)


def test_bad_prime_reasons():
    P = ProjPoint(C5, [1, ZETA - 3, 2])
    orbit = ModularOrbit(P, 2, [7, 5, 11, 31], 4)
    assert orbit.primes == [5, 11, 31]
    assert list(orbit.bad_primes) == [7]
    assert "no root" in orbit.bad_primes[7]
    # Phi_5 = (x - 1)^4 mod 5 is not squarefree, and its root 1 serves
    assert orbit.image(5, ZETA) == 1
    # zeta - 3 maps to 0 at the root 3 mod 11: the prime stays usable and
    # its rows have a zero column, so it cannot certify
    assert orbit.image(11, ZETA) == 3
    assert orbit.row(11, 2) == (1, 0, 5)
    orbit = ModularOrbit(P, 2, [11, 31], 2)
    assert (0, 1, 2) not in linalg.modular_rank_filter(orbit, (0,), 2)
    assert {p: len(echelon(orbit, p, (0, 1, 2))) for p in orbit.primes} == {11: 2, 31: 3}
    assert certifying_prime(orbit, (0, 1, 2)) == 31
    with pytest.raises(AllPrimesBad, match="no root"):
        ModularOrbit(P, 2, [7, 2], 2)


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
    # x^2 + 1 has no root mod a prime p = 3 mod 4, so no prime of an endless
    # stream of them is usable: the draws stop after
    # DRAWS_PER_PRIME * count * deg f
    K = field.number_field([1, 0, 1])
    drawn = []

    def stream():
        p = 3
        while True:
            if field.is_prime(p):
                drawn.append(p)
                yield p
            p += 4

    with pytest.raises(AllPrimesBad, match="no root"):
        ModularOrbit(ProjPoint(K, [K.one(), K.gen() + 2]), 2, stream(), count=3)
    assert len(drawn) == ModularOrbit.DRAWS_PER_PRIME * 3 * 2
    # draws that run out with fewer than count usable primes keep those
    P = ProjPoint.rational([1, Fraction(1, 97), 2])
    orbit = ModularOrbit(P, 2, chain([101], repeat(97)), count=3)
    assert orbit.primes == [101]
