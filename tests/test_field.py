import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from superspan import field
from superspan.errors import (
    BadPrime,
    DivisionByZero,
    MixedAmbients,
    NonMonicPolynomial,
    NonPrimeCyclotomicOrder,
    Unsupported,
    ZeroDegree,
    ZeroToZeroPower,
)

Q = field.rational_field()
C5 = field.cyclotomic_field(5)

# monicized form of 2x^6+6x^5+5x^4+5x^2+6x+2
SEXTIC = [1, 3, Fraction(5, 2), 0, Fraction(5, 2), 3, 1]


def test_make_rational():
    f = field.rational_field()
    assert f.kind == "rational"
    assert f.degree == 1
    assert f.min_poly is None


def test_make_cyclotomic_5():
    f = field.cyclotomic_field(5)
    assert f.degree == 4
    assert f.min_poly == tuple(Fraction(1) for _ in range(5))
    assert f.cyclotomic_order == 5


def test_make_number_field_sextic():
    f = field.number_field(SEXTIC)
    assert f.degree == 6
    assert f.min_poly[-1] == 1


def test_monicize_sextic():
    raw = [2, 6, 5, 0, 5, 6, 2]
    assert field.monicize(raw) == [Fraction(c) for c in SEXTIC]


def test_make_field_errors():
    with pytest.raises(NonMonicPolynomial):
        field.number_field([2, 6, 5, 0, 5, 6, 2])
    with pytest.raises(ZeroDegree):
        field.number_field([5])
    with pytest.raises(NonPrimeCyclotomicOrder):
        field.cyclotomic_field(9)
    with pytest.raises(NonPrimeCyclotomicOrder):
        field.cyclotomic_field(2)


def test_field_degree_cap(monkeypatch):
    assert field.MAX_FIELD_DEGREE == 256
    assert field.cyclotomic_field(257).degree == 256
    assert field.number_field([1] * 256 + [1, 0, 0]).degree == 256  # trailing zeros trimmed
    # the cap is checked before the primality test and before any reduction row
    monkeypatch.setattr(field, "is_prime", lambda n: pytest.fail("primality tested"))
    monkeypatch.setattr(field, "_reduction_rows", lambda f: pytest.fail("rows built"))
    with pytest.raises(Unsupported, match="field degree 10006 exceeds the cap 256"):
        field.cyclotomic_field(10007)
    with pytest.raises(Unsupported, match="field degree 1000000006"):
        field.cyclotomic_field(10 ** 9 + 7)
    with pytest.raises(Unsupported, match="field degree 257"):
        field.number_field([1] * 258)


def test_rational_add():
    a = Q.from_rational(Fraction(1, 2))
    b = Q.from_rational(Fraction(1, 3))
    assert (a + b).as_rational() == Fraction(5, 6)


def test_zeta_times_zeta4_is_one():
    z = C5.gen()
    assert z * z ** 4 == C5.one()


def test_phi5_relation():
    z = C5.gen()
    total = C5.one() + z + z ** 2 + z ** 3 + z ** 4
    assert total.is_zero()


def test_pow_examples():
    two = Q.from_rational(2)
    assert (two ** (2 ** 2)).as_rational() == 16
    z = C5.gen()
    assert z ** (2 ** 3) == z ** 3  # 8 = 3 mod 5
    a = Q.from_rational(Fraction(-7, 3))
    assert a ** 0 == Q.one()


def test_zero_to_zero_power():
    with pytest.raises(ZeroToZeroPower):
        Q.zero() ** 0


def test_division():
    a = Q.from_rational(3)
    b = Q.from_rational(Fraction(1, 2))
    assert (a / b).as_rational() == 6
    with pytest.raises(DivisionByZero):
        a / Q.zero()
    z = C5.gen()
    assert (z / z) == C5.one()
    assert z.inverse() == z ** 4


def test_mixed_ambients():
    with pytest.raises(MixedAmbients):
        Q.one() + C5.one()


def test_canonical_degree():
    K = field.number_field(SEXTIC)
    x = K.gen()
    v = x ** 17 * (x + 3) ** 5
    assert len(v.coeffs) == 6


def test_noninvertible_zero_divisor():
    # x^2 - 1 is reducible; x - 1 is a zero divisor
    R = field.number_field([-1, 0, 1])
    v = R.gen() - R.one()
    with pytest.raises(field.NonInvertible):
        v.inverse()
    # x + 2 is a unit of the same ring: (x + 2)(x - 2) = x^2 - 4 = -3
    u = R.gen() + 2
    assert u.inverse() == R.element([Fraction(2, 3), Fraction(-1, 3)])
    assert u * u.inverse() == R.one()


@pytest.mark.parametrize("K", [Q, C5, field.number_field(SEXTIC)])
def test_field_axioms_random(K):
    rng = random.Random(7)

    def rand_elem():
        return field.FieldValue(
            K, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(K.degree)])

    for _ in range(25):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == K.one()


@pytest.mark.parametrize("K", [Q, C5])
def test_pow_additivity(K):
    rng = random.Random(11)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(1, 5)) for _ in range(K.degree)]
        a = field.FieldValue(K, coeffs)
        e1, e2 = rng.randint(0, 6), rng.randint(1, 6)
        assert a ** (e1 + e2) == a ** e1 * a ** e2


def test_mod_prime_rational():
    a = Q.from_rational(Fraction(3, 2))
    r = field.reduce_mod_prime(a, 7)
    assert r == field.ModularResidue(7, 5)  # 3 * inverse(2) = 3 * 4 = 12 = 5 mod 7


def test_mod_prime_cyclotomic():
    # the roots of Phi_5 mod 11 are 3, 4, 5 and 9: zeta maps to the least
    z = C5.gen()
    assert field.reduce_mod_prime(z, 11) == field.ModularResidue(11, 3)
    assert field.reduce_mod_prime(z ** 2 + 1, 11) == field.ModularResidue(11, 10)


def test_mod_prime_denominator_collision():
    a = Q.from_rational(Fraction(1, 7))
    with pytest.raises(BadPrime):
        field.reduce_mod_prime(a, 7)


def test_mod_prime_needs_a_root():
    # Phi_5 has a root mod p only when p = 1 mod 5, or p = 5
    with pytest.raises(BadPrime, match="no root"):
        field.reduce_mod_prime(C5.gen(), 10007)
    with pytest.raises(BadPrime, match="not prime"):
        field.reduce_mod_prime(Q.one(), 10001)


def test_residue_pow_tower():
    p = 10007
    a = field.reduce_mod_prime(Q.from_rational(3), p)
    # 3^(2^50) mod p computed directly via Fermat
    expected = pow(3, pow(2, 50, p - 1), p)
    assert a.pow_tower(2, 50).value == expected


def test_overlong_coefficients_reduce_mod_f():
    assert C5.element([0, 0, 0, 0, 0, 1]) == C5.one()
    # z^5 = 1, z^6 = z and z^4 = -1 - z - z^2 - z^3
    assert C5.element([1, 2, 3, 4, 5, 6, 7]) == C5.element([2, 4, -2, -1])
    K = field.number_field(SEXTIC)
    assert K.element([0] * 7 + [1]) == K.gen() ** 7
    assert K.element([Fraction(1, 2)] * 8) == sum(K.gen() ** k for k in range(8)) / 2


def test_too_many_rational_coefficients():
    with pytest.raises(ValueError, match="too many coefficients"):
        Q.element([1, 2])


@pytest.mark.parametrize("K", [Q, C5, field.number_field(SEXTIC)])
def test_negative_power_is_power_of_inverse(K):
    rng = random.Random(13)
    for _ in range(10):
        a = field.FieldValue(K, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                 for _ in range(K.degree)])
        if not a:
            continue
        k = rng.randint(1, 6)
        assert a ** -k == a.inverse() ** k
        assert a ** -k * a ** k == 1


@pytest.mark.parametrize("a", [Q.from_rational(3), C5.gen() + 1, C5.zero()])
def test_residue_negative_power_is_rejected(a):
    r = field.reduce_mod_prime(a, 11)
    with pytest.raises(ValueError, match="e >= 0"):
        r ** -1
    assert r ** 0 == field.reduce_mod_prime(a.ambient.one(), 11)


def test_is_prime():
    assert field.is_prime(2) and field.is_prime(10007)
    assert not field.is_prime(1) and not field.is_prime(10001)
    assert field.is_prime((1 << 31) - 1)


def test_is_prime_agrees_with_a_sieve():
    n = 2 * 10 ** 5
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n, q)))
    assert [k for k in range(n) if field.is_prime(k)] == [k for k in range(n) if sieve[k]]


@pytest.mark.parametrize("n", [
    3215031751,           # strong pseudoprime to 2, 3, 5 and 7
    4759123141,           # the least one to 2, 7 and 61, at the end of their range
    2152302898747,        # to the primes up to 11
    3474749660383,        # to the primes up to 13
    3825123056546413051,  # to the primes up to 23
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not field.is_prime(n)


@pytest.mark.parametrize("n", [2, 7, 61, (1 << 31) - 1, (1 << 61) - 1])
def test_is_prime_accepts_bases_and_mersenne_primes(n):
    # a base that is a multiple of n must not decide the verdict
    assert field.is_prime(n)


# ----------------------------------------------------------------------
# the integer kernel against the Fraction-polynomial reference
# ----------------------------------------------------------------------

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# x^3 - x/2 + 1/3: irreducible (6x^3 - 3x + 2 has no rational root), with
# denominators in its minimal polynomial
CUBIC = [Fraction(1, 3), Fraction(-1, 2), 0, 1]
KERNEL_FIELDS = [Q, C5, field.cyclotomic_field(7), field.number_field(SEXTIC),
                 field.number_field(CUBIC)]

rationals = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return field._ptrim(out)


def ref_mul(K, a, b):
    """a*b on Fraction coefficient tuples through _pmul and _pmod."""
    prod = _pmul(field._ptrim(list(a)), field._ptrim(list(b)))
    if K.min_poly is not None:
        prod = field._pmod(prod, list(K.min_poly))
    return tuple(prod) + (Fraction(0),) * (K.degree - len(prod))


def embed(K, q):
    return (Fraction(q),) + (Fraction(0),) * (K.degree - 1)


def assert_canonical(v, expected):
    assert len(v.num) == v.ambient.degree
    assert all(type(c) is int for c in v.num) and type(v.den) is int
    assert v.den > 0 and math.gcd(v.den, *v.num) == 1
    assert v.coeffs == expected
    assert all(type(c) is Fraction for c in v.coeffs)


@st.composite
def kernel_cases(draw):
    K = draw(st.sampled_from(KERNEL_FIELDS))
    a, b = (tuple(draw(st.lists(rationals, min_size=K.degree, max_size=K.degree)))
            for _ in range(2))
    q = draw(st.one_of(st.integers(-6, 6), rationals))
    return K, a, b, q


@PROPERTY
@given(kernel_cases(), st.integers(0, 5))
def test_kernel_matches_fraction_reference(case, e):
    K, ca, cb, q = case
    a, b = field.FieldValue(K, ca), field.FieldValue(K, cb)
    assert_canonical(a, ca)
    assert_canonical(a * b, ref_mul(K, ca, cb))
    assert_canonical(a + b, tuple(x + y for x, y in zip(ca, cb)))
    assert_canonical(a - b, tuple(x - y for x, y in zip(ca, cb)))
    assert_canonical(-a, tuple(-x for x in ca))
    # mixed int / Fraction operands, on either side
    cq = embed(K, q)
    assert_canonical(a * q, ref_mul(K, ca, cq))
    assert_canonical(q * a, ref_mul(K, ca, cq))
    assert_canonical(a + q, tuple(x + y for x, y in zip(ca, cq)))
    assert_canonical(q + a, tuple(x + y for x, y in zip(ca, cq)))
    assert_canonical(a - q, tuple(x - y for x, y in zip(ca, cq)))
    assert_canonical(q - a, tuple(y - x for x, y in zip(ca, cq)))
    if any(ca) or e:
        power = embed(K, 1)
        for _ in range(e):
            power = ref_mul(K, power, ca)
        assert_canonical(a ** e, power)
    if any(cb):
        inv = b.inverse()
        assert ref_mul(K, inv.coeffs, cb) == embed(K, 1)
        assert_canonical(inv, inv.coeffs)
        assert_canonical(a / b, ref_mul(K, ca, inv.coeffs))
        assert_canonical(q / b, ref_mul(K, cq, inv.coeffs))
    if q:
        assert_canonical(a / q, tuple(x / q for x in ca))


def ref_pow(K, a, e):
    """a**e on a Fraction coefficient tuple by square-and-multiply on ref_mul."""
    result = embed(K, 1)
    while e:
        if e & 1:
            result = ref_mul(K, result, a)
        e >>= 1
        if e:
            a = ref_mul(K, a, a)
    return result


MONOMIAL_FIELDS = [field.cyclotomic_field(ell) for ell in (3, 5, 7, 11)]


def monomial_coeffs(K, q, a):
    """The coefficients of q * zeta^a, 0 <= a < ell, in the basis 1, zeta,
    ..., zeta^(ell-2): zeta^(ell-1) is -(1 + zeta + ... + zeta^(ell-2))."""
    n = K.degree
    if a == n:
        return (-q,) * n
    return tuple(q if i == a else Fraction(0) for i in range(n))


@st.composite
def monomial_powers(draw):
    """q * zeta^a with q negative or with a denominator allowed, and e
    from 1..3 ell (multiples of ell among them), 2^11 or 3^9."""
    K = draw(st.sampled_from(MONOMIAL_FIELDS))
    ell = K.cyclotomic_order
    a = draw(st.integers(0, ell - 1))
    q = draw(st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)))
    e = draw(st.one_of(st.integers(1, 3 * ell), st.sampled_from([2 ** 11, 3 ** 9])))
    return K, q, a, e


@PROPERTY
@given(monomial_powers())
@example((MONOMIAL_FIELDS[3], Fraction(-3, 2), 10, 3 ** 9))
@example((MONOMIAL_FIELDS[0], Fraction(-1), 2, 3))
@example((MONOMIAL_FIELDS[2], Fraction(2, 3), 6, 2 ** 11))
def test_monomial_powers_match_square_and_multiply(case):
    K, q, a, e = case
    coeffs = monomial_coeffs(K, q, a)
    v = field.FieldValue(K, coeffs)
    c, b = field.cyclotomic_monomial(v)
    assert (Fraction(c, v.den), b) == (q, a)
    assert_canonical(v ** e, ref_pow(K, coeffs, e))
    assert field.cyclotomic_monomial(v ** e) == (c ** e, a * e % K.cyclotomic_order)


@pytest.mark.parametrize("K", MONOMIAL_FIELDS)
def test_non_monomial_powers_match_square_and_multiply(K):
    a = (Fraction(1), Fraction(2)) + (Fraction(0),) * (K.degree - 2)  # 1 + 2 zeta
    v = field.FieldValue(K, a)
    assert field.cyclotomic_monomial(v) is None
    for e in (1, 2, 3, K.cyclotomic_order, 2 ** 6 + 1):
        assert_canonical(v ** e, ref_pow(K, a, e))


def test_monomials_only_in_cyclotomic_fields():
    assert field.cyclotomic_monomial(Q.from_rational(2)) is None
    K = field.number_field(SEXTIC)
    assert field.cyclotomic_monomial(K.gen()) is None
    assert field.cyclotomic_monomial(C5.zero()) is None
    assert field.cyclotomic_monomial(C5.from_rational(Fraction(-2, 3))) == (-2, 0)


# ring -> the rational roots of f.  Each f is irreducible or a product of
# linear factors, so a is a zero divisor exactly when it vanishes at one
# of these roots.
INVERSE_RINGS = [
    (field.cyclotomic_field(11), []),
    (field.number_field(SEXTIC), []),
    (field.number_field(CUBIC), []),
    (field.number_field([1, 0, 0, 0, 1]), []),           # x^4 + 1
    (field.number_field([0, 0, 1]), [Fraction(0)]),        # x^2
    (field.number_field([1, -2, 1]), [Fraction(1)]),       # (x - 1)^2
    (field.number_field([-1, 0, 1]), [Fraction(1), Fraction(-1)]),
    (field.number_field([2, -3, 1]), [Fraction(1), Fraction(2)]),
]

small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def inverse_cases(draw):
    """(K, roots, a): a nonzero coefficient tuple, small, scaled by an
    integer content up to 2^4000, c * x^k with a large c, or a multiple
    of x - r for a rational root r of f."""
    K, roots = draw(st.sampled_from(INVERSE_RINGS))
    n = K.degree
    kind = draw(st.sampled_from(["small", "content", "monomial"] + ["multiple"] * bool(roots)))
    if kind == "multiple":
        r = draw(st.sampled_from(roots))
        h = draw(st.lists(small_rationals, min_size=n, max_size=n))
        a = ref_mul(K, (-r, Fraction(1)) + (Fraction(0),) * (n - 2), h)
        assume(any(a))
        return K, roots, a
    if kind == "monomial":
        a = [Fraction(0)] * n
        a[draw(st.integers(0, n - 1))] = Fraction(
            draw(st.integers(-3 ** 1024, 3 ** 1024).filter(bool)), draw(st.integers(1, 12)))
        return K, roots, tuple(a)
    a = draw(st.lists(st.one_of(small_rationals, rationals), min_size=n, max_size=n)
             .filter(any))
    if kind == "content":
        c = draw(st.integers(1, 2 ** 4000))
        a = [c * v for v in a]
    return K, roots, tuple(a)


@PROPERTY
@given(inverse_cases())
@example((field.cyclotomic_field(11), [], (Fraction(3 ** 1024),) + (Fraction(0),) * 9))
@example((field.number_field([-1, 0, 1]), [Fraction(1), Fraction(-1)],
          (Fraction(2), Fraction(1))))
def test_inverse_solves_a_y_equals_one(case):
    K, roots, ca = case
    assert all(sum(c * r ** i for i, c in enumerate(K.min_poly)) == 0 for r in roots)
    a = field.FieldValue(K, ca)
    if any(sum(c * r ** i for i, c in enumerate(ca)) == 0 for r in roots):
        with pytest.raises(field.NonInvertible,
                           match=r"^element is a zero divisor \(reducible minimal polynomial\)$"):
            a.inverse()
        return
    inv = a.inverse()
    assert ref_mul(K, inv.coeffs, ca) == embed(K, 1)
    assert_canonical(inv, inv.coeffs)


@PROPERTY
@given(kernel_cases())
def test_equal_values_hash_alike(case):
    K, ca, cb, q = case
    a, b = field.FieldValue(K, ca), field.FieldValue(K, cb)
    assert (a == b) == (ca == cb)
    # one value reached along different paths
    for x, y in [(a * b, b * a), ((a + b) - b, a), (a * b + a, a * (b + 1)),
                 (field.FieldValue(K, (a * b).coeffs), a * b)]:
        assert x == y and hash(x) == hash(y)
    # a rational value is interchangeable with the int or Fraction it
    # equals, in sets and dicts, whatever the field
    v, r = field.FieldValue(K, embed(K, q)), Fraction(q)
    for x in [r] + ([r.numerator] if r.denominator == 1 else []):
        assert v == x and hash(v) == hash(x)
        assert x in {v} and v in {x} and {v: 1}[x] == {x: 1}[v] == 1
        assert (a in {x}) == (a == x) == (a in {x: 1}) == (x in {a})


# ----------------------------------------------------------------------
# reduction mod p: a ring homomorphism K -> F_p
# ----------------------------------------------------------------------

SQUARE = field.number_field([0, 0, 1])  # x^2: the root 0 is double mod every p

# field -> primes at which f has a root.  Those where f mod p is not
# squarefree are 5 for Q(zeta_5), 7 and 13 for the sextic (its
# discriminant is -7^4 * 13^3 / 2^4) and every prime for x^2.
REDUCTION_PRIMES = [
    (Q, [2, 3, 5, 7, 10007]),
    (C5, [5, 11, 31, 10061]),
    (field.number_field(SEXTIC), [7, 13, 31, 83]),
    (SQUARE, [2, 3, 7, 10007]),
]


@st.composite
def reduction_cases(draw):
    """(a, b, p): two values with denominators prime to p, and p a prime
    at which f has a root."""
    K, primes = draw(st.sampled_from(REDUCTION_PRIMES))
    p = draw(st.sampled_from(primes))
    dens = st.integers(1, 12).filter(lambda q: q % p)
    a, b = (field.FieldValue(K, [Fraction(draw(st.integers(-30, 30)), draw(dens))
                                 for _ in range(K.degree)]) for _ in range(2))
    return a, b, p


@PROPERTY
@given(reduction_cases(), st.integers(0, 12), st.sampled_from([1, 2, 3]), st.integers(0, 3))
@example((C5.gen(), C5.gen() + 2, 5), 4, 2, 2)          # Phi_5 = (x - 1)^4 mod 5
@example((SQUARE.gen(), SQUARE.gen() + 3, 7), 2, 2, 1)  # x^2 = 0 in K, and 0^2 = 0 mod 7
def test_reduction_is_a_ring_homomorphism(case, e, d, m):
    a, b, p = case
    ra, rb = field.reduce_mod_prime(a, p), field.reduce_mod_prime(b, p)
    assert 0 <= ra.value < p and ra.prime == p
    assert field.reduce_mod_prime(a + b, p) == ra + rb
    assert field.reduce_mod_prime(a * b, p) == ra * rb
    if a or e:
        assert field.reduce_mod_prime(a ** e, p) == ra ** e
    assert field.reduce_mod_prime(a ** d ** m, p) == ra.pow_tower(d, m)
