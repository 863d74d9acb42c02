import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superspan import field
from superspan.errors import (
    BadPrime,
    DivisionByZero,
    MixedAmbients,
    NonMonicPolynomial,
    NonPrimeCyclotomicOrder,
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
    assert r.coeffs == (5,)  # 3 * inverse(2) = 3 * 4 = 12 = 5 mod 7
    assert r.modulus is None


def test_mod_prime_cyclotomic():
    z = C5.gen()
    r = field.reduce_mod_prime(z, 11)
    assert r.coeffs == (0, 1, 0, 0)
    assert r.modulus == (1, 1, 1, 1, 1)


def test_mod_prime_denominator_collision():
    a = Q.from_rational(Fraction(1, 7))
    with pytest.raises(BadPrime):
        field.reduce_mod_prime(a, 7)


def test_mod_prime_homomorphism():
    rng = random.Random(3)
    for K in (Q, C5):
        for _ in range(20):
            a = field.FieldValue(K, [Fraction(rng.randint(-9, 9)) for _ in range(K.degree)])
            b = field.FieldValue(K, [Fraction(rng.randint(-9, 9)) for _ in range(K.degree)])
            p = 10007
            ra, rb = field.reduce_mod_prime(a, p), field.reduce_mod_prime(b, p)
            assert field.reduce_mod_prime(a * b, p) == ra * rb
            assert field.reduce_mod_prime(a + b, p) == ra + rb


def test_residue_pow_matches_exact():
    rng = random.Random(5)
    p = 10007
    for K in (Q, C5):
        for _ in range(15):
            a = field.FieldValue(K, [Fraction(rng.randint(1, 9)) for _ in range(K.degree)])
            e = rng.randint(1, 40)
            assert field.reduce_mod_prime(a ** e, p) == field.reduce_mod_prime(a, p) ** e


def test_residue_pow_tower():
    p = 10007
    a = field.reduce_mod_prime(Q.from_rational(3), p)
    # 3^(2^50) mod p computed directly via Fermat
    expected = pow(3, pow(2, 50, p - 1), p)
    assert a.pow_tower(2, 50).coeffs == (expected,)


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
    assert r ** 0 == r.one()


def test_is_prime():
    assert field.is_prime(2) and field.is_prime(10007)
    assert not field.is_prime(1) and not field.is_prime(10001)
    assert field.is_prime((1 << 31) - 1)


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


def ref_mul(K, a, b):
    """a*b on Fraction coefficient tuples through _pmul and _pmod."""
    prod = field._pmul(field._ptrim(list(a)), field._ptrim(list(b)))
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
