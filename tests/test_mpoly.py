import random
from fractions import Fraction

import pytest

from superspan.errors import NonSquareMatrix, NotDivisible
from superspan.mpoly import MPoly, divide_exact, mpoly_product, sym_det

VARS = ("a", "b", "c")


def vp(i, k):
    return MPoly.var_power(VARS, i, k)


def power_matrix(exponents):
    return [[vp(j, e) for j in range(3)] for e in exponents]


def seven_factors():
    a, b, c = vp(0, 1), vp(1, 1), vp(2, 1)
    return [a, b, c, a - b, b - c, c - a, a + b + c]


def test_det_2x2():
    two_vars = ("a", "b")
    a = MPoly.var_power(two_vars, 0, 1)
    b = MPoly.var_power(two_vars, 1, 1)
    a2 = MPoly.var_power(two_vars, 0, 2)
    b2 = MPoly.var_power(two_vars, 1, 2)
    d = sym_det([[a, b], [a2, b2]])
    assert d == a * b2 - a2 * b


def test_colinearity_det_equals_product():
    d = sym_det(power_matrix((1, 2, 4)))
    assert d == mpoly_product(seven_factors())
    assert len(d.terms) == 6
    assert d.total_degrees() == {7}


def test_degree_19_cofactor():
    d = sym_det(power_matrix((1, 8, 16)))
    assert d.total_degrees() == {25}
    base = mpoly_product(seven_factors()[:6])  # abc(a-b)(b-c)(c-a)
    h = divide_exact(d, base)
    assert h.total_degrees() == {19}
    assert base * h == d


def test_alternating():
    rows = power_matrix((1, 2, 4))
    d = sym_det(rows)
    swapped = [rows[1], rows[0], rows[2]]
    assert sym_det(swapped) == -d


def test_non_square():
    with pytest.raises(NonSquareMatrix):
        sym_det([[vp(0, 1), vp(1, 1)]])


def test_product_basics():
    a, b = vp(0, 1), vp(1, 1)
    assert (a - b) * (a + b) == vp(0, 2) - vp(1, 2)
    assert mpoly_product([], variables=VARS) == MPoly.constant(VARS, 1)


def test_equality_normalization():
    a, b = vp(0, 1), vp(1, 1)
    assert a + b == b + a
    assert a == a + b.scale(0)
    assert a != b


def test_divide_exact_rejects_remainder():
    a, b = vp(0, 1), vp(1, 1)
    with pytest.raises(NotDivisible):
        divide_exact(a + b, a - b)


def test_divide_exact_random_roundtrip():
    rng = random.Random(13)
    for _ in range(10):
        f = MPoly(VARS, {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                         Fraction(rng.randint(-5, 5)) for _ in range(4)})
        g = MPoly(VARS, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                         Fraction(rng.randint(-5, 5)) for _ in range(3)})
        if f.is_zero() or g.is_zero():
            continue
        assert divide_exact(f * g, g) == f
