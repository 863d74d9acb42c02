"""The two multivariate polynomial identities behind acceptance criteria 1
and 2, checked to the letter: the first determinant is the seven-factor
product, and the second has an explicit cofactor h of degree 19.

Polynomials are the dicts of `test_acceptance`: exponent triples to nonzero
integer coefficients."""

from functools import reduce

from test_acceptance import SEVEN_FORMS, _mul, _power_det


def _div(f, g):
    """Exact quotient f / g by lex-leading terms; g's leading coefficient
    is ±1, so it is its own inverse."""
    lead = max(g)
    q = {}
    while f:
        e = max(f)
        m = tuple(x - y for x, y in zip(e, lead))
        assert min(m) >= 0, "not divisible"
        q[m] = f[e] * g[lead]
        f = dict(f)
        for e2, c2 in _mul({m: -q[m]}, g).items():
            f[e2] = f.get(e2, 0) + c2
        f = {e2: c for e2, c in f.items() if c}
    return q


def test_colinearity_det_equals_product():
    d = _power_det((1, 2, 4))
    assert d == reduce(_mul, SEVEN_FORMS)
    assert len(d) == 6
    assert {sum(e) for e in d} == {7}


def test_degree_19_cofactor():
    d = _power_det((1, 8, 16))
    assert {sum(e) for e in d} == {25}
    base = reduce(_mul, SEVEN_FORMS[:6])  # abc(a-b)(b-c)(c-a)
    h = _div(d, base)
    assert {sum(e) for e in h} == {19}
    assert _mul(base, h) == d
