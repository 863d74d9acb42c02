"""Exact arithmetic in the ambient coefficient field.

Three kinds of ambient are supported: the rationals, number fields
Q[x]/(f) with f monic over Q, and cyclotomic fields Q(zeta_ell) for an
odd prime ell.  Elements are represented by their unique reduced
polynomial of degree < deg(f), stored as integer numerators (constant
term first) over one common denominator (Cohen, A Course in Computational
Algebraic Number Theory, 4.2).  A product is an integer convolution
reduced through the rows x^k mod f, k >= deg(f), computed once per
minimal polynomial.  All operations are pure and every value is
immutable, so values may be shared freely.

Reduction modulo a machine-word prime feeds the fast rank filter:
reduce_mod_prime maps a value into F_p[x]/(f mod p), root_mod_prime
finds a root a of f mod p, and evaluating the reduction at a is a ring
homomorphism to F_p, where powers are plain builtin pow calls.  Both
read f mod p and its squarefree verdict from one cache, filled once per
(minimal polynomial, prime).  For Q(zeta_ell) root_mod_prime finds the
root in integers alone, from one primitive ell-th root of unity mod p
(Cohen, A Course in Computational Algebraic Number Theory, 1.6).
ModularResidue still carries its quotient-ring arithmetic, which the
filter no longer uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import modp
from .errors import (
    BadPrime,
    DivisionByZero,
    MixedAmbients,
    NonInvertible,
    NonMonicPolynomial,
    NonPrimeCyclotomicOrder,
    ZeroDegree,
    ZeroToZeroPower,
)

RATIONAL = "rational"
NUMBER_FIELD = "number_field"
CYCLOTOMIC = "cyclotomic"

Rat = Union[int, Fraction]


# ----------------------------------------------------------------------
# polynomial helpers over Q: coefficient lists, constant term first,
# trailing zeros trimmed ([] is the zero polynomial)
# ----------------------------------------------------------------------

def _ptrim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return [-c for c in a]


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return _ptrim(out)


def _pmod(a, f):
    # f monic; remainder of a modulo f
    a = list(a)
    while len(a) >= len(f):
        c = a[-1]
        if c:
            shift = len(a) - len(f)
            for i in range(len(f) - 1):
                a[shift + i] -= c * f[i]
        a.pop()
    return _ptrim(a)


def _pdivmod(a, b):
    # b nonzero, arbitrary leading coefficient
    q: list = []
    r = list(a)
    lead = b[-1]
    while len(r) >= len(b) and r:
        c = r[-1] / lead
        shift = len(r) - len(b)
        while len(q) <= shift:
            q.append(Fraction(0))
        q[shift] += c
        for i in range(len(b)):
            r[shift + i] -= c * b[i]
        _ptrim(r)
    return _ptrim(q), r


def _pxgcd(a, b):
    # returns (g, s, t) with s*a + t*b = g over Q[x]
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pneg(_pmul(q, s1)))
        t0, t1 = t1, _padd(t0, _pneg(_pmul(q, t1)))
    return r0, s0, t0


# ----------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid for 64-bit inputs)
# ----------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ----------------------------------------------------------------------
# ambient field descriptions
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _reduction_rows(min_poly: tuple) -> tuple:
    """(E, rows) with x^k mod f = rows[k - n] / E for k = n..2n-2, a row
    being the (index, int) pairs of its nonzero entries.  With F = D*f for
    the common denominator D, x^k mod f = R_k / D^(k-n+1) where R_n = -F
    and R_(k+1) = D * shift(R_k) - top(R_k) * F."""
    n = len(min_poly) - 1
    D = math.lcm(*(c.denominator for c in min_poly))
    F = [c.numerator * (D // c.denominator) for c in min_poly[:n]]
    rows = [[-c for c in F]]
    for _ in range(n - 2):
        R = rows[-1]
        rows.append([D * s - R[-1] * c for s, c in zip([0] + R[:-1], F)])
    # bring row k over D^(n-1), then into lowest terms together
    rows = [[c * D ** (n - 2 - j) for c in R] for j, R in enumerate(rows)]
    E = D ** (n - 1)
    g = math.gcd(E, *(c for R in rows for c in R))
    return E // g, tuple(tuple((i, c // g) for i, c in enumerate(R) if c) for R in rows)


@dataclass(frozen=True)
class FieldDesc:
    """Description of an ambient field.

    min_poly is the monic minimal polynomial (constant term first) for
    number fields and cyclotomics, None for the rationals.  reduction
    holds _reduction_rows(min_poly) for fields of degree >= 2.
    """

    kind: str
    min_poly: Optional[tuple]
    degree: int
    cyclotomic_order: Optional[int] = None
    reduction: Optional[tuple] = dc_field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        if self.degree > 1:
            object.__setattr__(self, "reduction", _reduction_rows(self.min_poly))

    def zero(self) -> "FieldValue":
        return _value(self, (0,) * self.degree, 1)

    def one(self) -> "FieldValue":
        return self.from_rational(1)

    def from_rational(self, q: Rat) -> "FieldValue":
        q = Fraction(q)
        return _value(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def gen(self) -> "FieldValue":
        """The class of x (the root of min_poly; zeta for cyclotomics)."""
        if self.degree < 2:
            raise ZeroDegree("the rational field has no generator")
        return FieldValue(self, (Fraction(0), Fraction(1)))

    def element(self, coeffs) -> "FieldValue":
        if isinstance(coeffs, FieldValue):
            if coeffs.ambient != self:
                raise MixedAmbients("value belongs to a different field")
            return coeffs
        if isinstance(coeffs, (int, Fraction)):
            return self.from_rational(coeffs)
        return FieldValue(self, tuple(Fraction(c) for c in coeffs))


def rational_field() -> FieldDesc:
    return FieldDesc(RATIONAL, None, 1)


def cyclotomic_field(ell: int) -> FieldDesc:
    """The field Q(zeta_ell) for an odd prime ell."""
    if ell < 3 or ell % 2 == 0 or not is_prime(ell):
        raise NonPrimeCyclotomicOrder(f"cyclotomic order must be an odd prime, got {ell}")
    phi = tuple(Fraction(1) for _ in range(ell))  # x^(ell-1) + ... + x + 1
    return FieldDesc(CYCLOTOMIC, phi, ell - 1, cyclotomic_order=ell)


def number_field(min_poly: Sequence[Rat]) -> FieldDesc:
    """Q[x]/(f) for a monic f given constant-term-first."""
    coeffs = [Fraction(c) for c in min_poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise ZeroDegree("minimal polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise NonMonicPolynomial("minimal polynomial must be monic")
    return FieldDesc(NUMBER_FIELD, tuple(coeffs), len(coeffs) - 1)


def monicize(coeffs: Sequence[Rat]) -> list:
    """Divide a polynomial by its leading coefficient (rational output)."""
    c = [Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    if not c:
        raise ZeroDegree("zero polynomial")
    lead = c[-1]
    return [x / lead for x in c]


# ----------------------------------------------------------------------
# field elements
# ----------------------------------------------------------------------

class FieldValue:
    """An element of an ambient field, canonically reduced.

    The value is num / den: num a tuple of ambient.degree ints (constant
    term first), den a positive int, and gcd(den, *num) == 1, so equality
    and hashing are plain int-tuple comparisons.  A rational value equals,
    and hashes like, the int or Fraction num[0] / den.  coeffs gives the
    same vector as a tuple of Fractions.
    """

    __slots__ = ("ambient", "num", "den")

    def __init__(self, ambient: FieldDesc, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > ambient.degree:
            if ambient.min_poly is None:
                raise ValueError("too many coefficients for the rational field")
            coeffs = _pmod(coeffs, list(ambient.min_poly))
        coeffs += [Fraction(0)] * (ambient.degree - len(coeffs))
        # over the lcm of reduced denominators the numerators have gcd 1
        den = math.lcm(*(c.denominator for c in coeffs))
        _set(self, "ambient", ambient)
        _set(self, "num", tuple(c.numerator * (den // c.denominator) for c in coeffs))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldValue is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- basic protocol --

    def __bool__(self) -> bool:
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldValue):
            return (self.num == other.num and self.den == other.den
                    and (self.ambient is other.ambient or self.ambient == other.ambient))
        if isinstance(other, (int, Fraction)):
            return (self.den == other.denominator and self.num[0] == other.numerator
                    and not any(self.num[1:]))
        return NotImplemented

    def __hash__(self):
        if any(self.num[1:]):
            return hash((self.num, self.den))
        return hash(self.num[0]) if self.den == 1 else hash(Fraction(self.num[0], self.den))

    def __repr__(self) -> str:
        return f"FieldValue({list(self.coeffs)})"

    def as_rational(self) -> Fraction:
        """The value as a rational; raises if it has a nonzero x-part."""
        if any(self.num[1:]):
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, FieldValue):
            if other.ambient is not self.ambient and other.ambient != self.ambient:
                raise MixedAmbients("operands belong to different ambient fields")
            return other
        if isinstance(other, (int, Fraction)):
            return _value(self.ambient,
                          (other.numerator,) + (0,) * (self.ambient.degree - 1),
                          other.denominator)
        return NotImplemented

    # -- arithmetic --

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.ambient, [a + b for a, b in zip(self.num, other.num)], da)
        return _canonical(self.ambient,
                          [a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _value(self.ambient, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        K = self.ambient
        n = K.degree
        if n == 1:
            return _canonical(K, [self.num[0] * other.num[0]], self.den * other.den)
        conv = [0] * (2 * n - 1)
        b = [(j, c) for j, c in enumerate(other.num) if c]
        for i, a in enumerate(self.num):
            if a:
                for j, c in b:
                    conv[i + j] += a * c
        E, rows = K.reduction
        out = conv[:n] if E == 1 else [c * E for c in conv[:n]]
        for c, row in zip(conv[n:], rows):
            if c:
                for i, r in row:
                    out[i] += c * r
        return _canonical(K, out, self.den * other.den * E)

    __rmul__ = __mul__

    def inverse(self) -> "FieldValue":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.ambient.degree == 1:
            a, b = self.den, self.num[0]
            return _value(self.ambient, (-a,) if b < 0 else (a,), abs(b))
        g, s, _ = _pxgcd(_ptrim(list(self.coeffs)), list(self.ambient.min_poly))
        if len(g) != 1:
            # gcd has positive degree: min_poly is reducible and self is a
            # zero divisor; report rather than return a wrong value
            raise NonInvertible("element is a zero divisor (reducible minimal polynomial)")
        return FieldValue(self.ambient, [c / g[0] for c in s])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e: int) -> "FieldValue":
        if e == 0:
            if self.is_zero():
                raise ZeroToZeroPower("0**0 is undefined")
            return self.ambient.one()
        if e < 0:
            return self.inverse() ** (-e)
        if self.ambient.degree == 1:
            return _value(self.ambient, (self.num[0] ** e,), self.den ** e)
        result = self.ambient.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


_set = object.__setattr__


def _value(ambient: FieldDesc, num: tuple, den: int) -> FieldValue:
    """The FieldValue num / den, which must already be canonical."""
    v = object.__new__(FieldValue)
    _set(v, "ambient", ambient)
    _set(v, "num", num)
    _set(v, "den", den)
    return v


def _canonical(ambient: FieldDesc, num: list, den: int) -> FieldValue:
    """The FieldValue num / den for den > 0, brought into lowest terms."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return _value(ambient, tuple(c // g for c in num), den // g)
    return _value(ambient, tuple(num), den)


# ----------------------------------------------------------------------
# reduction modulo a prime
# ----------------------------------------------------------------------

def _unit_group_exponent(p: int, degree: int) -> int:
    """A multiple of every unit order in F_p[x]/(f), f squarefree of the
    given degree: lcm(p^j - 1) over j = 1..degree."""
    e = 1
    for j in range(1, degree + 1):
        e = math.lcm(e, p ** j - 1)
    return e


@dataclass(frozen=True)
class ModularResidue:
    """Image of a field element in F_p[x]/(f mod p).

    modulus is the monic reduction of the ambient minimal polynomial
    (None when the ambient is the rationals, so the quotient is F_p).
    Exponentiation reduces the exponent modulo the unit-group exponent,
    shifted so that zero divisors are still handled correctly.
    """

    prime: int
    coeffs: tuple
    modulus: Optional[tuple]

    def _check(self, other: "ModularResidue"):
        if self.prime != other.prime or self.modulus != other.modulus:
            raise MixedAmbients("residues from different modular quotients")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def one(self) -> "ModularResidue":
        c = (1,) + (0,) * (len(self.coeffs) - 1)
        return ModularResidue(self.prime, c, self.modulus)

    def __add__(self, other):
        self._check(other)
        return ModularResidue(self.prime,
                              tuple((a + b) % self.prime
                                    for a, b in zip(self.coeffs, other.coeffs)),
                              self.modulus)

    def __sub__(self, other):
        self._check(other)
        return ModularResidue(self.prime,
                              tuple((a - b) % self.prime
                                    for a, b in zip(self.coeffs, other.coeffs)),
                              self.modulus)

    def __mul__(self, other):
        self._check(other)
        p = self.prime
        if self.modulus is None:
            return ModularResidue(p, ((self.coeffs[0] * other.coeffs[0]) % p,), None)
        prod = modp.poly_mul(modp.poly_trim(list(self.coeffs)),
                             modp.poly_trim(list(other.coeffs)), p)
        red = modp.poly_mod(prod, list(self.modulus), p)
        red += [0] * (len(self.coeffs) - len(red))
        return ModularResidue(p, tuple(red), self.modulus)

    def inverse(self) -> "ModularResidue":
        p = self.prime
        if self.is_zero():
            raise DivisionByZero("inverse of zero residue")
        if self.modulus is None:
            return ModularResidue(p, (pow(self.coeffs[0], p - 2, p),), None)
        g, s = modp.poly_xgcd(modp.poly_trim(list(self.coeffs)), list(self.modulus), p)
        if len(g) != 1:
            raise NonInvertible("residue is a zero divisor mod p")
        ginv = pow(g[0], p - 2, p)
        inv = modp.poly_mod([(c * ginv) % p for c in s], list(self.modulus), p)
        inv += [0] * (len(self.coeffs) - len(inv))
        return ModularResidue(p, tuple(inv), self.modulus)

    def _pow_raw(self, e: int) -> "ModularResidue":
        result = self.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __pow__(self, e: int) -> "ModularResidue":
        if e == 0:
            return self.one()
        if e < 0:
            return self.inverse() ** (-e)
        deg = 1 if self.modulus is None else len(self.modulus) - 1
        exponent_bound = _unit_group_exponent(self.prime, deg)
        # shift by one so zero-divisor components (which need e >= 1) are safe
        e_red = (e - 1) % exponent_bound + 1
        return self._pow_raw(e_red)

    def pow_tower(self, d: int, m: int) -> "ModularResidue":
        """self ** (d**m) without materializing d**m."""
        if d < 1 or m < 0:
            raise ValueError("tower exponent needs d >= 1, m >= 0")
        deg = 1 if self.modulus is None else len(self.modulus) - 1
        exponent_bound = _unit_group_exponent(self.prime, deg)
        e_red = (pow(d, m, exponent_bound) - 1) % exponent_bound + 1
        return self._pow_raw(e_red)


@lru_cache(maxsize=1024)
def _min_poly_mod(min_poly: Optional[tuple], p: int) -> tuple:
    """(f mod p, whether it is squarefree) for the minimal polynomial f,
    computed once per (f, p); (None, True) for the rationals.

    Raises BadPrime when p is not prime or divides a denominator of f."""
    if p < 2 or not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if min_poly is None:
        return None, True
    fmodp = []
    for c in min_poly:
        if c.denominator % p == 0:
            raise BadPrime(f"denominator of minimal polynomial collides with {p}")
        fmodp.append((c.numerator * pow(c.denominator % p, p - 2, p)) % p)
    g, _ = modp.poly_xgcd(fmodp, modp.poly_deriv(fmodp, p), p)
    return tuple(fmodp), len(g) == 1


def reduce_mod_prime(a: FieldValue, p: int) -> ModularResidue:
    """Image of a in F_p[x]/(f mod p).

    Raises BadPrime when p is not prime, divides a denominator of the
    minimal polynomial or of a, or when f mod p fails to be squarefree;
    the caller is expected to retry with another prime.
    """
    fmodp, squarefree = _min_poly_mod(a.ambient.min_poly, p)
    if a.den % p == 0:
        raise BadPrime(f"denominator of coefficient collides with {p}")
    den_inv = pow(a.den, p - 2, p)
    coeffs = tuple(c * den_inv % p for c in a.num)
    if not squarefree:
        raise BadPrime(f"minimal polynomial is not squarefree mod {p}")
    return ModularResidue(p, coeffs, fmodp)


def root_mod_prime(ambient: FieldDesc, p: int) -> Optional[int]:
    """The least root in F_p of the minimal polynomial reduced mod p, or
    None when it has no root there; 0 (the trivial root) for the
    rationals.

    For Q(zeta_ell) and p != ell no polynomial arithmetic is needed: the
    roots of Phi_ell mod p are the elements of order ell in F_p^*, which
    exist exactly when ell | p - 1, and they are the powers w, ..., w^(ell-1)
    of any one of them, w = g^((p-1)/ell) != 1 (Cohen, A Course in
    Computational Algebraic Number Theory, 1.6).  Other fields, and
    p = ell, go through modp.poly_roots.

    Evaluating the reduction of a value at this root is a ring
    homomorphism to F_p.  Raises BadPrime when p is not prime or divides
    a denominator of the minimal polynomial.
    """
    fmodp, _ = _min_poly_mod(ambient.min_poly, p)
    if fmodp is None:
        return 0
    ell = ambient.cyclotomic_order
    if ell is None or p == ell:
        roots = modp.poly_roots(fmodp, p)
        return roots[0] if roots else None
    if (p - 1) % ell:
        return None
    g = 2
    while (w := pow(g, (p - 1) // ell, p)) == 1:
        g += 1
    return min(pow(w, k, p) for k in range(1, ell))
