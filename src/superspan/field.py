"""Exact arithmetic in the ambient coefficient field.

Three kinds of ambient are supported: the rationals, number fields
Q[x]/(f) with f monic over Q, and cyclotomic fields Q(zeta_ell) for an
odd prime ell, each of degree at most MAX_FIELD_DEGREE.  Elements are
represented by their unique reduced polynomial of degree < deg(f),
stored as integer numerators (constant term first) over one common
denominator (Cohen, A Course in Computational Algebraic Number Theory,
4.2).  A product is an integer convolution reduced through the rows
x^k mod f, k >= deg(f), computed once per minimal polynomial.  The
inverse of a = (g / den) * b, g the content of a's numerators, solves
b * y = 1 in the integer matrix of the columns b * x^k with bareiss,
the fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
1968) that linalg runs on every matrix; g goes first, as the minors of
c * b carry c^deg(f).  A singular matrix means that a is a zero divisor
of a reducible f.  A power of a monomial q * zeta^a of
Q(zeta_ell) is q^e * zeta^(a*e mod ell), two int powers; every other
power goes by square-and-multiply.  Only _pmod, which reduces overlong
coefficient lists, still works on Fraction polynomials.  All operations
are pure and every value is immutable, so values may be shared freely.

Reduction modulo a machine-word prime feeds the fast rank filter.
root_mod_prime finds the least root a of f mod p, once per (field,
prime), and reduce_mod_prime maps a value to F_p by reducing its
coefficients mod p and evaluating them at a.  That is a ring
homomorphism K -> F_p for any root of f mod p, squarefree or not, so a
prime is usable exactly when f has a root mod p and p divides no
denominator.  For Q(zeta_ell) root_mod_prime finds the root in integers
alone, from one primitive ell-th root of unity mod p (Cohen, A Course
in Computational Algebraic Number Theory, 1.6).  reduce_mod_prime
returns the image as a ModularResidue, an F_p value with its prime,
whose powers are builtin pow calls with the exponent reduced by Fermat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

from . import modp
from .errors import (
    BadPrime,
    DivisionByZero,
    MixedAmbients,
    NonInvertible,
    NonMonicPolynomial,
    NonPrimeCyclotomicOrder,
    Unsupported,
    ZeroDegree,
    ZeroToZeroPower,
)

# the largest degree of a number field or cyclotomic field; the time and
# memory that building one takes grow faster than the degree squared
MAX_FIELD_DEGREE = 256

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


# ----------------------------------------------------------------------
# primality (deterministic Miller-Rabin, valid for 64-bit inputs)
# ----------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES_PRODUCT = math.prod(_SMALL_PRIMES)
_MR_BASES_32 = (2, 7, 61)
_MR_BOUND_32 = 4_759_123_141   # the least strong pseudoprime to 2, 7 and 61


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly for every n < 2^64.

    One gcd with the product of the primes up to 37 settles every n
    with such a factor, and every n < 41^2.  The rest take strong
    probable-prime (Miller-Rabin) tests: to the bases 2, 7 and 61 below
    4 759 123 141, the least strong pseudoprime to all three (Jaeschke,
    "On strong pseudoprimes to several bases", Math. Comp. 61, 1993),
    and to the twelve primes up to 37 from there on, which no composite
    below 2^64 passes.  Such an n exceeds 61, so no base is a multiple
    of n.
    """
    if n < 2:
        return False
    if math.gcd(n, _SMALL_PRIMES_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_32 if n < _MR_BOUND_32 else _SMALL_PRIMES:
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
# fraction-free elimination
# ----------------------------------------------------------------------

def bareiss(mat: list) -> tuple:
    """Fraction-free Gauss-Jordan elimination in place of a matrix of ints
    or of FieldValues of one field (Bareiss, Math. Comp. 22, 1968);
    returns (pivot columns, last pivot, swap sign, pivot inverses).

    Each pivot is the first nonzero entry of its column at or below the
    pivot row.  Every other row is zeroed in the pivot column and updated
    on the columns after it to (c * pivot - f * e) / previous pivot, so
    each entry there is a minor of mat and each division is exact: // on
    ints, on field values a product with the previous pivot's inverse,
    taken once and returned in order.  At the end the last pivot is the
    determinant of the pivot rows at the pivot columns, and the columns
    from pivot column j up to the next one are pivot j times their RREF
    columns.  Over the fields Q and Q(zeta_ell) the last pivot is never
    inverted.  Q[x]/(f) is a field only for an irreducible f, which
    nothing checks, so there it is, and any pivot that is a zero divisor
    raises NonInvertible.
    """
    nrows = len(mat)
    pivots, inverses = [], []
    prev, sign = 1, 1
    for col in range(len(mat[0]) if mat else 0):
        k = len(pivots)
        if k == nrows:
            break
        p = next((i for i in range(k, nrows) if mat[i][col]), None)
        if p is None:
            continue
        if p != k:
            mat[k], mat[p] = mat[p], mat[k]
            sign = -sign
        pivot_row = mat[k]
        piv = pivot_row[col]
        ints = type(piv) is int
        zero = 0 if ints else piv.ambient.zero()
        if k and not ints:
            inverses.append(inv := prev.inverse())
        for i, row in enumerate(mat):
            if i != k:
                f = row[col]
                pairs = zip(row[col + 1:], pivot_row[col + 1:])
                if ints:
                    row[col + 1:] = [(c * piv - f * e) // prev for c, e in pairs]
                elif k:
                    row[col + 1:] = [(c * piv - f * e) * inv for c, e in pairs]
                else:
                    row[col + 1:] = [c * piv - f * e for c, e in pairs]
                row[col] = zero
        pivots.append(col)
        prev = piv
    if pivots and not ints and prev.ambient.kind == NUMBER_FIELD:
        inverses.append(prev.inverse())
    return pivots, prev, sign, inverses


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


def _check_degree(degree: int) -> None:
    """Raise Unsupported for a degree above MAX_FIELD_DEGREE, before
    anything of the field is built."""
    if degree > MAX_FIELD_DEGREE:
        raise Unsupported(f"field degree {degree} exceeds the cap {MAX_FIELD_DEGREE}")


def cyclotomic_field(ell: int) -> FieldDesc:
    """The field Q(zeta_ell) for an odd prime ell, of degree ell - 1."""
    _check_degree(ell - 1)
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
    _check_degree(len(coeffs) - 1)
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
        K, n = self.ambient, self.ambient.degree
        if n == 1:
            a, b = self.den, self.num[0]
            return _value(K, (-a,) if b < 0 else (a,), abs(b))
        # self^-1 = (den / g) * y with b * y = 1: the columns b * x^k over a
        # common denominator D, with the right side (D, 0, ..., 0)
        g = math.gcd(*self.num)
        x = K.gen()
        cols = [_value(K, tuple(c // g for c in self.num), 1)]
        for _ in range(n - 1):
            cols.append(cols[-1] * x)
        D = math.lcm(*(v.den for v in cols))
        rows = [[v.num[i] * (D // v.den) for v in cols] + [D if i == 0 else 0]
                for i in range(n)]
        # with a pivot in every column of b, column n is det * y
        pivots, det, _, _ = bareiss(rows)
        if pivots != list(range(n)):
            raise NonInvertible("element is a zero divisor (reducible minimal polynomial)")
        sign = -1 if det < 0 else 1
        return _canonical(K, [sign * self.den * row[n] for row in rows], abs(det) * g)

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
        K = self.ambient
        if K.degree == 1:
            return _value(K, (self.num[0] ** e,), self.den ** e)
        monomial = cyclotomic_monomial(self)
        if monomial is not None:
            # (c / den * zeta^a)^e = c^e / den^e * zeta^(a*e mod ell), and
            # gcd(c, den) = 1 keeps the result in lowest terms
            c, a = monomial
            n, b, ce = K.degree, a * e % K.cyclotomic_order, c ** e
            num = (-ce,) * n if b == n else (0,) * b + (ce,) + (0,) * (n - 1 - b)
            return _value(K, num, self.den ** e)
        result = K.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


_set = object.__setattr__


def cyclotomic_monomial(v: FieldValue) -> Optional[Tuple[int, int]]:
    """(c, a) with v = (c / v.den) * zeta^a and 0 <= a < ell when v is a
    nonzero monomial of Q(zeta_ell); None for any other value or field.

    In the basis 1, zeta, ..., zeta^(ell-2) a monomial has one nonzero
    numerator c, at a, except c * zeta^(ell-1) = -c (1 + zeta + ... +
    zeta^(ell-2)), whose ell - 1 numerators all equal -c.
    """
    if v.ambient.kind != CYCLOTOMIC:
        return None
    num = v.num
    zeros = num.count(0)
    if zeros == len(num) - 1:
        a = next(i for i, c in enumerate(num) if c)
        return num[a], a
    if not zeros and num.count(num[0]) == len(num):
        return -num[0], len(num)
    return None


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

@dataclass(frozen=True)
class ModularResidue:
    """The image of a field element in F_p, as reduce_mod_prime gives it.

    Powers go by Fermat: v^e = v^((e - 1) mod (p - 1) + 1) for e >= 1,
    which keeps a zero value 0; e < 0 is refused.
    """

    prime: int
    value: int

    def _check(self, other: "ModularResidue"):
        if self.prime != other.prime:
            raise MixedAmbients("residues modulo different primes")

    def __add__(self, other):
        self._check(other)
        return ModularResidue(self.prime, (self.value + other.value) % self.prime)

    def __mul__(self, other):
        self._check(other)
        return ModularResidue(self.prime, self.value * other.value % self.prime)

    def __pow__(self, e: int) -> "ModularResidue":
        if e < 0:
            raise ValueError("residues have no inverse: the exponent needs e >= 0")
        p = self.prime
        return ModularResidue(p, pow(self.value, (e - 1) % (p - 1) + 1, p) if e else 1)

    def pow_tower(self, d: int, m: int) -> "ModularResidue":
        """self ** (d**m) without materializing d**m."""
        if d < 1 or m < 0:
            raise ValueError("tower exponent needs d >= 1, m >= 0")
        p = self.prime
        return ModularResidue(p, pow(self.value, pow(d, m, p - 1) or p - 1, p))


@lru_cache(maxsize=1024)
def root_mod_prime(ambient: FieldDesc, p: int) -> Optional[int]:
    """The least root in F_p of the minimal polynomial reduced mod p, or
    None when it has no root there; 0 (the trivial root) for the
    rationals.  Computed once per (field, prime).

    For Q(zeta_ell) and p != ell no polynomial arithmetic is needed: the
    roots of Phi_ell mod p are the elements of order ell in F_p^*, which
    exist exactly when ell | p - 1, and they are the powers w, ..., w^(ell-1)
    of any one of them, w = g^((p-1)/ell) != 1 (Cohen, A Course in
    Computational Algebraic Number Theory, 1.6).  Other fields, and
    p = ell, go through modp.poly_roots, which needs no squarefree f.

    Raises BadPrime when p is not prime or divides a denominator of the
    minimal polynomial.
    """
    if p < 2 or not is_prime(p):
        raise BadPrime(f"{p} is not prime")
    if ambient.min_poly is None:
        return 0
    ell = ambient.cyclotomic_order
    if ell is not None and p != ell:
        if (p - 1) % ell:
            return None
        g = 2
        while (w := pow(g, (p - 1) // ell, p)) == 1:
            g += 1
        return min(pow(w, k, p) for k in range(1, ell))
    fmodp = []
    for c in ambient.min_poly:
        if c.denominator % p == 0:
            raise BadPrime(f"denominator of minimal polynomial collides with {p}")
        fmodp.append((c.numerator * pow(c.denominator % p, p - 2, p)) % p)
    roots = modp.poly_roots(fmodp, p)
    return roots[0] if roots else None


def reduce_mod_prime(a: FieldValue, p: int) -> ModularResidue:
    """The image of a in F_p: its coefficients mod p evaluated at the
    root of f mod p that root_mod_prime gives.  Evaluation at a root is
    a ring homomorphism K -> F_p whether or not f mod p is squarefree.

    Raises BadPrime when p is not prime, divides a denominator of the
    minimal polynomial or of a, or when f has no root mod p; the caller
    is expected to retry with another prime.
    """
    root = root_mod_prime(a.ambient, p)
    if root is None:
        raise BadPrime(f"minimal polynomial has no root mod {p}")
    if a.den % p == 0:
        raise BadPrime(f"denominator of coefficient collides with {p}")
    v = 0
    for c in reversed(a.num):
        v = (v * root + c) % p
    return ModularResidue(p, v * pow(a.den, p - 2, p) % p)
