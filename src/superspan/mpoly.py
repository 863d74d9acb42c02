"""Multivariate polynomials over Q, used to expand symbolic determinants
and verify factorization identities exactly.

Terms are kept in a canonical map from exponent vectors to nonzero
rational coefficients; the monomial order is lexicographic on the
declared variable order.  This module is a verification oracle, not a
hot path, so determinants are expanded by brute-force permutation sums.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Dict, Sequence, Tuple

from .errors import NonSquareMatrix, NotDivisible

Expo = Tuple[int, ...]

_MAX_DET_SIZE = 6


class MPoly:
    """Polynomial in a fixed ordered variable set."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Dict[Expo, Fraction]):
        self.variables = tuple(variables)
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    @classmethod
    def zero(cls, variables) -> "MPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c) -> "MPoly":
        return cls(variables, {(0,) * len(variables): Fraction(c)})

    @classmethod
    def monomial(cls, variables, exponents, coeff=1) -> "MPoly":
        return cls(variables, {tuple(exponents): Fraction(coeff)})

    @classmethod
    def var_power(cls, variables, index: int, power: int, coeff=1) -> "MPoly":
        e = [0] * len(variables)
        e[index] = power
        return cls(variables, {tuple(e): Fraction(coeff)})

    def _check(self, other: "MPoly"):
        if self.variables != other.variables:
            raise ValueError("polynomials use different variable sets")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.variables, out)

    def __neg__(self) -> "MPoly":
        return MPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        out: Dict[Expo, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.variables, out)

    def scale(self, c) -> "MPoly":
        c = Fraction(c)
        return MPoly(self.variables, {e: cc * c for e, cc in self.terms.items()})

    def total_degrees(self) -> set:
        return {sum(e) for e in self.terms}

    def leading_term(self) -> Tuple[Expo, Fraction]:
        e = max(self.terms)  # lex order on exponent vectors
        return e, self.terms[e]

    def __repr__(self) -> str:
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(f"{v}^{k}" for v, k in zip(self.variables, e) if k)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts) if parts else "0"


def sym_det(entries: Sequence[Sequence[MPoly]]) -> MPoly:
    """Determinant of a small matrix of polynomials, fully expanded.

    Expansion is the plain signed sum over permutations, so the matrix
    size is capped at 6x6 (720 products).
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise NonSquareMatrix("determinant needs a square matrix")
    if n == 0:
        raise NonSquareMatrix("empty matrix")
    if n > _MAX_DET_SIZE:
        raise NonSquareMatrix(f"permutation expansion capped at {_MAX_DET_SIZE}x{_MAX_DET_SIZE}")
    variables = entries[0][0].variables
    total = MPoly.zero(variables)
    for sigma in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if sigma[i] > sigma[j])
        prod = MPoly.constant(variables, -1 if inversions % 2 else 1)
        for i in range(n):
            prod = prod * entries[i][sigma[i]]
        total = total + prod
    return total


def mpoly_product(factors: Sequence[MPoly], variables=None) -> MPoly:
    """Fully expanded product; the empty product is the constant 1."""
    factors = list(factors)
    if not factors:
        if variables is None:
            raise ValueError("empty product needs an explicit variable set")
        return MPoly.constant(variables, 1)
    out = MPoly.constant(factors[0].variables, 1)
    for f in factors:
        out = out * f
    return out


def divide_exact(numerator: MPoly, divisor: MPoly) -> MPoly:
    """Exact quotient numerator / divisor; raises NotDivisible on a
    nonzero remainder.  Only exactly divisible inputs are supported."""
    numerator._check(divisor)
    if divisor.is_zero():
        raise NotDivisible("division by the zero polynomial")
    quotient = MPoly.zero(numerator.variables)
    remainder = numerator
    div_exp, div_coeff = divisor.leading_term()
    while not remainder.is_zero():
        rem_exp, rem_coeff = remainder.leading_term()
        q_exp = tuple(a - b for a, b in zip(rem_exp, div_exp))
        if any(e < 0 for e in q_exp):
            raise NotDivisible("nonzero remainder in exact division")
        q_term = MPoly.monomial(numerator.variables, q_exp, rem_coeff / div_coeff)
        quotient = quotient + q_term
        remainder = remainder - q_term * divisor
    return quotient
