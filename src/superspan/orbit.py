"""Power-map orbits on projective space.

A ProjPoint stores homogeneous coordinates over an ambient field and is
canonically scaled so its first nonzero coordinate is 1.  Iterating the
degree-d power map raises every coordinate to the d^m-th power; when the
field has roots of unity the cost is tiny, but over the rationals the
bit size of entries doubles with every iterate, so exact materialization
is guarded by a configurable budget on the exponent d^m.  A run holds
two caches of its orbit: ModularOrbit keeps it modulo the filter primes,
as rows of ints, and ExactOrbit keeps exact coordinate powers, each
computed at most once; an IterMatrix is a view of a few iterates of an
ExactOrbit.  Membership of a point in a subspace is read off the
subspace's RREF basis by substitution, reading only the coordinates the
basis needs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence

from . import linalg
from .errors import (
    AllPrimesBad,
    BadPrime,
    DimensionMismatch,
    ExponentBudgetExceeded,
    TupleTooLong,
    ZeroCoordinate,
)
from .field import FieldDesc, FieldValue, rational_field, reduce_mod_prime, root_mod_prime

DEFAULT_EXPONENT_BUDGET = 2 ** 40


def checked_power(d: int, m: int, budget: Optional[int] = None) -> int:
    """d**m, refusing exponents beyond the materialization budget."""
    if budget is None:
        budget = DEFAULT_EXPONENT_BUDGET
    if d < 2:
        raise ValueError("power map degree must be >= 2")
    if m < 0:
        raise ValueError("iterate index must be >= 0")
    if m > budget.bit_length():
        raise ExponentBudgetExceeded(f"d^m with m = {m} exceeds the exponent budget")
    e = d ** m
    if e > budget:
        raise ExponentBudgetExceeded(f"d^m = {e} exceeds the exponent budget {budget}")
    return e


class ProjPoint:
    """A point of P^n with canonically scaled homogeneous coordinates."""

    __slots__ = ("ambient", "coords")

    def __init__(self, ambient: FieldDesc, coords):
        values = tuple(ambient.element(c) for c in coords)
        if not values:
            raise DimensionMismatch("point needs at least one coordinate")
        lead = next((v for v in values if not v.is_zero()), None)
        if lead is None:
            raise ZeroCoordinate("all homogeneous coordinates are zero")
        if lead != ambient.one():
            inv = lead.inverse()
            values = tuple(v * inv for v in values)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "coords", values)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @classmethod
    def rational(cls, coords) -> "ProjPoint":
        return cls(rational_field(), [Fraction(c) for c in coords])

    @property
    def dim(self) -> int:
        """Dimension n of the ambient projective space."""
        return len(self.coords) - 1

    def has_zero_coordinate(self) -> bool:
        return any(v.is_zero() for v in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.ambient == other.ambient and self.coords == other.coords

    def __hash__(self):
        return hash((self.ambient, self.coords))

    def __repr__(self) -> str:
        return f"ProjPoint({[list(v.coeffs) for v in self.coords]})"


def validate_exp_tuple(m: Sequence[int]) -> tuple:
    m = tuple(int(x) for x in m)
    if not m:
        raise DimensionMismatch("empty iterate tuple")
    if m[0] < 0:
        raise ValueError(f"iterate indices must be non-negative: {m}")
    if any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError(f"iterate tuple must be strictly increasing: {m}")
    return m


def iterate(P: ProjPoint, d: int, m: int,
            budget: Optional[int] = None) -> ProjPoint:
    """The m-th forward iterate of P under the degree-d power map."""
    e = checked_power(d, m, budget)
    return ProjPoint(P.ambient, [c ** e for c in P.coords])


def check_orbits(P: ProjPoint, d: int, *orbits) -> None:
    """Raise ValueError unless each orbit given (None is skipped) is the orbit
    of P under the degree-d map: another orbit's values say nothing of P."""
    if any(o is not None and (o.point != P or o.degree != d) for o in orbits):
        raise ValueError(f"an orbit given is not the orbit of {P} under degree {d}")


class ExactOrbit:
    """The exact orbit as a cache of coordinate powers: power(j, m) is
    alpha_j ** (d^m), computed once, as the largest cached alpha_j ** (d^k)
    with k < m raised to d^(m-k).  An index past the exponent budget
    raises ExponentBudgetExceeded and stays out of the cache.  The degree
    must be at least 2."""

    def __init__(self, point: ProjPoint, d: int, budget: Optional[int] = None):
        if d < 2:
            raise ValueError("power map degree must be >= 2")
        self.point, self.degree, self.budget = point, d, budget
        self.powers = [{} for _ in point.coords]  # per coordinate: m -> its power

    def power(self, j: int, m: int) -> FieldValue:
        """Coordinate j of the point raised to d^m."""
        cache = self.powers[j]
        if m not in cache:
            e = checked_power(self.degree, m, self.budget)
            k = max((k for k in cache if k < m), default=None)
            cache[m] = (self.point.coords[j] ** e if k is None
                        else cache[k] ** (self.degree ** (m - k)))
        return cache[m]

    def member(self, m: int, L: linalg.Subspace) -> bool:
        """True iff iterate m lies on L (see subspace_membership)."""
        return _in_span(self.point, lambda j: self.power(j, m), L)

    def rows(self, m: Sequence[int]) -> list:
        """The coordinate rows of the iterates m_0, m_1, ..., in order.
        The point is canonical, with leading coordinate 1, so each row is
        its iterate's canonical coordinates."""
        columns = range(len(self.point.coords))
        return [tuple(self.power(j, mi) for j in columns) for mi in m]


class IterMatrix:
    """The (r+1)x(n+1) matrix of iterates A_m, as a view of an ExactOrbit.

    Row i, read as a projective point, is the m_i-th iterate of the base
    point; entry (i, j) is coordinate j raised to the d^{m_i}-th power.
    Rows are read from the orbit on demand, under its exponent budget.
    Build one with iterate_matrix, which validates the tuple.
    """

    __slots__ = ("orbit", "tuple")

    def __init__(self, orbit: ExactOrbit, m: tuple):
        object.__setattr__(self, "orbit", orbit)
        object.__setattr__(self, "tuple", m)

    def __setattr__(self, name, value):
        raise AttributeError("IterMatrix is immutable")

    def rows(self):
        return [list(row) for row in self.orbit.rows(self.tuple)]


def iterate_matrix(P: ProjPoint, d: int, m: Sequence[int],
                   budget: Optional[int] = None) -> IterMatrix:
    """The iterate matrix A_m for a point off the coordinate hyperplanes."""
    if P.has_zero_coordinate():
        raise ZeroCoordinate("iterate matrices need all coordinates nonzero")
    m = validate_exp_tuple(m)
    if len(m) > len(P.coords):
        raise TupleTooLong(f"tuple of length {len(m)} in P^{P.dim}")
    return IterMatrix(ExactOrbit(P, d, budget), m)


class ModularOrbit:
    """The orbit of a point reduced modulo the filter primes of one run.

    Coordinate j maps to v_j in F_p: its image in F_p[x]/(f mod p),
    evaluated at a root of f mod p (the trivial root for the rationals).
    That is a ring homomorphism, so the row of iterate m is
    v_j ** (d^m) = pow(v_j, e, p) by Fermat, with e = d^m mod (p-1)
    taken as p-1 when it is 0, which keeps a zero image 0.
    Rows are computed lazily, once per (prime, iterate index).

    echelon(p, prefix) serves the rank filter: each usable prime keeps a
    chain of echelon bases mod p, of the rows m_0, then m_0 and m_1, and
    so on.  A call keeps the part of the chain that agrees with its
    prefix and extends it by the remaining rows, so lexicographically
    consecutive tuples, which share their first r indices, eliminate
    only their last row; the chain is checked against the indices, so
    the result does not depend on the order of the calls.

    Primes are drawn from the iterable until count usable ones are
    found.  A prime is unusable for the point when it divides a
    denominator, or when f mod p is not squarefree or has no root; each
    one drawn is listed in bad_primes with its reason, and only the
    usable ones, in the order drawn, are the filter primes.  At most
    DRAWS_PER_PRIME * count * deg f primes are drawn: an irreducible f
    has a root mod p for a share of at least 1/deg f of the primes
    (Chebotarev), but a non-squarefree f is unusable at every prime.
    Fewer than count usable primes are kept when the draws run out.
    Raises AllPrimesBad when no prime is usable.
    """

    DRAWS_PER_PRIME = 20

    def __init__(self, point: ProjPoint, d: int, primes: Iterable[int], count: int):
        self.point = point
        self.degree = d
        self.bad_primes = {}   # unusable prime drawn -> reason
        self._roots = {}       # usable prime -> the root of f mod p used, in draw order
        self._values = {}      # usable prime -> coordinate images v_j
        self._rows = {}        # (prime, iterate index) -> row of residues
        self._chains = {}      # usable prime -> (indices, echelon basis of each prefix)
        reason = None
        for p in islice(primes, self.DRAWS_PER_PRIME * count * point.ambient.degree):
            reason = self._reduce(p)
            if reason is not None:
                self.bad_primes[p] = reason
            elif len(self._roots) == count:
                break
        if not self._roots:
            raise AllPrimesBad(f"no usable filter prime among those tried; last: {reason}")
        self.primes = list(self._roots)  # the filter primes

    def _reduce(self, p: int) -> Optional[str]:
        """Record the images of the coordinates mod p; the reason p is
        unusable, or None."""
        try:
            root = root_mod_prime(self.point.ambient, p)
            if root is None:
                return f"minimal polynomial has no root mod {p}"
            self._roots[p] = root
            self._values[p] = [self.image(p, c) for c in self.point.coords]
        except BadPrime as exc:
            self._roots.pop(p, None)
            return str(exc)
        return None

    def image(self, p: int, value: FieldValue) -> int:
        """The image in F_p of a field value: its reduction mod the usable
        prime p evaluated at the root.  Raises BadPrime when p divides a
        denominator of the value."""
        v = 0
        for a in reversed(reduce_mod_prime(value, p).coeffs):
            v = (v * self._roots[p] + a) % p
        return v

    def row(self, p: int, m: int) -> tuple:
        """Residues of the m-th iterate modulo the usable prime p."""
        row = self._rows.get((p, m))
        if row is None:
            e = pow(self.degree, m, p - 1) or p - 1
            row = self._rows[p, m] = tuple(pow(v, e, p) for v in self._values[p])
        return row

    def echelon(self, p: int, prefix: tuple) -> tuple:
        """The echelon basis mod the usable prime p (see
        linalg.echelon_mod_p) of the rows of the iterates in prefix."""
        indices, bases = self._chains.get(p, ((), [()]))
        if indices != prefix:
            k = 0
            while k < len(indices) and k < len(prefix) and indices[k] == prefix[k]:
                k += 1
            bases = bases[:k + 1]  # bases[k]: the basis of the first k rows
            for mi in prefix[k:]:
                bases.append(linalg.echelon_mod_p([self.row(p, mi)], p, bases[-1]))
            self._chains[p] = (prefix, bases)
        return bases[-1]


def subspace_membership(Q: ProjPoint, L: linalg.Subspace) -> bool:
    """True iff Q lies in the span of L's basis rows."""
    return _in_span(Q, Q.coords.__getitem__, L)


def _in_span(P: ProjPoint, coord, L: linalg.Subspace) -> bool:
    """True iff the point with coordinates coord(j), in the space of P,
    lies in the span of L's RREF basis: iff each non-pivot coordinate is
    the sum of the rows' entries there scaled by the point's pivot
    coordinates.  No elimination, no inverse, and a pivot coordinate is
    read only where its row is nonzero."""
    if P.dim != L.ambient_dim:
        raise DimensionMismatch(
            f"point in P^{P.dim} tested against a subspace of P^{L.ambient_dim}")
    pivots = [next(j for j, v in enumerate(row) if v) for row in L.basis]
    zero = P.ambient.zero()
    return all(sum((coord(k) * row[j] for k, row in zip(pivots, L.basis) if row[j]),
                   zero) == coord(j) for j in range(P.dim + 1) if j not in pivots)
