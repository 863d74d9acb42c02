"""Power-map orbits on projective space.

A ProjPoint stores homogeneous coordinates over an ambient field and is
canonically scaled so its first nonzero coordinate is 1.  Iterating the
degree-d power map raises every coordinate to the d^m-th power; when the
field has roots of unity the cost is tiny, but over the rationals the
bit size of entries doubles with every iterate, so exact materialization
is guarded by a configurable budget on the exponent d^m.  When every
coordinate is a root of unity the orbit is preperiodic: it has finitely
many distinct points, ExactOrbit.period finds them, and no exponent past
the period is ever formed, so the budget never binds.  A run holds
two caches of its orbit: ModularOrbit keeps it modulo the filter primes,
as rows of ints, and ExactOrbit keeps exact coordinate powers, each
computed at most once; an IterMatrix is a view of a few iterates of an
ExactOrbit.  Membership of a point in a subspace is read off the
subspace's RREF basis by substitution, reading only the coordinates the
basis needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
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
from .field import FieldDesc, FieldValue, is_prime, rational_field, reduce_mod_prime

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


def check_ambient(P: ProjPoint, L: linalg.Subspace) -> None:
    """Raise DimensionMismatch unless L is a subspace of P's space."""
    if P.dim != L.ambient_dim:
        raise DimensionMismatch(
            f"point in P^{P.dim} tested against a subspace of P^{L.ambient_dim}")


class ExactOrbit:
    """The exact orbit as a cache of coordinate powers: power(j, m) is
    alpha_j ** (d^m), computed once, as the largest cached alpha_j ** (d^k)
    with k < m raised to d^(m-k).  The degree must be at least 2.

    An index past the exponent budget raises ExponentBudgetExceeded and
    stays out of the cache, unless the orbit is preperiodic (see period):
    then iterate m is iterate rep(m) < s + t, and its powers are read as
    alpha_j ** (d^rep(m) mod W) without forming d^m, so the budget never
    binds.  The period is looked for only there and when a caller asks."""

    def __init__(self, point: ProjPoint, d: int, budget: Optional[int] = None):
        if d < 2:
            raise ValueError("power map degree must be >= 2")
        self.point, self.degree, self.budget = point, d, budget
        self.powers = [{} for _ in point.coords]  # per coordinate: m -> its power
        self._cycle = _UNKNOWN  # (s, t, W) once looked for, None when not preperiodic

    def power(self, j: int, m: int) -> FieldValue:
        """Coordinate j of the point raised to d^m."""
        cache = self.powers[j]
        if m not in cache:
            try:
                e = checked_power(self.degree, m, self.budget)
            except ExponentBudgetExceeded:
                if self.period() is None:
                    raise
                m = self.rep(m)
                if m not in cache:
                    cache[m] = self.point.coords[j] ** pow(self.degree, m, self._cycle[2])
                return cache[m]
            k = max((k for k in cache if k < m), default=None)
            cache[m] = (self.point.coords[j] ** e if k is None
                        else cache[k] ** (self.degree ** (m - k)))
        return cache[m]

    def period(self) -> Optional[tuple]:
        """(s, t) when the orbit is preperiodic, else None: iterates m < m'
        coincide iff s <= m and t divides m' - m.  Computed once.

        The point is preperiodic iff every coordinate is a root of unity
        (the leading one is 1), which is tested exactly as alpha ** W0 == 1
        for a multiple W0 of every root-of-unity order in the field,
        stopping at the first coordinate that is not; a large W0 is first
        tried on the images at two primes.  Each coordinate's
        order is then read off the primes of W0, W is their lcm, and
        iterate m is determined by d^m mod W, whose first repeat gives
        (s, t).  In a Q[x]/(f) that is not a field some torsion may go
        unseen; that costs speed, never correctness."""
        if self._cycle is _UNKNOWN:
            self._cycle = _find_cycle(self.point, self.degree)
        return self._cycle and self._cycle[:2]

    def rep(self, m: int) -> int:
        """The least index of the iterate equal to iterate m, for an orbit
        with a period."""
        s, t = self.period()
        return m if m < s + t else s + (m - s) % t

    def member(self, m: int, L: linalg.Subspace) -> bool:
        """True iff iterate m lies on L (see subspace_membership)."""
        return _in_span(self.point, lambda j: self.power(j, m), L)

    def rows(self, m: Sequence[int]) -> list:
        """The coordinate rows of the iterates m_0, m_1, ..., in order.
        The point is canonical, with leading coordinate 1, so each row is
        its iterate's canonical coordinates."""
        columns = range(len(self.point.coords))
        return [tuple(self.power(j, mi) for j in columns) for mi in m]


_UNKNOWN = object()
# W0 above which the torsion test screens coordinates at primes from
# SCREEN_PRIMES_FROM up: degree 6 fields have W0 = 252, degree 12 ones 32760
SCREEN_TORSION_ABOVE = 2 ** 10
SCREEN_PRIMES_FROM = 2 ** 30 + 1


def _torsion_exponent(ambient: FieldDesc) -> tuple:
    """(W0, the primes of W0), with W0 a multiple of the order of every
    root of unity in the field.  Q(zeta_ell) holds those of order
    dividing 2 ell.  Otherwise a root of unity of order w in a field of
    degree n has phi(w) | n, and the lcm of those w is the product of
    q^(1 + v_q(n)) over the primes q with q - 1 | n: 2 for Q, 252 for
    degree 6."""
    ell = ambient.cyclotomic_order
    if ell is not None:
        return 2 * ell, (2, ell)
    n = ambient.degree
    primes = tuple(k + 1 for k in range(1, n + 1) if n % k == 0 and is_prime(k + 1))
    w0 = 1
    for q in primes:
        k = n * q
        while k % q == 0:
            k //= q
            w0 *= q
    return w0, primes


def _find_cycle(point: ProjPoint, d: int) -> Optional[tuple]:
    """(s, t, W) for a point whose coordinates are all roots of unity, W
    the lcm of their orders and (s, t) the preperiod and period of
    d^m mod W; None as soon as one coordinate is not a root of unity.

    alpha ** W0 of an alpha that is no root of unity is W0 times its
    size, so past SCREEN_TORSION_ABOVE the coordinates' images at two
    primes are tested first: a root of unity maps to a W0-th root of 1."""
    w0, factors = _torsion_exponent(point.ambient)
    one = point.ambient.one()
    if w0 > SCREEN_TORSION_ABOVE:
        try:
            screen = ModularOrbit(point, d, filter(is_prime, count(SCREEN_PRIMES_FROM, 2)), 2)
        except AllPrimesBad:
            return None  # a torsion point taken for none costs speed only
        if any(pow(v, w0, p) != 1 for p in screen.primes for v in screen.row(p, 0)):
            return None
    if any(c ** w0 != one for c in point.coords):
        return None
    w = 1
    for c in point.coords:
        order = w0
        for q in factors:
            while order % q == 0 and c ** (order // q) == one:
                order //= q
        w = math.lcm(w, order)
    first = {}  # d^m mod W -> m
    x, m = 1 % w, 0
    while x not in first:
        first[x] = m
        x, m = x * d % w, m + 1
    return first[x], m - first[x], w


@dataclass(frozen=True)
class IterMatrix:
    """The (r+1)x(n+1) matrix of iterates A_m, as a view of an ExactOrbit.

    Row i, read as a projective point, is the m_i-th iterate of the base
    point; entry (i, j) is coordinate j raised to the d^{m_i}-th power.
    Rows are read from the orbit on demand, under its exponent budget.
    Build one with iterate_matrix, which validates the tuple.
    """

    orbit: ExactOrbit
    tuple: tuple

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

    Coordinate j maps to v_j in F_p through reduce_mod_prime: its
    coefficients evaluated at a root of f mod p (the trivial root for the
    rationals).  That is a ring homomorphism, so the row of iterate m is
    v_j ** (d^m) = pow(v_j, e, p) by Fermat, with e = d^m mod (p-1)
    taken as p-1 when it is 0, which keeps a zero image 0.
    Rows are computed lazily, once per (prime, iterate index), and kept.
    For the first prime the orbit also keeps the rows reduced along the
    last prefix the rank filter asked for, one map per prefix depth (see
    residuals); the filter reduces the later primes' rows itself.

    Primes are drawn from the iterable until count usable ones are
    found.  A prime is unusable for the point when f has no root mod p
    or p divides a denominator; each one drawn is listed in bad_primes
    with its reason, and only the usable ones, in the order drawn, are
    the filter primes.  At most DRAWS_PER_PRIME * count * deg f primes
    are drawn, since an iterable may hold no usable prime at all, as
    primes = 3 mod 4 for x^2 + 1.  Every f has a root mod p for a share
    of at least 1/deg f of the primes (Chebotarev, applied to an
    irreducible factor), so a pseudo-random stream rarely meets the cap.
    Fewer than count usable primes are kept when the draws run out.
    Raises AllPrimesBad when no prime is usable.
    """

    DRAWS_PER_PRIME = 20

    def __init__(self, point: ProjPoint, d: int, primes: Iterable[int], count: int):
        self.point = point
        self.degree = d
        self.bad_primes = {}   # unusable prime drawn -> reason
        self._values = {}      # usable prime -> coordinate images v_j, in draw order
        self._rows = {}        # (prime, iterate index) -> row of residues
        # the first prime's residual maps along the last prefix asked for:
        # (prefix index, residuals) per depth, from (-1, rows) at the root
        self._path, self._path_top = [], None
        reason = None
        for p in islice(primes, self.DRAWS_PER_PRIME * count * point.ambient.degree):
            try:
                self._values[p] = [self.image(p, c) for c in point.coords]
            except BadPrime as exc:
                reason = self.bad_primes[p] = str(exc)
                continue
            if len(self._values) == count:
                break
        if not self._values:
            raise AllPrimesBad(f"no usable filter prime among those tried; last: {reason}")
        self.primes = list(self._values)  # the filter primes

    def image(self, p: int, value: FieldValue) -> int:
        """The image in F_p of a field value (see reduce_mod_prime).
        Raises BadPrime when f has no root mod p or p divides a
        denominator of the value."""
        return reduce_mod_prime(value, p).value

    def row(self, p: int, m: int) -> tuple:
        """Residues of the m-th iterate modulo the usable prime p."""
        row = self._rows.get((p, m))
        if row is None:
            e = pow(self.degree, m, p - 1) or p - 1
            row = self._rows[p, m] = tuple(pow(v, e, p) for v in self._values[p])
        return row

    def residuals(self, prefix: Sequence[int], max_iter: int) -> Optional[list]:
        """The rows of iterates prefix[-1] + 1 .. max_iter (0 .. max_iter
        for an empty prefix) modulo the first prime, reduced against the
        rows of the increasing prefix, in index order; None when the
        prefix drops rank there.

        The residuals against (i_1, ..., i_k) are its parent's past i_k,
        each changed by one elimination step with the residual of i_k
        (linalg.eliminate_mod_p).  The maps along the last prefix asked
        for are kept, one per depth, so siblings share their parent's.
        Another max_iter starts the path over."""
        p = self.primes[0]
        if max_iter != self._path_top:
            self._path = [(-1, [self.row(p, i) for i in range(max_iter + 1)])]
            self._path_top = max_iter
        path = self._path
        k = 0  # depth of the longest kept prefix of prefix
        while k < len(prefix) and k + 1 < len(path) and path[k + 1][0] == prefix[k]:
            k += 1
        del path[k + 1:]
        parent, rows = path[k]
        for i in prefix[k:]:
            if not parent < i <= max_iter:
                raise ValueError(f"prefix {tuple(prefix)} is not increasing in 0..{max_iter}")
            if rows is not None:
                rows = linalg.eliminate_mod_p(rows[i - parent - 1:], p)
            parent = i
            path.append((i, rows))
        return rows


def subspace_membership(Q: ProjPoint, L: linalg.Subspace) -> bool:
    """True iff Q lies in the span of L's basis rows."""
    return _in_span(Q, Q.coords.__getitem__, L)


def _in_span(P: ProjPoint, coord, L: linalg.Subspace) -> bool:
    """True iff the point with coordinates coord(j), in the space of P,
    lies in the span of L's RREF basis: iff each non-pivot coordinate is
    the sum of the rows' entries there scaled by the point's pivot
    coordinates.  No elimination, no inverse, and a pivot coordinate is
    read only where its row is nonzero."""
    check_ambient(P, L)
    pivots = [next(j for j, v in enumerate(row) if v) for row in L.basis]
    zero = P.ambient.zero()
    return all(sum((coord(k) * row[j] for k, row in zip(pivots, L.basis) if row[j]),
                   zero) == coord(j) for j in range(P.dim + 1) if j not in pivots)
