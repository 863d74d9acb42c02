"""Exact linear algebra over the ambient field.

Two Gauss-Jordan kernels do all exact elimination.  Rank, determinant
and super_rank over the rationals scale the rows to integers and run
field.bareiss, the fraction-free kernel that field inverses also run
on; the rest, the RREF included, runs _field_eliminate, which divides
exactly.  Subspaces are kept in RREF, the canonical representation used
to deduplicate the map from iterate tuples to their spans.  super_rank
needs at most one elimination, of A^T, and reads the left kernel of A
off its free column.

The modular rank filter certifies full rank of an iterate matrix from a
single prime.  Evaluating a value at a root of f mod p is a ring
homomorphism to F_p, so every minor maps to its image there, and a
nonzero minor found by elimination on plain ints mod p proves a nonzero
minor exactly.  Entries are v ** e with e = d^m mod (p-1), or p-1 when
that is 0 so a zero entry stays zero (Fermat), which keeps the filter
cost independent of the size of d^m.  One call decides every tuple
that extends an (r-1)-prefix by two later indices: the prefix's r - 1
rows are echeloned once per prime, each later row is reduced once
against that basis, and the rows are grouped by their residual up to
scaling, so the cost is one reduction per index rather than one rank
check per tuple.  One elimination kernel works mod p: echelon_mod_p
builds an echelon basis row by row and residual_mod_p reduces a row
against it, for the filter's prefix bases and for the subspaces of the
intersection counts alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Sequence

from .errors import ShapeMismatch
from .field import FieldDesc, FieldValue, RATIONAL, bareiss


def _coerce_rows(rows) -> List[List[FieldValue]]:
    """Accept sequences of FieldValue rows or ProjPoint-likes (via .coords);
    rows of unequal length raise ShapeMismatch."""
    out = [list(getattr(row, "coords", row)) for row in rows]
    if len({len(row) for row in out}) > 1:
        raise ShapeMismatch("rows of unequal length")
    return out


def _ambient_of(rows: Sequence[Sequence[FieldValue]]) -> FieldDesc:
    return rows[0][0].ambient


# ----------------------------------------------------------------------
# rank and determinant
# ----------------------------------------------------------------------

def _integer_rows(rows):
    """Rational rows scaled to integer rows, and the product of the scales."""
    out = []
    scale = 1
    for row in rows:
        s = lcm(*(v.den for v in row))
        scale *= s
        out.append([v.num[0] * (s // v.den) for v in row])
    return out, scale


def _field_eliminate(rows: List[List[FieldValue]]):
    """Gauss-Jordan elimination with exact division, leaving the RREF in
    rows; returns (pivot columns, pivot product, swap sign).  Pivots are
    inverted, so a zero divisor raises NonInvertible."""
    nrows = len(rows)
    pivots = []
    sign = 1
    ambient = _ambient_of(rows)
    zero, one = ambient.zero(), ambient.one()
    det = one
    for col in range(len(rows[0])):
        k = len(pivots)
        if k == nrows:
            break
        p = next((i for i in range(k, nrows) if not rows[i][col].is_zero()), None)
        if p is None:
            continue
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        piv = rows[k][col]
        det = det * piv
        inv = piv.inverse()
        rows[k][col:] = pivot_row = [one] + [v * inv for v in rows[k][col + 1:]]
        for i, row in enumerate(rows):
            f = row[col]
            if i != k and not f.is_zero():
                row[col:] = [zero] + [a - f * b for a, b in zip(row[col + 1:], pivot_row[1:])]
        pivots.append(col)
    return pivots, det, sign


def rank(rows) -> int:
    """Exact rank of a matrix of field values."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return 0
    if _ambient_of(rows).kind == RATIONAL:
        return len(bareiss(_integer_rows(rows)[0])[0])
    return len(_field_eliminate(rows)[0])


def det(rows) -> FieldValue:
    """Exact determinant of a square matrix of field values."""
    rows = _coerce_rows(rows)
    n = len(rows)
    if not n or len(rows[0]) != n:
        raise ShapeMismatch("determinant needs a nonempty square matrix")
    ambient = _ambient_of(rows)
    if ambient.kind == RATIONAL:
        int_rows, scale = _integer_rows(rows)
        pivots, last_pivot, sign = bareiss(int_rows)
        if len(pivots) < n:
            return ambient.zero()
        return ambient.from_rational(Fraction(sign * last_pivot, scale))
    pivots, pivot_product, sign = _field_eliminate(rows)
    if len(pivots) < n:
        return ambient.zero()
    return pivot_product * ambient.from_rational(sign)


def rref(rows) -> List[List[FieldValue]]:
    """Reduced row echelon form with leading ones; zero rows dropped."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return []
    return rows[:len(_field_eliminate(rows)[0])]


# ----------------------------------------------------------------------
# subspaces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of P^n given by its canonical RREF basis."""

    ambient_dim: int  # n
    basis: tuple      # tuple of coordinate-row tuples, in RREF

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def dim_projective(self) -> int:
        return len(self.basis) - 1


def span_canonical(points) -> Subspace:
    """Canonical subspace spanned by the given points (or raw rows)."""
    rows = _coerce_rows(points)
    if not rows:
        raise ShapeMismatch("span of an empty point set")
    basis = rref(rows)
    n = len(rows[0]) - 1
    return Subspace(n, tuple(tuple(row) for row in basis))


def super_rank(rows) -> bool:
    """True iff the (r+1)-row matrix A has rank r and every r-row submatrix
    also has rank r (the matrix analogue of super-spanning).

    For r >= 2 two equal rows fail at once, as every r rows holding both
    have rank below r.  Otherwise A^T is eliminated once, by bareiss over
    Q and by _field_eliminate over a number field.  A has rank r iff A^T
    has r pivot columns; then the one free column f gives the left-kernel
    vector c of A, with c_f = 1 and c_(p_i) proportional to the entry of
    pivot row i at f.  The rows other than row t are independent iff
    c_t != 0, so A super-spans iff every pivot row is nonzero at f."""
    rows = _coerce_rows(rows)
    r = len(rows) - 1
    if r < 0 or len(rows[0]) < len(rows):
        raise ShapeMismatch("need r+1 rows and at least r+1 columns")
    if r >= 2 and len(set(map(tuple, rows))) <= r:
        return False
    if _ambient_of(rows).kind == RATIONAL:
        rows, eliminate = _integer_rows(rows)[0], bareiss
    else:
        eliminate = _field_eliminate
    cols = [list(col) for col in zip(*rows)]
    pivots, _, _ = eliminate(cols)
    if len(pivots) != r:
        return False
    f = min(set(range(r + 1)) - set(pivots))
    return all(cols[i][f] for i in range(r))


# ----------------------------------------------------------------------
# modular rank filter
# ----------------------------------------------------------------------

def residual_mod_p(basis: Sequence[tuple], row: Sequence[int], p: int) -> list:
    """row reduced mod p against an echelon basis: a list of residues,
    all zero iff row lies in the span of the basis mod p.

    basis holds (pivot column, row with 1 there) pairs, each row zero at
    the pivot columns of the pairs before it, so one pass in order
    clears every pivot column."""
    row = list(row)
    for col, b in basis:
        f = row[col]
        if f:
            row = [(a - f * x) % p for a, x in zip(row, b)]
    return row


def echelon_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple:
    """An echelon basis mod p of rows, built from each row in order that
    is independent of the rows before it; its length is the rank mod p.
    The basis is a tuple of (pivot column, row scaled to pivot 1) pairs,
    as residual_mod_p reads it."""
    basis = ()
    for row in rows:
        res = residual_mod_p(basis, row, p)
        col = next((j for j, v in enumerate(res) if v), None)
        if col is not None:
            inv = pow(res[col], -1, p)
            basis += ((col, tuple(v * inv % p for v in res)),)
    return basis


def _uncertified_pairs(classes: dict) -> set:
    """The pairs (c, l), c < l, of indices whose residuals are dependent:
    classes maps each residual scaled to a leading 1 (None for a zero
    residual) to its indices, in increasing order."""
    zero = classes.get(None, [])
    pairs = set(combinations(zero, 2))
    for key, members in classes.items():
        if key is not None:
            pairs.update(combinations(members, 2))
            pairs.update((min(z, i), max(z, i)) for z in zero for i in members)
    return pairs


def modular_rank_filter(orbit, prefix: Sequence[int], max_iter: int) -> list:
    """The tuples prefix + (c, l), prefix[-1] < c < l <= max_iter, whose
    iterate matrix no filter prime certifies to have full rank, in
    lexicographic order.  prefix holds r - 1 increasing indices.

    orbit is the run's ModularOrbit: its row for (p, i) is the image of
    iterate i under a ring homomorphism to F_p, so a rank r + 1 mod p
    proves rank r + 1 exactly, and no large integer is ever formed.  At
    a prime where the prefix's echelon basis has r - 1 rows, reducing a
    row against it is linear with the prefix's span as kernel, so the
    tuple has rank r + 1 mod p iff the residuals of c and l are
    independent: both nonzero and not multiples of one another.  The
    indices are grouped by their residual scaled to a leading 1, and the
    prime leaves uncertified only the pairs within a class and the pairs
    with a zero residual.  A prime where the prefix drops rank certifies
    nothing.  The uncertified sets of the primes are intersected, and a
    later prime reduces only the indices still in a pair.
    """
    prefix = tuple(prefix)
    indices = range(prefix[-1] + 1 if prefix else 0, max_iter + 1)
    pairs = None  # uncertified pairs so far; None before a prime certifies
    for p in orbit.primes:
        basis = echelon_mod_p([orbit.row(p, i) for i in prefix], p)
        if len(basis) < len(prefix):
            continue
        if pairs is not None:
            indices = sorted({i for pair in pairs for i in pair})
        classes = {}
        for i in indices:
            res = residual_mod_p(basis, orbit.row(p, i), p)
            lead = next((v for v in res if v), 0)
            key = None
            if lead:
                inv = pow(lead, -1, p)
                key = tuple(v * inv % p for v in res)
            classes.setdefault(key, []).append(i)
        survivors = _uncertified_pairs(classes)
        pairs = survivors if pairs is None else pairs & survivors
        if not pairs:
            break
    if pairs is None:
        pairs = combinations(indices, 2)
    return [prefix + pair for pair in sorted(pairs)]
