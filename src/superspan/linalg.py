"""Exact linear algebra over the ambient field.

Rank over the rationals runs fraction-free (Bareiss) on integer-scaled
rows; over number fields it falls back to ordinary elimination with
exact division, which also yields the RREF.  Subspaces are kept in RREF,
the canonical representation used to deduplicate the map from iterate
tuples to their spans.  super_rank needs at most one elimination: it
reads the left kernel of the matrix off [A | I].

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
from typing import List, Optional, Sequence

from .errors import ShapeMismatch
from .field import FieldDesc, FieldValue, RATIONAL


def _coerce_rows(rows) -> List[List[FieldValue]]:
    """Accept sequences of FieldValue rows or ProjPoint-likes (via .coords)."""
    out = []
    for row in rows:
        row = getattr(row, "coords", row)
        out.append(list(row))
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


def _bareiss(mat: List[List[int]], pivot_cols: Optional[int] = None):
    """Fraction-free elimination; returns (rank, det_of_leading_pivots,
    swap_sign).  The last pivot equals the determinant of the pivot
    submatrix, so for square full-rank input it is the determinant.
    Pivots are sought in the first pivot_cols columns only; the division
    stays exact on the columns after them, as every entry is a minor."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    prev = 1
    pivot_row = 0
    sign = 1
    last_pivot = 1
    for col in range(ncols if pivot_cols is None else pivot_cols):
        if pivot_row >= nrows:
            break
        pr = None
        for r in range(pivot_row, nrows):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        if pr != pivot_row:
            mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
            sign = -sign
        piv = mat[pivot_row][col]
        for r in range(pivot_row + 1, nrows):
            for c in range(col + 1, ncols):
                mat[r][c] = (mat[r][c] * piv - mat[r][col] * mat[pivot_row][c]) // prev
            mat[r][col] = 0
        prev = piv
        last_pivot = piv
        pivot_row += 1
    return pivot_row, last_pivot, sign


def _field_eliminate(rows: List[List[FieldValue]], pivot_cols: Optional[int] = None,
                     reduced: bool = False):
    """Ordinary elimination with exact division; returns (rank, pivot
    product, swap sign).  Pivots are sought in the first pivot_cols
    columns only, and inverted, so a zero divisor raises NonInvertible.
    With reduced, pivot columns are cleared above the pivots too (RREF)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    ambient = _ambient_of(rows)
    pivot_row = 0
    sign = 1
    det = ambient.one()
    for col in range(ncols if pivot_cols is None else pivot_cols):
        if pivot_row >= nrows:
            break
        pr = None
        for r in range(pivot_row, nrows):
            if not rows[r][col].is_zero():
                pr = r
                break
        if pr is None:
            continue
        if pr != pivot_row:
            rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
            sign = -sign
        piv = rows[pivot_row][col]
        det = det * piv
        inv = piv.inverse()
        rows[pivot_row] = [v * inv for v in rows[pivot_row]]
        for r in range(0 if reduced else pivot_row + 1, nrows):
            f = rows[r][col]
            if r != pivot_row and not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    return pivot_row, det, sign


def rank(rows) -> int:
    """Exact rank of a matrix of field values."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return 0
    if _ambient_of(rows).kind == RATIONAL:
        r, _, _ = _bareiss(_integer_rows(rows)[0])
        return r
    r, _, _ = _field_eliminate(rows)
    return r


def det(rows) -> FieldValue:
    """Exact determinant of a square matrix of field values."""
    rows = _coerce_rows(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ShapeMismatch("determinant needs a square matrix")
    ambient = _ambient_of(rows)
    if ambient.kind == RATIONAL:
        int_rows, scale = _integer_rows(rows)
        r, last_pivot, sign = _bareiss(int_rows)
        if r < n:
            return ambient.zero()
        return ambient.from_rational(Fraction(sign * last_pivot, scale))
    r, pivot_product, sign = _field_eliminate(rows)
    if r < n:
        return ambient.zero()
    return pivot_product * ambient.from_rational(sign)


def rref(rows) -> List[List[FieldValue]]:
    """Reduced row echelon form with leading ones; zero rows dropped."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return []
    r, _, _ = _field_eliminate(rows, reduced=True)
    return rows[:r]


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
    have rank below r.  Otherwise [A | I] is eliminated with pivots in A:
    when rank A = r, the I part of its zero row spans the left kernel of
    A, and the rows other than row t are independent iff its t-th entry
    is nonzero."""
    rows = _coerce_rows(rows)
    r = len(rows) - 1
    ncols = len(rows[0]) if rows else 0
    if r < 0 or ncols < len(rows):
        raise ShapeMismatch("need r+1 rows and at least r+1 columns")
    if r >= 2 and len(set(map(tuple, rows))) <= r:
        return False
    ambient = _ambient_of(rows)
    if ambient.kind == RATIONAL:
        rows, one, zero, eliminate = _integer_rows(rows)[0], 1, 0, _bareiss
    else:
        one, zero, eliminate = ambient.one(), ambient.zero(), _field_eliminate
    mat = [row + [one if t == i else zero for t in range(r + 1)]
           for i, row in enumerate(rows)]
    rank_a, _, _ = eliminate(mat, ncols)
    return rank_a == r and all(mat[r][ncols:])


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
