"""Exact linear algebra over the ambient field.

One kernel does all exact elimination: field.bareiss, the fraction-free
Gauss-Jordan elimination that field inverses also run on.  Rank,
determinant, RREF and super_rank scale rational rows to integers and
pass the rows of any other field as they are; the RREF is read off the
eliminated matrix.  Subspaces are kept in RREF, the canonical
representation used to deduplicate the map from iterate tuples to their
spans.  super_rank needs at most one elimination, of A^T, and reads the
left kernel of A off its free column.

The modular rank filter certifies full rank of an iterate matrix from a
single prime.  Evaluating a value at a root of f mod p is a ring
homomorphism to F_p, so every minor maps to its image there, and a
nonzero minor found by elimination on plain ints mod p proves a nonzero
minor exactly.  Entries are v ** e with e = d^m mod (p-1), or p-1 when
that is 0 so a zero entry stays zero (Fermat), which keeps the filter
cost independent of the size of d^m.  One call decides every tuple
that extends an (r-1)-prefix by two later indices: each later row is
reduced against the prefix's rows, and the rows are grouped by their
residual up to scaling, with one inverse for all the leads of a prefix
and prime.  At the first prime the residuals are shared along the
prefix path (ModularOrbit.residuals), so a (prefix, index) pair costs
one elimination step rather than r - 1, and no tuple costs a rank check.
The elimination kernels mod p: eliminate_mod_p takes one step against
a row, for the filter; echelon_mod_p builds an echelon basis row by row
and residual_mod_p reduces a row against it, for the subspaces of the
intersection counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import List, Optional, Sequence

from .errors import ShapeMismatch
from .field import FieldValue, RATIONAL, bareiss


def _coerce_rows(rows) -> List[List[FieldValue]]:
    """Accept sequences of FieldValue rows or ProjPoint-likes (via .coords);
    rows of unequal length raise ShapeMismatch."""
    out = [list(getattr(row, "coords", row)) for row in rows]
    if len({len(row) for row in out}) > 1:
        raise ShapeMismatch("rows of unequal length")
    return out


# ----------------------------------------------------------------------
# rank, determinant and RREF
# ----------------------------------------------------------------------

def _kernel_rows(rows):
    """The rows as bareiss takes them, and the product of the row scales:
    rational rows scaled to integer rows, other rows as they are."""
    if rows[0][0].ambient.kind != RATIONAL:
        return rows, 1
    out = []
    scale = 1
    for row in rows:
        s = lcm(*(v.den for v in row))
        scale *= s
        out.append([v.num[0] * (s // v.den) for v in row])
    return out, scale


def rank(rows) -> int:
    """Exact rank of a matrix of field values."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return 0
    return len(bareiss(_kernel_rows(rows)[0])[0])


def det(rows) -> FieldValue:
    """Exact determinant of a square matrix of field values."""
    rows = _coerce_rows(rows)
    n = len(rows)
    if not n or len(rows[0]) != n:
        raise ShapeMismatch("determinant needs a nonempty square matrix")
    ambient = rows[0][0].ambient
    mat, scale = _kernel_rows(rows)
    pivots, last_pivot, sign, _ = bareiss(mat)
    if len(pivots) < n:
        return ambient.zero()
    value = last_pivot if sign > 0 else -last_pivot
    return ambient.element(Fraction(value, scale) if scale != 1 else value)


def rref(rows) -> List[List[FieldValue]]:
    """Reduced row echelon form with leading ones; zero rows dropped.

    bareiss leaves the columns between pivot column j and the next one
    as pivot j times their RREF columns, so rows 0..j there are divided
    by pivot j, through the inverse that bareiss took where it took one."""
    rows = _coerce_rows(rows)
    if not rows or not rows[0]:
        return []
    ambient = rows[0][0].ambient
    mat = _kernel_rows(rows)[0]
    pivots, _, _, inverses = bareiss(mat)
    ncols = len(mat[0])
    zero, one = ambient.zero(), ambient.one()
    out = [[zero] * ncols for _ in pivots]
    for j, (p, end) in enumerate(zip(pivots, pivots[1:] + [ncols])):
        out[j][p] = one
        if end > p + 1:
            inv = inverses[j] if j < len(inverses) else ambient.element(mat[j][p]).inverse()
            for i in range(j + 1):
                out[i][p + 1:end] = [inv * v if v else zero for v in mat[i][p + 1:end]]
    return out


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
    have rank below r.  Otherwise A^T is eliminated once by bareiss.  A
    has rank r iff A^T has r pivot columns; then the one free column f
    gives the left-kernel vector c of A, with c_f = 1 and c_(p_i)
    proportional to the entry of pivot row i at f.  The rows other than
    row t are independent iff c_t != 0, so A super-spans iff every pivot
    row is nonzero at f."""
    rows = _coerce_rows(rows)
    r = len(rows) - 1
    if r < 0 or len(rows[0]) < len(rows):
        raise ShapeMismatch("need r+1 rows and at least r+1 columns")
    if r >= 2 and len(set(map(tuple, rows))) <= r:
        return False
    cols = [list(col) for col in zip(*_kernel_rows(rows)[0])]
    pivots = bareiss(cols)[0]
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


def eliminate_mod_p(rows: Sequence[Sequence[int]], p: int) -> Optional[list]:
    """rows[1:] reduced mod p against rows[0], or None when rows[0] is
    zero: one elimination step each, with rows[0] scaled to 1 at its first
    nonzero column, so each result is zero in that column."""
    first = rows[0]
    col = next((j for j, v in enumerate(first) if v), None)
    if col is None:
        return None
    inv = pow(first[col], -1, p)
    b = [v * inv % p for v in first]
    return [[(a - f * x) % p for a, x in zip(row, b)] if (f := row[col]) else row
            for row in rows[1:]]


def _uncertified_pairs(indices: Sequence[int], residuals: Sequence[Sequence[int]],
                       p: int) -> set:
    """The pairs (c, l), c < l, of indices whose residuals mod p are
    dependent: a zero residual with any other, and two residuals in one
    class, the residual scaled to a leading 1.  The leads are inverted
    with one pow (Montgomery's batch inversion): the inverse of their
    product is walked back through the prefix products."""
    leads, products = [], []  # products[k]: the product of the nonzero leads before k
    acc = 1
    for res in residuals:
        products.append(acc)
        for v in res:
            if v:
                acc = acc * v % p
                break
        leads.append(v)  # 0 when the residual is zero
    inv = pow(acc, -1, p)
    classes, zero = {}, []
    for k in range(len(leads) - 1, -1, -1):
        v = leads[k]
        if v:
            s = inv * products[k] % p  # the inverse of v
            inv = inv * v % p
            classes.setdefault(tuple([x * s % p for x in residuals[k]]), []).append(indices[k])
        else:
            zero.append(indices[k])
    if not zero and len(classes) == len(leads):
        return set()  # no zero residual, and every class a single index
    pairs = {(min(z, i), max(z, i)) for z in zero for i in indices if i != z}
    for members in classes.values():
        pairs.update(combinations(members[::-1], 2))  # members run downwards
    return pairs


def modular_rank_filter(orbit, prefix: Sequence[int], max_iter: int) -> list:
    """The tuples prefix + (c, l), prefix[-1] < c < l <= max_iter, whose
    iterate matrix no filter prime certifies to have full rank, in
    lexicographic order.  prefix holds r - 1 increasing indices.

    orbit is the run's ModularOrbit: its row for (p, i) is the image of
    iterate i under a ring homomorphism to F_p, so a rank r + 1 mod p
    proves rank r + 1 exactly, and no large integer is ever formed.  At
    a prime, each later row is reduced against the prefix's rows, one
    elimination step (eliminate_mod_p) per prefix row.  When the prefix
    keeps rank r - 1 that reduction is linear with the prefix's span as
    kernel, so the tuple has rank r + 1 mod p iff the residuals of c and
    l are independent: both nonzero and not multiples of one another.
    The indices are grouped by their residual scaled to a leading 1, and
    the prime leaves uncertified only the pairs within a class and the
    pairs with a zero residual.  A prime where the prefix drops rank
    certifies nothing.

    At the first prime the residuals come from orbit.residuals, which
    keeps them along the prefix path: a prefix's residuals are its
    parent's, each changed by one elimination step, so a (prefix, index)
    pair costs one row step.  The uncertified sets of the primes are
    intersected, and each later prime reduces only the indices still in
    a pair, against all the prefix rows.
    """
    prefix = tuple(prefix)
    indices = range(prefix[-1] + 1 if prefix else 0, max_iter + 1)
    if len(indices) < 2:
        return []
    first, *later = orbit.primes
    residuals = orbit.residuals(prefix, max_iter)
    # uncertified pairs so far; None before a prime certifies
    pairs = None if residuals is None else _uncertified_pairs(indices, residuals, first)
    for p in later:
        if pairs is not None:
            if not pairs:
                break
            indices = sorted({i for pair in pairs for i in pair})
        residuals = [orbit.row(p, i) for i in prefix + tuple(indices)]
        for _ in prefix:
            residuals = eliminate_mod_p(residuals, p)
            if residuals is None:
                break
        else:  # the prefix keeps its rank at p
            survivors = _uncertified_pairs(indices, residuals, p)
            pairs = survivors if pairs is None else pairs & survivors
    if pairs is None:
        pairs = combinations(indices, 2)
    return [prefix + pair for pair in sorted(pairs)]
