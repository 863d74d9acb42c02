"""The multiplicative relation lattice of a projective point.

For a point with nonzero rational coordinates, a relation is an integer
vector e with sum zero such that the product of the coordinates raised
to the e_i equals exactly 1.  Relations form a sublattice of Z^(n+1),
computed here as the integer kernel of the exponent map over a coprime
base, found by gcds alone after Bernstein, "Factoring into coprimes in
essentially linear time" (J. Algorithms 2005), together with a
sign-parity constraint (the product must be +1, not -1).  Nothing is
factored.  Lattices are kept in Hermite normal form.

Points of the shape [1, zeta_ell * q1, q2, ...] over a cyclotomic field
are also supported: each coordinate must be a rational multiple of a
power of zeta, and the root-of-unity exponents contribute a congruence
condition modulo ell.  Anything more general is rejected rather than
answered heuristically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from operator import index
from typing import List, Sequence, Tuple

from .errors import DimensionMismatch, SoundnessError, Unsupported, ZeroCoordinate
from .field import CYCLOTOMIC, RATIONAL, cyclotomic_monomial
from .orbit import ProjPoint


# ----------------------------------------------------------------------
# integer matrix utilities
# ----------------------------------------------------------------------

def hermite_normal_form(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-style Hermite normal form: positive pivots that strictly
    decrease in column as the row index grows, entries above each pivot
    reduced into [0, pivot).  Canonical for the row lattice."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= len(rows):
            break
        block = [i for i in range(pivot_row, len(rows)) if rows[i][col]]
        if not block:
            continue
        while len(block) > 1:
            block.sort(key=lambda i: abs(rows[i][col]))
            i0 = block[0]
            for i in block[1:]:
                q = rows[i][col] // rows[i0][col]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[i0])]
            block = [i for i in block if rows[i][col]]
        i0 = block[0]
        rows[pivot_row], rows[i0] = rows[i0], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-a for a in rows[pivot_row]]
        piv = rows[pivot_row][col]
        for i in range(pivot_row):
            q = rows[i][col] // piv
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    return rows[:pivot_row]


def integer_kernel(mat: Sequence[Sequence[int]]) -> List[List[int]]:
    """Basis (in HNF) of {e in Z^ncols : mat @ e = 0}."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if ncols == 0:
        return []
    # rows of [mat^T | I]: HNF rows whose left part vanishes carry the kernel
    stacked = [[mat[r][i] for r in range(nrows)] + [1 if j == i else 0 for j in range(ncols)]
               for i in range(ncols)]
    reduced = hermite_normal_form(stacked)
    kernel = [row[nrows:] for row in reduced if not any(row[:nrows])]
    return hermite_normal_form(kernel)


# ----------------------------------------------------------------------
# coprime base
# ----------------------------------------------------------------------

def coprime_base(values: Sequence[int]) -> List[int]:
    """Sorted pairwise coprime integers > 1 whose powers give every value.

    When a pending x shares g = gcd(x, b) > 1 with a base element b, b
    is replaced by g, b // g and x // g; each split divides the product
    of all pending and base integers by g, so the loop ends.  Quadratic
    in the number of values (Bernstein's algorithm is near-linear)."""
    base: List[int] = []
    pending = [v for v in values if v > 1]
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                del base[i]
                pending += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
    return sorted(base)


def _valuation(n: int, b: int) -> int:
    k = 0
    while n % b == 0:
        n, k = n // b, k + 1
    return k


def exponent_matrix(values: Sequence[Fraction]) -> Tuple[List[int], List[List[int]], List[int]]:
    """Returns (base, E, signs) for a sequence of nonzero rationals: base
    is the coprime_base of their numerators and denominators, E[i][j]
    the exponent of base[j] in value i and signs[i] is +-1.  Pairwise
    coprime integers > 1 are multiplicatively independent, so E has the
    kernel of the prime-exponent matrix.  The base of [1, 6, 36] is [6].
    """
    coords = [Fraction(c) for c in values]
    if any(c == 0 for c in coords):
        raise ZeroCoordinate("relation lattice needs nonzero coordinates")
    base = coprime_base([n for c in coords for n in (abs(c.numerator), c.denominator)])
    E = [[_valuation(abs(c.numerator), b) - _valuation(c.denominator, b) for b in base]
         for c in coords]
    signs = [1 if c > 0 else -1 for c in coords]
    return base, E, signs


# ----------------------------------------------------------------------
# the relation lattice
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RelLattice:
    """Sublattice of Z^(n+1) of multiplicative relations, basis in HNF.

    pivots holds the column of each basis row's first nonzero entry,
    found once; it takes no part in equality, hashing or repr.
    """

    dimension: int
    basis: tuple  # tuple of integer tuples
    pivots: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pivots = tuple(next((i for i, x in enumerate(row) if x), None) for row in self.basis)
        if None in pivots:
            raise ValueError("a lattice basis row is zero")
        object.__setattr__(self, "pivots", pivots)

    @property
    def rank(self) -> int:
        return len(self.basis)


def _cyclotomic_parts(P: ProjPoint) -> Tuple[List[Fraction], List[int], int]:
    """Split coordinates q * zeta^a into (rationals q, torsion exponents a).

    Requires every coordinate to be a monomial in zeta (see
    field.cyclotomic_monomial); raises Unsupported otherwise.
    """
    rationals = []
    torsion = []
    for c in P.coords:
        monomial = cyclotomic_monomial(c)
        if monomial is None:
            raise Unsupported(
                "relation lattice supports cyclotomic coordinates of the form "
                "q * zeta^a only")
        q, a = monomial
        rationals.append(Fraction(q, c.den))
        torsion.append(a)
    return rationals, torsion, P.ambient.cyclotomic_order


def relation_lattice(P: ProjPoint) -> RelLattice:
    """R(P): integer vectors e with sum 0 and product of coordinate
    powers exactly 1, as a canonical HNF lattice."""
    if P.has_zero_coordinate():
        raise ZeroCoordinate("relation lattice needs nonzero coordinates")
    if P.ambient.kind == CYCLOTOMIC:
        rationals, torsion, ell = _cyclotomic_parts(P)
    elif P.ambient.kind == RATIONAL:
        rationals = [c.as_rational() for c in P.coords]
        torsion, ell = None, None
    else:
        raise Unsupported("relation lattice is computed exactly only for "
                          "rational or cyclotomic-monomial coordinates")

    n_plus_1 = len(rationals)
    base, E, signs = exponent_matrix(rationals)

    # constraint rows over (e_0..e_n, aux...): base exponents, the sum,
    # and congruences, each with an auxiliary column carrying its
    # modulus: sign parity (2), and for cyclotomic points the torsion
    # congruence (ell)
    rows = [[E[i][j] for i in range(n_plus_1)] for j in range(len(base))]
    rows.append([1] * n_plus_1)
    congruences = []
    if any(s < 0 for s in signs):
        congruences.append(([1 if s < 0 else 0 for s in signs], 2))
    if torsion is not None and any(torsion):
        congruences.append((list(torsion), ell))
    n_aux = len(congruences)
    rows = [row + [0] * n_aux for row in rows]
    rows += [row + [modulus if j == k else 0 for j in range(n_aux)]
             for k, (row, modulus) in enumerate(congruences)]

    kernel = integer_kernel(rows)
    projected = hermite_normal_form([row[:n_plus_1] for row in kernel])
    lattice = RelLattice(n_plus_1, tuple(tuple(r) for r in projected))

    # soundness: every basis vector is a genuine relation
    for e in lattice.basis:
        prod = Fraction(1)
        for q, exp in zip(rationals, e):
            prod *= Fraction(q) ** exp
        if sum(e) or prod != 1 or (
                torsion is not None and sum(a * x for a, x in zip(torsion, e)) % ell):
            raise SoundnessError(f"unsound relation basis vector {e}")
    return lattice


def lattice_reduce(L: RelLattice, v: Sequence[int]) -> List[int]:
    """The canonical representative of v modulo the lattice: for each HNF
    row in order, the entry at its pivot is taken into [0, pivot).  Two
    vectors differ by a lattice vector iff their representatives agree.
    Raises ValueError for an entry that is not an integer."""
    try:
        v = list(map(index, v))
    except TypeError:
        raise ValueError("lattice vectors need integer entries") from None
    if len(v) != L.dimension:
        raise DimensionMismatch(
            f"vector of length {len(v)} against a lattice in Z^{L.dimension}")
    for row, col in zip(L.basis, L.pivots):
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return v


def lattice_contains(L: RelLattice, v: Sequence[int]) -> bool:
    """Exact membership of an integer vector in the lattice."""
    return not any(lattice_reduce(L, v))
