"""Vanishing-subsum analysis of determinant expansions.

A rank-deficient iterate matrix makes every (r+1)-minor determinant
vanish.  Expanding such a minor over the symmetric group S_{r+1} gives a
signed sum of coordinate-power products, one term per permutation, and
the structure of which subsums vanish is what controls whether distinct
iterate tuples can produce the same normalized term data.

This module computes the term vectors, searches exhaustively for the
finest partition of S_{r+1} into zero-sum blocks with no vanishing
proper subsums, classifies partitions against the distinguished
partitions I-bullet-t = { {sigma : sigma(j) = t} : j }, and builds the
per-block projectively-normalized fingerprints whose collisions witness
non-injectivity.

Permutations are tuples in one-line notation; the canonical order is
lexicographic, blocks are sorted by least element, and partitions are
compared blockwise, so every artifact here is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (
    IndexOutOfRange,
    NonVanishingTotal,
    ShapeMismatch,
    TooManyTerms,
    ZeroCoordinate,
)
from .orbit import ExactOrbit, ProjPoint, check_orbits, checked_power, validate_exp_tuple

Perm = Tuple[int, ...]

_MAX_SEARCH_TERMS = 24  # (r+1)! cap for exhaustive subset search


def symmetric_group(r: int) -> List[Perm]:
    """S_{r+1} in lexicographic one-line order."""
    return list(permutations(range(r + 1)))


def perm_sign(sigma: Perm) -> int:
    inversions = sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma))
                     if sigma[i] > sigma[j])
    return -1 if inversions % 2 else 1


def column_selections(r: int, n: int) -> List[Tuple[int, ...]]:
    """All strictly increasing maps {0..r} -> {0..n}."""
    from itertools import combinations
    return [tuple(c) for c in combinations(range(n + 1), r + 1)]


def _validate_columns(p: Sequence[int], r: int, n: int) -> Tuple[int, ...]:
    p = tuple(int(x) for x in p)
    if len(p) != r + 1:
        raise ShapeMismatch(f"column selection of length {len(p)}; expected {r + 1}")
    if p[0] < 0 or p[-1] > n or any(a >= b for a, b in zip(p, p[1:])):
        raise ShapeMismatch(f"column selection must increase strictly within 0..{n}: {p}")
    return p


# ----------------------------------------------------------------------
# term vectors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TermVector:
    """All (r+1)! signed terms of one expanded minor determinant.

    entries maps each permutation to (sign, value); values are nonzero
    because the point has no zero coordinates.
    """

    r: int
    entries: tuple  # tuple of (perm, sign, FieldValue) in lex perm order

    def values(self) -> Dict[Perm, object]:
        return {perm: value for perm, _, value in self.entries}

    def signed_value(self, perm: Perm):
        for q, sign, value in self.entries:
            if q == perm:
                return value * sign
        raise KeyError(perm)

    def signed_sum(self):
        total = None
        for _, sign, value in self.entries:
            term = value * sign
            total = term if total is None else total + term
        return total

    def block_sum(self, block: Sequence[Perm]):
        total = None
        for perm in block:
            term = self.signed_value(perm)
            total = term if total is None else total + term
        return total


def det_terms(P: ProjPoint, d: int, m: Sequence[int],
              p: Optional[Sequence[int]] = None,
              exact: Optional[ExactOrbit] = None) -> TermVector:
    """Signed permutation terms of the column-selected iterate minor.

    The signed sum over all of S_{r+1} equals the determinant of the
    (r+1)x(r+1) matrix with entry (i, j) = alpha_{p(j)} ** d^{m_i}.
    With exact, the orbit of P under the degree-d map, the powers are
    read from its cache of coordinate powers, under its exponent budget;
    without it they are computed afresh under the default budget.
    Raises ValueError when exact is not the orbit of P under d.
    """
    if P.has_zero_coordinate():
        raise ZeroCoordinate("term vectors need all coordinates nonzero")
    m = validate_exp_tuple(m)
    r = len(m) - 1
    n = P.dim
    if p is None:
        p = tuple(range(r + 1))
    p = _validate_columns(p, r, n)
    # pow_table[i][k]: coordinate p(i) raised to d^{m_k}
    if exact is None:
        powers = [checked_power(d, mi) for mi in m]
        pow_table = [[P.coords[p[i]] ** e for e in powers] for i in range(r + 1)]
    else:
        check_orbits(P, d, exact)
        pow_table = [[exact.power(p[i], mk) for mk in m] for i in range(r + 1)]
    entries = []
    for sigma in symmetric_group(r):
        value = pow_table[0][sigma[0]]
        for i in range(1, r + 1):
            value = value * pow_table[i][sigma[i]]
        entries.append((sigma, perm_sign(sigma), value))
    return TermVector(r, tuple(entries))


# ----------------------------------------------------------------------
# partitions of S_{r+1}
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TermPartition:
    """A partition of S_{r+1} into disjoint blocks, canonically ordered:
    each block sorted, blocks sorted by their least permutation."""

    r: int
    blocks: tuple  # tuple of tuples of perms

    @classmethod
    def from_blocks(cls, r: int, blocks) -> "TermPartition":
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        seen = [perm for b in canon for perm in b]
        expected = symmetric_group(r)
        if sorted(seen) != expected or len(seen) != len(set(seen)):
            raise ShapeMismatch("blocks must partition the full symmetric group")
        return cls(r, canon)


def bullet_partition(r: int, t: int) -> TermPartition:
    """The partition of S_{r+1} into the r+1 blocks {sigma : sigma(j) = t}."""
    if not 0 <= t <= r:
        raise IndexOutOfRange(f"t = {t} outside 0..{r}")
    blocks = [[] for _ in range(r + 1)]
    for sigma in symmetric_group(r):
        blocks[sigma.index(t)].append(sigma)
    return TermPartition.from_blocks(r, blocks)


def classify_exceptional(part: TermPartition) -> frozenset:
    """All t such that the partition refines the bullet partition at t,
    i.e. sigma^{-1}(t) is constant on every block.  Empty means the
    partition is not exceptional."""
    out = []
    for t in range(part.r + 1):
        if all(len({sigma.index(t) for sigma in block}) == 1 for block in part.blocks):
            out.append(t)
    return frozenset(out)


# ----------------------------------------------------------------------
# finest zero-sum partition search
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionSearch:
    """Result of the exhaustive finest-partition search."""

    partition: TermPartition
    non_unique: bool


def _proper_zero_subset_exists(block: List[Perm], signed) -> bool:
    """Does the block contain a proper nonempty zero-sum subset?  It
    suffices to scan subsets containing the first element: a vanishing
    proper subset and its complement both vanish, and one of the two
    contains that element.  Gray-code order keeps the scan incremental."""
    if len(block) <= 2:
        return False  # singletons are nonzero by the term invariant
    rest = block[1:]
    total = signed[block[0]]
    full = (1 << len(rest)) - 1
    prev_gray = 0
    for i in range(1, full + 1):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        if gray >> bit & 1:
            total = total + signed[rest[bit]]
        else:
            total = total - signed[rest[bit]]
        prev_gray = gray
        if gray != full and not total:
            return True
    return False


def _zero_blocks_lex(pool: List[Perm], signed) -> Iterator[List[Perm]]:
    """Minimal zero-sum subsets of pool containing pool[0], emitted in
    lexicographic order (as sorted tuples).  Supersets of an emitted
    subset are pruned: they would carry a vanishing proper subsum."""
    first = pool[0]
    rest = pool[1:]

    def rec(start: int, chosen: List[Perm], total) -> Iterator[List[Perm]]:
        for i in range(start, len(rest)):
            new_total = total + signed[rest[i]]
            new_chosen = chosen + [rest[i]]
            if not new_total:
                if not _proper_zero_subset_exists(new_chosen, signed):
                    yield new_chosen
                # no extensions: any superset has this zero subsum
                continue
            yield from rec(i + 1, new_chosen, new_total)

    yield from rec(0, [first], signed[first])


def _partitions_lex(pool: List[Perm], signed) -> Iterator[List[List[Perm]]]:
    if not pool:
        yield []
        return
    for block in _zero_blocks_lex(pool, signed):
        block_set = set(block)
        remaining = [perm for perm in pool if perm not in block_set]
        for rest in _partitions_lex(remaining, signed):
            yield [block] + rest


def finest_zero_partition(tv: TermVector) -> PartitionSearch:
    """Exhaustive search for a partition of S_{r+1} in which every block
    has zero signed sum and no proper nonempty subsum vanishes.

    Returns the canonically least such partition; non_unique reports
    whether another valid partition exists.  Only defined when the total
    signed sum vanishes, and capped at (r+1)! <= 24 terms.
    """
    if len(tv.entries) > _MAX_SEARCH_TERMS:
        raise TooManyTerms(f"{len(tv.entries)} terms; exhaustive search capped at "
                           f"{_MAX_SEARCH_TERMS}")
    total = tv.signed_sum()
    if total is None or total:
        raise NonVanishingTotal("signed term sum is nonzero")
    signed = {perm: value * sign for perm, sign, value in tv.entries}
    pool = [perm for perm, _, _ in tv.entries]
    found = list(islice(_partitions_lex(pool, signed), 2))
    if not found:
        raise NonVanishingTotal("no zero-sum partition found (inconsistent input)")
    partition = TermPartition.from_blocks(tv.r, found[0])
    return PartitionSearch(partition, non_unique=len(found) > 1)


# ----------------------------------------------------------------------
# rank consequences and fingerprints
# ----------------------------------------------------------------------

def deleted_row_rank(A, t: int) -> int:
    """Exact rank of the iterate matrix with row t removed."""
    rows = A.rows() if hasattr(A, "rows") else [list(r) for r in A]
    if not 0 <= t < len(rows):
        raise IndexOutOfRange(f"row {t} outside 0..{len(rows) - 1}")
    return linalg.rank(rows[:t] + rows[t + 1:])


def fingerprint(P: ProjPoint, d: int, m: Sequence[int],
                partitions: Dict[Tuple[int, ...], TermPartition]) -> tuple:
    """Per-block projective normalization of the term values.

    For every column selection p (in sorted order) and every block of
    its partition (in canonical order), the value tuple is scaled so its
    first entry is 1.  Equal fingerprints for different tuples m witness
    that the normalized term data cannot separate them.
    """
    r = len(m) - 1
    out = []
    for p in sorted(partitions):
        part = partitions[p]
        if part.r != r:
            raise ShapeMismatch(f"partition for p={p} indexes r={part.r}, tuple has r={r}")
        tv = det_terms(P, d, m, p)
        values = tv.values()
        for block in part.blocks:
            lead_inv = values[block[0]].inverse()
            out.append(tuple(values[perm] * lead_inv for perm in block))
    return tuple(out)
