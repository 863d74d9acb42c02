"""Brute-force oracles, intentionally naive so they are obviously
correct.  They validate the optimized paths at desk scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .errors import TooManyTerms
from .subsum import TermVector

_MAX_BRUTEFORCE_TERMS = 24


@dataclass(frozen=True)
class OracleResult:
    space: str
    checked: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def power_diff_classify(d: int, bound: int) -> OracleResult:
    """Check by full enumeration that d^a - d^b = d^x - d^y forces
    {a, y} = {b, x} for all exponents up to the bound."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if bound < 0:
        raise ValueError("enumeration bound must be >= 0")
    if bound > 20:
        raise ValueError("enumeration bound capped at 20")
    powers = [d ** k for k in range(bound + 1)]
    bad = []
    checked = 0
    for a in range(bound + 1):
        for b in range(bound + 1):
            diff = powers[a] - powers[b]
            for x in range(bound + 1):
                for y in range(bound + 1):
                    checked += 1
                    if powers[x] - powers[y] == diff:
                        if {a, y} != {b, x}:
                            bad.append((a, b, x, y))
    return OracleResult(f"d={d}, exponents 0..{bound}", checked, tuple(bad))


def vanishing_subsum_bruteforce(tv) -> List[tuple]:
    """Every nonempty proper subset with zero signed sum, exhaustively.

    Accepts a TermVector (subsets reported as tuples of permutations) or
    any sequence of already-signed values (subsets reported as index
    tuples).  Serves as the independent oracle for the finest-partition
    search.
    """
    if isinstance(tv, TermVector):
        labels = [perm for perm, _, _ in tv.entries]
        signed = [value * sign for perm, sign, value in tv.entries]
    else:
        labels = list(range(len(tv)))
        signed = list(tv)
    k = len(signed)
    if k > _MAX_BRUTEFORCE_TERMS:
        raise TooManyTerms(f"{k} terms; brute force capped at {_MAX_BRUTEFORCE_TERMS}")
    if k == 0:
        return []
    hits = []
    full = (1 << k) - 1
    total = signed[0] * 0  # zero of whatever value type is in play
    prev_gray = 0
    for i in range(1, full + 1):
        gray = i ^ (i >> 1)
        bit = (gray ^ prev_gray).bit_length() - 1
        if gray >> bit & 1:
            total = total + signed[bit]
        else:
            total = total - signed[bit]
        prev_gray = gray
        if gray != full and not total:
            hits.append(gray)
    subsets = [tuple(labels[j] for j in range(k) if mask >> j & 1) for mask in hits]
    subsets.sort()
    return subsets
