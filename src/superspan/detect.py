"""End-to-end detection of super-spanned subspaces.

enumerate_exceptional walks every strictly increasing (r+1)-tuple of
iterate indices up to a bound M, discards tuples whose iterate matrix is
certified full-rank by the modular filter, confirms the survivors with
exact super-rank checks, groups the confirmed tuples by the canonical
form of their span, and counts how many orbit points up to M each
resulting subspace contains.  The modular filter keeps, per prime, the
echelon basis of each tuple's first r rows and reuses it for every tuple
of the same prefix, so a tuple mostly costs one row reduction mod p.
The count reuses the filter's residue rows and its elimination kernel:
L's basis is echeloned once per filter prime, an iterate is certified
off L when its row leaves a nonzero residual against it, and only the
remaining candidates are tested exactly.  Confirmation, grouping and
the count share one ExactOrbit, which computes each coordinate power at
most once; a tuple repeating an orbit point (r >= 2) needs no
elimination.

Finiteness of the set of such subspaces comes with no effective bound
on the largest iterate index involved, so results are always reported
relative to the explicit bound M; tuples skipped because exact
materialization would blow the exponent budget are listed in the
diagnostics rather than silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb
from typing import Iterator, List, Optional

from . import subsum
from .errors import BadPrime, ExponentBudgetExceeded, Unsupported, ZeroCoordinate
from .field import is_prime
from .linalg import (Subspace, echelon_mod_p, modular_rank_filter, residual_mod_p,
                     span_canonical, super_rank)
from .orbit import ExactOrbit, ModularOrbit, ProjPoint, check_orbits

DEFAULT_FILTER_PRIME_COUNT = 3
DEFAULT_SEED = 0


def _prime_stream(seed: int) -> Iterator[int]:
    """Distinct pseudo-random 30-bit primes, deterministic in the seed."""
    rng = random.Random(seed)
    seen = set()
    while True:
        candidate = rng.randrange(1 << 29, 1 << 30) | 1
        if is_prime(candidate) and candidate not in seen:
            seen.add(candidate)
            yield candidate


@dataclass(frozen=True)
class SubspaceRecord:
    subspace: Subspace
    preimage: tuple            # the tuples m with span L_m equal to this subspace
    intersection_count: int    # orbit points among iterates 0..M lying on it


@dataclass(frozen=True)
class ExceptionalReport:
    point: ProjPoint
    d: int
    r: int
    max_iter: int
    tuples: tuple              # all confirmed tuples, lexicographic
    subspaces: tuple           # SubspaceRecord, ordered by least preimage tuple
    diagnostics: dict = dc_field(default_factory=dict)

    def semantic_content(self):
        """Everything except run diagnostics; used to compare filtered
        and unfiltered runs."""
        return (self.tuples,
                tuple((rec.subspace, rec.preimage, rec.intersection_count)
                      for rec in self.subspaces))


def intersection_count(P: ProjPoint, d: int, L: Subspace, max_iter: int,
                       orbit: Optional[ModularOrbit] = None,
                       exact: Optional[ExactOrbit] = None) -> int:
    """Number of iterate indices 0 <= m <= max_iter with the iterate on L.

    With the run's orbit, L's basis is mapped to F_p and echeloned once
    per filter prime, and iterate m is off L when its residue row leaves
    a nonzero residual against that echelon basis: the map to F_p is a
    ring homomorphism, so it takes a point of L into the span of the
    image of L's basis.  That basis is in RREF, so its image keeps all
    L.rank pivots; a prime dividing a denominator of L is skipped for
    this L.  Only the other iterates are materialized, from the run's
    exact orbit or else from a fresh one under the default budget, so
    the exponent budget limits only them: ExponentBudgetExceeded means
    that an iterate past the budget could not be certified off L.
    Raises ValueError when orbit or exact is not the orbit of P under d.
    """
    check_orbits(P, d, orbit, exact)
    if exact is None:
        exact = ExactOrbit(P, d)
    reduced = {}  # usable prime -> echelon basis of L mod p
    for p in (orbit.primes if orbit is not None else ()):
        try:
            reduced[p] = echelon_mod_p([[orbit.image(p, v) for v in row] for row in L.basis], p)
        except BadPrime:
            pass
    count = 0
    for m in range(max_iter + 1):
        if any(any(residual_mod_p(basis, orbit.row(p, m), p))
               for p, basis in reduced.items()):
            continue
        if exact.member(m, L):
            count += 1
    return count


def enumerate_exceptional(P: ProjPoint, d: int, r: int, max_iter: int,
                          prime_count: int = DEFAULT_FILTER_PRIME_COUNT,
                          seed: int = DEFAULT_SEED,
                          budget: Optional[int] = None) -> ExceptionalReport:
    """Detect every subspace super-spanned by iterates with indices <= M.

    The filter uses the first prime_count primes of the seeded stream
    that are usable for P (see ModularOrbit).  prime_count 0 turns the
    filter off: every tuple is checked exactly, the reference run the
    filtered runs must agree with.
    """
    n = P.dim
    if r == 0:
        raise Unsupported("r = 0 is not defined for super-spanning")
    if not 1 <= r <= n:
        raise Unsupported(f"r = {r} outside 1..{n}")
    if P.has_zero_coordinate():
        raise ZeroCoordinate("detection needs all coordinates nonzero")
    if max_iter < r:
        raise ValueError(f"iterate bound {max_iter} cannot host an (r+1)-tuple")
    if prime_count < 0:
        raise ValueError(f"filter prime count {prime_count} is negative")
    exact = ExactOrbit(P, d, budget)
    orbit = ModularOrbit(P, d, _prime_stream(seed), prime_count) if prime_count else None

    confirmed: List[tuple] = []
    skipped = []
    filtered_out = 0
    exact_checked = 0
    for m in combinations(range(max_iter + 1), r + 1):
        if orbit is not None and modular_rank_filter(orbit, m, r).certified:
            filtered_out += 1
            continue
        exact_checked += 1
        try:
            if super_rank(exact.rows(m)):
                confirmed.append(m)
        except ExponentBudgetExceeded as exc:
            skipped.append({"tuple": list(m), "reason": str(exc)})

    # confirmed tuples arrive in lexicographic order, so the groups'
    # insertion order is the order of their least preimage tuples
    groups = {}
    for m in confirmed:
        groups.setdefault(span_canonical(exact.rows(m)), []).append(m)

    records = []
    for L, preimage in groups.items():
        try:
            hits = intersection_count(P, d, L, max_iter, orbit, exact)
        except ExponentBudgetExceeded as exc:
            hits = -1
            # each basis entry as the report writes field values
            skipped.append({"subspace": [[list(map(str, v.coeffs)) for v in row]
                                         for row in L.basis],
                            "reason": str(exc)})
        records.append(SubspaceRecord(L, tuple(preimage), hits))

    diagnostics = {
        "tuples_total": comb(max_iter + 1, r + 1),
        "filtered": filtered_out,
        "exact_checked": exact_checked,
        "confirmed": len(confirmed),
        "skipped": skipped,
        "filter_enabled": orbit is not None,
        "primes": orbit.primes if orbit is not None else [],
        # the heuristic count of subspaces a generic point can be made to
        # produce; informational only
        "generic_expectation": n // (n - r + 1),
        "partition_analyses": [_analyze_tuple(P, d, m, r, n, exact)
                               for m in confirmed],
    }
    if r == 1 and confirmed:
        # two iterates super-spanning a single point means they coincide
        diagnostics["preperiodicity_witness"] = True
    return ExceptionalReport(P, d, r, max_iter, tuple(confirmed),
                             tuple(records), diagnostics)


def _analyze_tuple(P, d, m, r, n, exact) -> dict:
    """Subsum diagnostics for one confirmed tuple: which bullet
    partitions have all block sums vanishing, per column selection, plus
    the finest zero partition when the exhaustive search is cheap."""
    per_p = {}
    for p in subsum.column_selections(r, n):
        tv = subsum.det_terms(P, d, m, p, exact=exact)
        vanishing_t = [t for t in range(r + 1)
                       if all(not tv.block_sum(block)
                              for block in subsum.bullet_partition(r, t).blocks)]
        entry = {"bullet_vanishing_t": vanishing_t}
        if r <= 2:
            result = subsum.finest_zero_partition(tv)
            entry["finest_blocks"] = [[list(s) for s in block]
                                      for block in result.partition.blocks]
            entry["non_unique"] = result.non_unique
            entry["exceptional_for"] = sorted(
                subsum.classify_exceptional(result.partition))
        per_p[",".join(str(x) for x in p)] = entry
    return {"tuple": list(m), "per_p": per_p}
