"""End-to-end detection of super-spanned subspaces.

enumerate_exceptional walks every strictly increasing (r+1)-tuple of
iterate indices up to a bound M, discards tuples whose iterate matrix is
certified full-rank by the modular filter, confirms the survivors with
exact super-rank checks, groups the confirmed tuples by the canonical
form of their span, and counts how many orbit points up to M each
resulting subspace contains.  The tuples are taken by their first r - 1
indices: per prime, the modular filter reduces each later row against
the rows of that prefix, and a pair of later rows leaves the tuple
uncertified only when their residuals are dependent.  At the first
prime a prefix shares its parent's residuals, so the filter costs one
elimination step mod p per index and prefix, not one rank check per
tuple.
The count reuses the filter's residue rows and its elimination kernel:
per filter prime, the rows of the iterates still candidates are reduced
against L's basis, an iterate is certified off L when its residual is
nonzero, and only the remaining candidates are tested exactly.
Confirmation, grouping and the count share one ExactOrbit, which
computes each coordinate power at most once; a tuple repeating an orbit
point (r >= 2) needs no elimination.

A preperiodic orbit (every coordinate a root of unity) has finitely
many distinct points.  A filtered run at r >= 2 works over those, the
indices 0..M' below the first repeat, and expands its results back to
index tuples, so its cost depends on the period, not on M, and no
exponent past the period is formed.  The exact_checked diagnostic
counts the tuples up to M that the filter leaves uncertified, whether
or not each one reached an exact check.

Finiteness of the set of such subspaces comes with no effective bound
on the largest iterate index involved, so results are always reported
relative to the explicit bound M; tuples skipped because exact
materialization would blow the exponent budget are listed in the
diagnostics rather than silently dropped.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations, product
from math import comb, prod
from typing import Iterator, List, Optional

from . import subsum
from .errors import BadPrime, ExponentBudgetExceeded, Unsupported, ZeroCoordinate
from .field import is_prime
from .linalg import (Subspace, eliminate_mod_p, modular_rank_filter, span_canonical,
                     super_rank)
from .orbit import ExactOrbit, ModularOrbit, ProjPoint, check_ambient, check_orbits

DEFAULT_FILTER_PRIME_COUNT = 3
# each filter prime costs a reduction of every coordinate and subspace
# basis, and the stream never yields past its about 2.7e7 primes
MAX_FILTER_PRIME_COUNT = 100
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

    With the run's orbit, each filter prime maps L's basis to F_p and
    reduces against it the rows of the iterates still candidates
    (eliminate_mod_p); an iterate stays a candidate only while its
    residual is zero.  The map to F_p is a ring homomorphism, so it takes
    a point of L into the span of the image of L's basis.  That basis is
    in RREF, so its image keeps all L.rank pivots; a prime dividing a
    denominator of L is skipped for this L.  Only the candidates left
    are materialized, from the run's exact orbit or else from a fresh
    one under the default budget, so the exponent budget limits only
    them: ExponentBudgetExceeded means that an iterate past the budget
    could not be certified off L.
    When the orbit is preperiodic (ExactOrbit.period), only its distinct
    iterates 0..M' are tested, each weighed by the number of indices up
    to M that it stands for.
    Raises ValueError when orbit or exact is not the orbit of P under d,
    and DimensionMismatch when L is not a subspace of P's space.
    """
    check_orbits(P, d, orbit, exact)
    check_ambient(P, L)
    if exact is None:
        exact = ExactOrbit(P, d)
    classes = _index_classes(exact.period(), max_iter)
    candidates = range(len(classes))  # the distinct iterates not certified off L
    for p in (orbit.primes if orbit is not None else ()):
        try:
            basis = [[orbit.image(p, v) for v in row] for row in L.basis]
        except BadPrime:
            continue
        residuals = eliminate_mod_p(basis + [orbit.row(p, i) for i in candidates], p, L.rank)
        if residuals is not None:
            candidates = [i for i, res in zip(candidates, residuals) if not any(res)]
    return sum(len(classes[i]) for i in candidates if exact.member(i, L))


def _index_classes(period: Optional[tuple], max_iter: int) -> list:
    """Entry i holds the indices 0..max_iter of the iterates equal to
    iterate i, for the distinct iterates i: each index alone without a
    period, and i, i + t, i + 2t, ... for s <= i < s + t with period (s, t)."""
    if period is None:
        return [range(i, i + 1) for i in range(max_iter + 1)]
    s, t = period
    return [range(i, max_iter + 1, t) if i >= s else range(i, i + 1)
            for i in range(min(max_iter, s + t - 1) + 1)]


def _expand(classes: list, tuples) -> list:
    """The index tuples whose iterates are those of the tuples, which
    index distinct iterates: the sorted products of their classes, in
    lexicographic order."""
    return sorted(tuple(sorted(m)) for reps in tuples
                  for m in product(*(classes[i] for i in reps)))


def _distinct_tuple_count(classes: list, k: int) -> int:
    """The number of k-tuples of indices in k distinct classes: the
    elementary symmetric polynomial of degree k in the class sizes."""
    e = [1] + [0] * k
    for indices in classes:
        for j in range(k, 0, -1):
            e[j] += e[j - 1] * len(indices)
    return e[k]


def enumerate_exceptional(P: ProjPoint, d: int, r: int, max_iter: int,
                          prime_count: int = DEFAULT_FILTER_PRIME_COUNT,
                          seed: int = DEFAULT_SEED,
                          budget: Optional[int] = None) -> ExceptionalReport:
    """Detect every subspace super-spanned by iterates with indices <= M.

    The filter uses the first prime_count primes of the seeded stream
    that are usable for P (see ModularOrbit).  prime_count 0 turns the
    filter off: every tuple is checked exactly, the reference run the
    filtered runs must agree with.  Raises ValueError for a prime_count
    outside 0..MAX_FILTER_PRIME_COUNT, before any prime is drawn.

    A filtered run at r >= 2 on a preperiodic orbit (ExactOrbit.period)
    filters, confirms and groups only the tuples of distinct iterates,
    indices 0..M' with M' = min(M, s + t - 1), and expands the results
    back to index tuples; the counts weigh each iterate by its class.
    A tuple repeating a point has rank at most r, so it is never
    certified and never super-spans; a tuple of distinct points shares
    its verdicts with its set of rows.  So the report is the one the
    whole run gives, and its cost depends on the period, not on M.
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
    if prime_count > MAX_FILTER_PRIME_COUNT:
        raise ValueError(f"filter prime count {prime_count} exceeds the cap "
                         f"{MAX_FILTER_PRIME_COUNT}")
    exact = ExactOrbit(P, d, budget)
    orbit = ModularOrbit(P, d, _prime_stream(seed), prime_count) if prime_count else None
    # entry i: the indices whose iterate is iterate i, for i <= top
    classes = _index_classes(exact.period() if orbit is not None and r >= 2 else None,
                             max_iter)
    top = len(classes) - 1

    if orbit is None:
        survivors = combinations(range(top + 1), r + 1)
    else:
        # one call returns one prefix's survivors in lexicographic order,
        # so prefixes in lexicographic order keep the whole run in it
        survivors = chain.from_iterable(
            modular_rank_filter(orbit, prefix, top)
            for prefix in combinations(range(top - 1), r - 1))
    found: List[tuple] = []
    skipped = []
    # the filter leaves uncertified every tuple that repeats a point, and
    # each tuple of distinct points whose set of points is a survivor's
    exact_checked = comb(max_iter + 1, r + 1) - _distinct_tuple_count(classes, r + 1)
    for m in survivors:
        exact_checked += prod(len(classes[i]) for i in m)
        try:
            if super_rank(exact.rows(m)):
                found.append(m)
        except ExponentBudgetExceeded as exc:
            skipped.append({"tuple": list(m), "reason": str(exc)})

    # tuples are found in lexicographic order, and each is the least of
    # its expansion, so the groups' insertion order is the order of their
    # least preimage tuples
    groups = {}
    for m in found:
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
        records.append(SubspaceRecord(L, tuple(_expand(classes, preimage)), hits))

    confirmed = _expand(classes, found)
    tuples_total = comb(max_iter + 1, r + 1)
    diagnostics = {
        "tuples_total": tuples_total,
        # every tuple is either filtered out or checked exactly
        "filtered": tuples_total - exact_checked,
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
