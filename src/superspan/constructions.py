"""Generators and verifiers for the worked examples: the sextic point
with two exceptional lines, the cyclotomic hyperplane families, and the
quadric-relation case analysis probe.

Everything here is exact; the only non-exact element is a heuristic
warning about multiplicative dependence of cyclotomic-family tails,
which is decidable for rationals (prime exponent kernel) but only
advisory in spirit because the construction is stated for arbitrary
multiplicatively independent tails.  The super-spanning of a cyclotomic
hyperplane is proved without building an iterate: exact membership
bounds the rank above, and ranks modulo primes, images under a ring
homomorphism, bound it below; whole iterates are built only where that
certificate fails.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, permutations
from operator import itemgetter, sub
from typing import List, Optional, Sequence

from . import linalg
from .errors import (
    AllPrimesBad,
    DegenerateModulus,
    NonPrime,
    NotPrimitiveRoot,
    OffQuadric,
    WrongRelationRank,
    ZeroTail,
)
from .field import FieldDesc, cyclotomic_field, is_prime, monicize, number_field
from .linalg import Subspace, eliminate_mod_p, span_canonical
from .orbit import SCREEN_PRIMES_FROM, ExactOrbit, ModularOrbit, ProjPoint
from .relations import lattice_reduce, relation_lattice

# the degree-6 example polynomial, raw integer form 2x^6+6x^5+5x^4+5x^2+6x+2
SEXTIC_RAW = (2, 6, 5, 0, 5, 6, 2)


def sextic_field() -> FieldDesc:
    """Q[x]/(g) for the monic normalization of the example sextic."""
    return number_field(monicize(list(reversed(SEXTIC_RAW))))


def sextic_point() -> ProjPoint:
    """The example point [alpha, -1-alpha, 1] with alpha the class of x."""
    K = sextic_field()
    alpha = K.gen()
    beta = -K.one() - alpha
    return ProjPoint(K, [alpha, beta, K.one()])


# ----------------------------------------------------------------------
# primitive roots and cyclotomic families
# ----------------------------------------------------------------------

def is_primitive_root(d: int, ell: int) -> bool:
    """True iff d generates the full multiplicative group mod ell."""
    if ell < 3 or ell % 2 == 0 or not is_prime(ell):
        raise NonPrime(f"{ell} is not an odd prime")
    if d % ell == 0:
        raise DegenerateModulus(f"{d} is 0 mod {ell}")
    value = d % ell
    order = 1
    acc = value
    while acc != 1:
        acc = acc * value % ell
        order += 1
    return order == ell - 1


def _warn_if_tail_dependent(tail: Sequence[Fraction]) -> None:
    # exact for rationals: a multiplicative relation among the tail
    # entries is a relation of the point [1, tail...], whose coordinate 0
    # absorbs the sum-zero condition
    if relation_lattice(ProjPoint.rational([1, *tail])).rank:
        warnings.warn("cyclotomic family tail is multiplicatively dependent; "
                      "the Zariski-density hypothesis fails", stacklevel=3)


@dataclass(frozen=True)
class CyclotomicFamily:
    """The point [1, zeta_ell, tail...] together with the hyperplanes
    x_1 = zeta^i x_0 that its orbit keeps revisiting."""

    ell: int
    d: int
    tail: tuple
    point: ProjPoint
    hyperplanes: tuple  # index i-1 holds H_i, 0 < i < ell

    def hyperplane(self, i: int) -> Subspace:
        return self.hyperplanes[i - 1]

    def return_index(self, i: int) -> int:
        """The least n with d^n = i mod ell."""
        acc = 1
        for n in range(self.ell - 1):
            if acc == i % self.ell:
                return n
            acc = acc * self.d % self.ell
        raise ValueError(f"{i} is not a power of {self.d} mod {self.ell}")


def cyclotomic_family(d: int, ell: int, tail: Sequence) -> CyclotomicFamily:
    """Construct the family of exceptional hyperplanes for [1, zeta, tail]."""
    C = cyclotomic_field(ell)  # checks ell before is_primitive_root loops up to it
    if not is_primitive_root(d, ell):
        raise NotPrimitiveRoot(f"{d} is not a primitive root mod {ell}")
    tail = tuple(Fraction(t) for t in tail)
    if any(t == 0 for t in tail):
        raise ZeroTail("tail entries must be nonzero")
    if tail:
        _warn_if_tail_dependent(tail)
    zeta = C.gen()
    coords = [C.one(), zeta] + [C.from_rational(t) for t in tail]
    point = ProjPoint(C, coords)
    n = len(coords) - 1
    # the rows (1, zeta^i, 0, ..., 0), e_2, ..., e_n of H_i are in RREF
    zeros = (C.zero(),) * (n - 1)
    units = tuple(tuple(C.one() if j == k else C.zero() for j in range(n + 1))
                  for k in range(2, n + 1))
    hyperplanes = tuple(Subspace(n, ((C.one(), zeta ** i, *zeros), *units))
                        for i in range(1, ell))
    return CyclotomicFamily(ell, d, tail, point, hyperplanes)


def verify_cyclotomic_family(d: int, ell: int, tail: Sequence,
                             max_iter: int = 20, budget: Optional[int] = None) -> dict:
    """Verification of the family's membership pattern and of the
    super-spanning of each hyperplane H_i by the n+1 orbit points
    base + k(ell - 1), k = 0..n, where d^base = i mod ell.

    Membership is exact and reads only coordinates 0 and 1 of an iterate
    (see ExactOrbit.member), so the tail is never raised to d^m.  The
    super-spanning of H_i is settled by a certificate that builds no
    iterate either: the n+1 rows lie on H_i, of rank n, so they have rank
    at most n, and when every n of them have rank n modulo some prime of a
    ModularOrbit of the point, they have rank n exactly, as reduction is a
    ring homomorphism.  Then the rows super-span, and their span is H_i.
    Rows on H_i of a point with two equal coordinates do not super-span,
    which needs no row either: n of them lie on H_i and on x_j = x_k, of
    rank n - 1.  For even d so do coordinates equal up to sign, equal in
    every iterate but iterate 0, which at most one row is.  Any other
    hyperplane that the certificate leaves open (a row off H_i, an
    n-subset of lower rank at every prime, no usable prime) takes the
    exact path: the whole iterates, super_rank and span_canonical.

    An iterate whose exponent d^m exceeds the budget raises
    ExponentBudgetExceeded, and a max_iter below 0, which leaves no
    iterate to check, ValueError."""
    if max_iter < 0:
        raise ValueError(f"max_iter {max_iter} must be >= 0, or no iterate is checked")
    family = cyclotomic_family(d, ell, tail)
    P = family.point
    n = P.dim
    orbit = ExactOrbit(P, d, budget)
    checks = []

    pattern_ok = True
    detail = f"phi^n(P) in H_i iff d^n = i mod {ell}, for 0 <= n <= {max_iter}"
    for m in range(max_iter + 1):
        residue = pow(d, m, ell)
        for i in range(1, ell):
            member = orbit.member(m, family.hyperplane(i))
            if member != (residue == i):
                pattern_ok = False
                detail = f"pattern fails at n={m}, i={i}"
    checks.append({"name": "membership_pattern", "pass": pattern_ok, "detail": detail})

    try:
        modular = ModularOrbit(P, d, filter(is_prime, count(SCREEN_PRIMES_FROM, 2)), 2)
    except AllPrimesBad:
        modular = None
    # x0 = 1 and the tail: two equal coordinates stay equal in every
    # iterate, and for even d two equal up to sign from iterate 1 on
    repeated = len({1, *(map(abs, family.tail) if d % 2 == 0 else family.tail)}) < n
    span_ok = True
    detail = f"each H_i super-spanned by {n + 1} orbit points"
    for i in range(1, ell):
        base = family.return_index(i)
        indices = [base + k * (ell - 1) for k in range(n + 1)]
        on_hyperplane = all(orbit.member(m, family.hyperplane(i)) for m in indices)
        if on_hyperplane and not repeated and _subsets_certified(modular, indices, n):
            continue
        # rows on H_i and on x_j = x_k have rank at most n - 1
        if (on_hyperplane and repeated) or not linalg.super_rank(rows := orbit.rows(indices)):
            span_ok = False
            detail = f"H_{i}: iterates {indices} do not super-span"
            continue
        if span_canonical(rows) != family.hyperplane(i):
            span_ok = False
            detail = f"H_{i}: span of iterates {indices} is not H_{i}"
    checks.append({"name": "superspanned_hyperplanes", "pass": span_ok,
                   "detail": detail})
    return {"checks": checks}


def _subsets_certified(orbit: Optional[ModularOrbit], indices: Sequence[int], r: int) -> bool:
    """True iff every r of the iterates have rank r modulo some prime of
    the orbit, which proves rank r exactly; False without an orbit."""
    return orbit is not None and all(
        any(eliminate_mod_p([orbit.row(p, m) for m in subset], p, r) is not None
            for p in orbit.primes)
        for subset in combinations(indices, r))


# ----------------------------------------------------------------------
# the sextic example
# ----------------------------------------------------------------------

def verify_sextic_example() -> dict:
    """Exact verification of the example point with two exceptional lines.

    Checks: (i) the monic sextic g satisfies g(-1-x) = g(x), so beta =
    -1-alpha is again a root; (ii) alpha + beta + gamma = 0, which kills
    the (1,2,4)-exponent determinant through its linear factor; (iii)
    the (1,8,16)-exponent determinant vanishes exactly in the number
    field; (iv) the coordinates are pairwise distinct and nonzero.
    """
    g = [Fraction(c) for c in monicize(list(reversed(SEXTIC_RAW)))]
    checks = []

    # g(-1-x) and g(x) have degree 6, so they are equal iff they agree
    # at the 7 points t = 0, ..., 6
    differ = [t for t in range(len(g))
              if sum(c * ((-1 - t) ** k - t ** k) for k, c in enumerate(g))]
    checks.append({"name": "beta_root_closure", "pass": not differ,
                   "detail": f"g(-1-t) != g(t) at t = {differ[0]}" if differ
                   else "g(-1-x) == g(x)"})

    P = sextic_point()
    alpha, beta, gamma = P.coords
    total = alpha + beta + gamma
    checks.append({"name": "coordinate_sum_zero", "pass": total.is_zero(),
                   "detail": "alpha + beta + gamma == 0"})

    d_val = linalg.det(ExactOrbit(P, 2).rows((0, 3, 4)))  # exponents 1, 8, 16
    checks.append({"name": "second_determinant_vanishes", "pass": d_val.is_zero(),
                   "detail": "det of the (1,8,16)-exponent matrix in K"})

    distinct = (alpha != beta and beta != gamma and alpha != gamma
                and not alpha.is_zero() and not beta.is_zero()
                and not gamma.is_zero())
    checks.append({"name": "coordinates_distinct_nonzero", "pass": distinct,
                   "detail": "alpha, beta, gamma pairwise distinct and nonzero"})
    return {"checks": checks}


# ----------------------------------------------------------------------
# the quadric-relation probe
# ----------------------------------------------------------------------

def quadric_case_probe(P: ProjPoint, d: int, bound: int) -> dict:
    """Computational check of the case analysis for points on the quadric
    x0 x1 = x2 x3 whose relation lattice is generated by (1,1,-1,-1).

    For every ordered pair of distinct increasing 4-tuples with entries
    up to the bound and every pair of permutations, the exponent-gap
    vector v must stay outside the lattice when the permutations share
    no fixed point (otherwise the tuples would be forced equal), and
    inside the lattice only as the zero vector when they do share one.
    Any violation is reported as a counterexample, in the order of (m,
    m_tilde, sigma, tau) by index.  The bound must be at least 4, so that
    two such tuples exist, and at most 12.  The report counts C(bound + 1,
    4) * (C(bound + 1, 4) - 1) * 576 checks, but the work is linear in the
    tuple count: 276 lattice reductions per tuple.
    """
    if d < 2:
        raise ValueError("power map degree must be >= 2")
    if bound < 4:
        raise ValueError(f"bound {bound} must be at least 4, or no two 4-tuples exist")
    if bound > 12:
        raise ValueError(f"bound {bound} is capped at 12")
    coords = [c.as_rational() for c in P.coords]
    if len(coords) != 4:
        raise OffQuadric("quadric probe expects a point of P^3")
    lattice = relation_lattice(P)
    if lattice.basis != ((1, 1, -1, -1),):
        raise WrongRelationRank(
            f"relation lattice has basis {lattice.basis}; expected ((1, 1, -1, -1),)")
    if coords[0] * coords[1] != coords[2] * coords[3]:
        # implied by the lattice check; kept as a defensive invariant
        raise OffQuadric("point does not satisfy x0*x1 = x2*x3")

    perms = list(permutations(range(4)))
    tuples = list(combinations(range(bound + 1), 4))
    powers = [[d ** e for e in m] for m in tuples]
    # v = E(m) - E(m_tilde) with E(m) = k o sigma - k o tau, so v lies in
    # the lattice iff E(m) and E(m_tilde) reduce to the same representative,
    # and v = 0 iff E(m) = E(m_tilde).  (tau, sigma) negates E and v, so it
    # has the same hits; sigma = tau has fixed points and gives v = 0.
    hits = []
    for a, b in combinations(range(len(perms)), 2):
        sigma, tau = perms[a], perms[b]
        fixed_point_free = all(s != t for s, t in zip(sigma, tau))
        case = "fixed_point_free" if fixed_point_free else "common_fixed_point"
        at_sigma, at_tau = itemgetter(*sigma), itemgetter(*tau)
        buckets = {}
        for i, k in enumerate(powers):
            e = tuple(map(sub, at_sigma(k), at_tau(k)))
            rep = tuple(lattice_reduce(lattice, e))
            buckets.setdefault(rep, {}).setdefault(e, []).append(i)
        for classes in buckets.values():
            if len(classes) == 1 and not fixed_point_free:
                continue
            for e, group in classes.items():
                partners = [j for e2, group2 in classes.items()
                            if fixed_point_free or e2 != e for j in group2]
                for i in group:
                    for j in partners:
                        if j != i:
                            hits.append((i, j, a, b, case))
                            hits.append((i, j, b, a, case))
    hits.sort()
    counterexamples = []
    for i, j, a, b, case in hits:
        m, mt, sigma, tau = tuples[i], tuples[j], perms[a], perms[b]
        counterexamples.append({"m": list(m), "m_tilde": list(mt),
                                "sigma": list(sigma), "tau": list(tau),
                                "v": exponent_gap_vector(d, m, mt, sigma, tau),
                                "case": case})
    checked = len(tuples) * (len(tuples) - 1) * len(perms) ** 2
    return {
        "space": f"tuples with entries <= {bound}, all sigma/tau in S_4, d = {d}",
        "checked": checked,
        "counterexamples": counterexamples,
    }


def exponent_gap_vector(d: int, m: Sequence[int], m_tilde: Sequence[int],
                        sigma, tau) -> List[int]:
    """The vector whose membership in R(P) the probe tests:
    component i is k_{sigma(i)} + kt_{tau(i)} - k_{tau(i)} - kt_{sigma(i)}."""
    k = [d ** mi for mi in m]
    kt = [d ** mi for mi in m_tilde]
    return [k[sigma[i]] + kt[tau[i]] - k[tau[i]] - kt[sigma[i]] for i in range(len(m))]
