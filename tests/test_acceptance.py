"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its time budget."""

import json
import random
import time
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

from superspan import field, linalg
from superspan.cli import main as cli_main
from superspan.constructions import (
    cyclotomic_family,
    quadric_case_probe,
    sextic_point,
    verify_cyclotomic_family,
    verify_sextic_example,
)
from superspan.detect import enumerate_exceptional, intersection_count
from superspan.oracles import power_diff_classify
from superspan.orbit import ProjPoint, iterate_matrix
from superspan.relations import lattice_contains, relation_lattice
from superspan.subsum import (
    bullet_partition,
    classify_exceptional,
    column_selections,
    deleted_row_rank,
    det_terms,
    fingerprint,
)

class Criterion:
    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit_s else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} "
              f"({elapsed:.2f}s / limit {self.limit_s}s) - {self.description}")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.number} exceeded its {self.limit_s}s budget")
        return False


# Polynomials in a, b, c are dicts from exponent triples to nonzero
# integer coefficients.

def _power_det(exponents):
    """det[x_j^(e_i)] over x = (a, b, c) by Leibniz: the permutation s
    gives the monomial with exponent e_(s_j) on x_j and coefficient
    sign(s), which is also the sign of its inverse."""
    return {tuple(exponents[i] for i in s):
            (-1) ** sum(s[i] > s[j] for i, j in combinations(range(3), 2))
            for s in permutations(range(3))}


def _mul(f, g):
    out = {}
    for e, c in f.items():
        for e2, c2 in g.items():
            key = tuple(x + y for x, y in zip(e, e2))
            out[key] = out.get(key, 0) + c * c2
    return {e: c for e, c in out.items() if c}


def _substitute(f, i, j=None):
    """f with x_i = 0 when j is None, else with x_i = x_j, collected."""
    out = {}
    for e, c in f.items():
        if j is None and e[i]:
            continue
        key = tuple(0 if k == i else x + e[i] if k == j else x for k, x in enumerate(e))
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


A, B, C = (1, 0, 0), (0, 1, 0), (0, 0, 1)
SEVEN_FORMS = [{A: 1}, {B: 1}, {C: 1}, {A: 1, B: -1}, {B: 1, C: -1}, {C: 1, A: -1},
               {A: 1, B: 1, C: 1}]


def test_criterion_1_first_determinant_identity():
    with Criterion(1, "det(1,2,4 exponents) equals the seven-factor product", 1.0):
        assert _power_det((1, 2, 4)) == reduce(_mul, SEVEN_FORMS)


def test_criterion_2_second_determinant_cofactor():
    with Criterion(2, "det(1,8,16 exponents) = abc(a-b)(b-c)(c-a) * h, deg h = 19", 5.0):
        d = _power_det((1, 8, 16))
        assert len(d) == 6 and {sum(e) for e in d} == {25}
        # d vanishes on a = 0, b = 0, c = 0, a = b, b = c and c = a, so each
        # of a, b, c, a-b, b-c, c-a divides it.  These six linear forms are
        # pairwise non-associate primes of the UFD Z[a, b, c], so their
        # product divides d, and the quotient h is homogeneous of degree
        # 25 - 6 = 19 because d is homogeneous of degree 25.
        for i in range(3):
            assert _substitute(d, i) == {}
            assert _substitute(d, i, (i + 1) % 3) == {}


def test_criterion_3_sextic_example(capsys):
    with Criterion(3, "sextic point: four exact checks and two detected lines", 60.0):
        report = verify_sextic_example()
        assert len(report["checks"]) == 4
        assert all(c["pass"] for c in report["checks"])

        P = sextic_point()
        coords = json.dumps([[str(c) for c in v.coeffs] for v in P.coords])
        min_poly = ",".join(str(c) for c in P.ambient.min_poly)
        code = cli_main(["detect", "--point", coords,
                         "--field", f"numberfield:{min_poly}",
                         "--d", "2", "--r", "2", "--max-iter", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        preimages = [tuple(tuple(m) for m in rec["preimage"])
                     for rec in doc["subspaces"]]
        flat = {m for group in preimages for m in group}
        assert (0, 1, 2) in flat and (0, 3, 4) in flat
        assert len(doc["subspaces"]) >= 2


def test_criterion_4_cyclotomic_family():
    with Criterion(4, "cyclotomic family d=2 ell=5 tail=(2,3): pattern and spans", 30.0):
        report = verify_cyclotomic_family(2, 5, (2, 3), max_iter=20)
        assert all(c["pass"] for c in report["checks"])
        fam = cyclotomic_family(2, 5, (2, 3))
        # 2^n = 1 mod 5 iff n = 0 mod 4: six indices among 0..20
        assert intersection_count(fam.point, 2, fam.hyperplane(1), 20) == 6


def test_criterion_5_power_difference_oracle():
    with Criterion(5, "d^a - d^b = d^x - d^y forces {a,y}={b,x}, d in {2,3,5}", 10.0):
        for d in (2, 3, 5):
            assert power_diff_classify(d, 12).ok


def _rank_drop_instances():
    """Iterate matrices with root-of-unity coordinates whose rows away
    from index t coincide up to the orbit period, so every bullet block
    sum at t vanishes for every column selection."""
    instances = []
    specs = [
        # ell, d, coordinate zeta-exponents, m, t  (r = len(m) - 1)
        (5, 2, (0, 1, 2), (0, 4, 5), 2),
        (5, 2, (0, 1, 2), (0, 3, 4), 1),
        (5, 2, (0, 1, 2), (2, 3, 7), 0),
        (5, 2, (0, 1, 3), (1, 5, 6), 2),
        (5, 2, (0, 2, 3), (1, 2, 5), 1),
        (5, 3, (0, 1, 2), (0, 4, 7), 2),
        (5, 3, (0, 1, 4), (1, 2, 5), 1),
        (7, 2, (0, 1, 3), (0, 3, 4), 2),
        (7, 2, (0, 2, 3), (1, 4, 5), 2),
        (7, 2, (0, 1, 5), (2, 3, 6), 0),
        (7, 3, (0, 1, 2), (0, 6, 7), 2),
        (7, 3, (0, 2, 5), (1, 7, 9), 2),
        (11, 2, (0, 1, 5), (0, 10, 11), 2),
        (11, 2, (0, 3, 7), (1, 5, 11), 1),
        # points of P^3, r = 2: four column selections must all vanish
        (5, 2, (0, 1, 2, 3), (0, 4, 5), 2),
        (5, 2, (0, 1, 2, 3), (1, 2, 5), 1),
        (7, 2, (0, 1, 2, 4), (0, 3, 5), 2),
        # r = 3 in P^3: three remaining rows of rank exactly 2
        (5, 2, (0, 1, 2, 3), (0, 4, 5, 7), 3),
        (5, 2, (0, 1, 2, 3), (1, 5, 6, 8), 3),
        (7, 2, (0, 1, 2, 4), (0, 3, 4, 5), 3),
        (7, 3, (0, 1, 3, 5), (0, 6, 7, 9), 3),
    ]
    for ell, d, exps, m, t in specs:
        C = field.cyclotomic_field(ell)
        z = C.gen()
        P = ProjPoint(C, [z ** e if e else C.one() for e in exps])
        instances.append((P, d, m, t))
    return instances


def test_criterion_6_exceptional_rank_drop():
    with Criterion(6, "bullet block sums vanishing at t forces the rank drop", 30.0):
        instances = _rank_drop_instances()
        assert len(instances) >= 20
        for P, d, m, t in instances:
            r = len(m) - 1
            n = P.dim
            # hypothesis: every bullet block sum at t vanishes, for all p
            for p in column_selections(r, n):
                tv = det_terms(P, d, m, p)
                for block in bullet_partition(r, t).blocks:
                    assert not tv.block_sum(block), (P, d, m, t, p)
            A = iterate_matrix(P, d, m)
            assert deleted_row_rank(A, t) == r - 1, (P, d, m, t)
            assert not linalg.super_rank(A.rows()), (P, d, m, t)


def test_criterion_7_fingerprint_injectivity():
    with Criterion(7, "fingerprints: no collisions for non-exceptional families, "
                      "guaranteed collisions for bullet families", 120.0):
        P = ProjPoint.rational([1, 2, 3])
        assert relation_lattice(P).rank == 0
        r, n = 2, P.dim
        from superspan.subsum import TermPartition, symmetric_group
        mixing = TermPartition.from_blocks(
            2, [[(0, 1, 2), (1, 2, 0)], [(0, 2, 1), (1, 0, 2)],
                [(2, 0, 1), (2, 1, 0)]])
        assert classify_exceptional(mixing) == frozenset()
        single = TermPartition.from_blocks(2, [list(symmetric_group(2))])
        families = [
            {p: mixing for p in column_selections(r, n)},
            {p: single for p in column_selections(r, n)},
        ]
        rng = random.Random(20260808)
        pairs_checked = 0
        for fams in families:
            for _ in range(5000):
                m1 = tuple(sorted(rng.sample(range(9), 3)))
                while True:
                    m2 = tuple(sorted(rng.sample(range(9), 3)))
                    if m2 != m1:
                        break
                pairs_checked += 1
                assert fingerprint(P, 2, m1, fams) != fingerprint(P, 2, m2, fams), \
                    (m1, m2)
        assert pairs_checked == 10000

        collisions = 0
        for _ in range(10000):
            t = rng.randrange(3)
            bullets = {p: bullet_partition(r, t) for p in column_selections(r, n)}
            while True:
                m1 = sorted(rng.sample(range(9), 3))
                lo = m1[t - 1] + 1 if t > 0 else 0
                hi = m1[t + 1] if t < 2 else 9
                alternatives = [v for v in range(lo, hi) if v != m1[t]]
                if alternatives:
                    break
            m2 = list(m1)
            m2[t] = rng.choice(alternatives)
            assert fingerprint(P, 2, tuple(m1), bullets) == \
                fingerprint(P, 2, tuple(m2), bullets), (m1, m2, t)
            collisions += 1
        assert collisions == 10000


def _filter_suite():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    cyclo = ProjPoint(C5, [C5.one(), z, C5.from_rational(2), C5.from_rational(3)])
    return [
        (ProjPoint.rational([1, 2, -3]), 2, 2, 3),
        (ProjPoint.rational([1, 2, -3]), 2, 2, 4),
        (ProjPoint.rational([1, 2, 3]), 2, 2, 5),
        (ProjPoint.rational([1, 2, 3]), 3, 2, 4),
        (ProjPoint.rational([1, 2, 4]), 2, 2, 4),
        (ProjPoint.rational([2, 3, 5]), 2, 2, 4),
        (ProjPoint.rational([1, -1, 2]), 2, 2, 4),
        (ProjPoint.rational([1, 2, 3, 6]), 2, 2, 4),
        (ProjPoint.rational([1, 2, 3, 6]), 2, 3, 4),
        (ProjPoint.rational([1, 6, 2, 3]), 2, 3, 5),
        (sextic_point(), 2, 2, 4),
        (cyclo, 2, 3, 5),
    ]


def test_criterion_8_filter_soundness():
    with Criterion(8, "filtered and unfiltered detection reports identical", 120.0):
        suite = _filter_suite()
        assert len(suite) >= 10
        for P, d, r, M in suite:
            fast = enumerate_exceptional(P, d, r, M)
            slow = enumerate_exceptional(P, d, r, M, prime_count=0)
            assert fast.semantic_content() == slow.semantic_content(), (d, r, M)


def test_criterion_9_relation_lattices():
    with Criterion(9, "relation lattice examples and small-exponent completeness", 10.0):
        assert relation_lattice(ProjPoint.rational([1, 2, 3, 5])).rank == 0
        L = relation_lattice(ProjPoint.rational([1, 2, 3, 6]))
        assert L.basis == ((1, -1, -1, 1),)
        Lq = relation_lattice(ProjPoint.rational([1, 6, 2, 3]))
        assert lattice_contains(Lq, (1, 1, -1, -1))
        from itertools import product as iproduct
        for coords in ([1, 2, 3, 5], [1, 2, 3, 6], [1, 6, 2, 3]):
            lat = relation_lattice(ProjPoint.rational(coords))
            for e in iproduct(range(-3, 4), repeat=4):
                if sum(e) != 0:
                    continue
                prod = Fraction(1)
                for c, k in zip(coords, e):
                    prod *= Fraction(c) ** k
                if prod == 1:
                    assert lattice_contains(lat, e), (coords, e)


def test_criterion_10_quadric_probe():
    with Criterion(10, "quadric case analysis on [1,6,2,3], entries <= 6", 60.0):
        report = quadric_case_probe(ProjPoint.rational([1, 6, 2, 3]), 2, 6)
        assert report["counterexamples"] == []
        assert report["checked"] > 0
