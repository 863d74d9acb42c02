import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings, strategies as st

from superspan import field, linalg
from superspan.errors import (
    ExponentBudgetExceeded,
    IndexOutOfRange,
    NonVanishingTotal,
    ShapeMismatch,
    TooManyTerms,
    ZeroCoordinate,
)
from superspan.oracles import vanishing_subsum_bruteforce
from superspan.orbit import ExactOrbit, ProjPoint, iterate_matrix
from superspan.subsum import (
    TermPartition,
    TermVector,
    bullet_partition,
    classify_exceptional,
    column_selections,
    deleted_row_rank,
    det_terms,
    fingerprint,
    finest_zero_partition,
    perm_sign,
    symmetric_group,
)

Q = field.rational_field()
P123 = ProjPoint.rational([1, 2, 3])
P12m3 = ProjPoint.rational([1, 2, -3])


def make_tv(signed_values):
    """TermVector over Q from a list of already-signed rational values,
    labeled by the first len(values) permutations of a big enough r."""
    r = {1: 0, 2: 1, 6: 2, 24: 3}[len(signed_values)]
    perms = symmetric_group(r)
    entries = []
    for perm, v in zip(perms, signed_values):
        sign = perm_sign(perm)
        entries.append((perm, sign, Q.from_rational(Fraction(v) * sign)))
    return TermVector(r, tuple(entries))


def test_det_terms_values():
    tv = det_terms(P12m3, 2, (0, 1, 2))
    signed = {perm: (value * sign).as_rational() for perm, sign, value in tv.entries}
    assert signed == {
        (0, 1, 2): 324,
        (0, 2, 1): -144,
        (1, 0, 2): -162,
        (1, 2, 0): -48,
        (2, 0, 1): 18,
        (2, 1, 0): 12,
    }
    assert tv.signed_sum().is_zero()


def test_det_terms_r0():
    tv = det_terms(P123, 2, (3,), p=(1,))
    assert len(tv.entries) == 1
    perm, sign, value = tv.entries[0]
    assert perm == (0,) and sign == 1
    assert value.as_rational() == 2 ** 8


def test_det_terms_sum_is_determinant():
    rng = random.Random(31)
    for _ in range(10):
        coords = [rng.randint(1, 9) for _ in range(4)]
        P = ProjPoint.rational(coords)
        m = tuple(sorted(rng.sample(range(6), 3)))
        p = tuple(sorted(rng.sample(range(4), 3)))
        tv = det_terms(P, 2, m, p)
        A = iterate_matrix(P, 2, m).rows()
        minor = [[A[i][j] for j in p] for i in range(3)]
        assert tv.signed_sum() == linalg.det(minor)


def test_det_terms_rejects_zero_coordinate():
    with pytest.raises(ZeroCoordinate):
        det_terms(ProjPoint.rational([1, 0, 3]), 2, (0, 1, 2))


def test_det_terms_validates_columns():
    with pytest.raises(ShapeMismatch):
        det_terms(P123, 2, (0, 1), p=(2, 1))
    with pytest.raises(ShapeMismatch):
        det_terms(P123, 2, (0, 1), p=(0, 9))


def test_det_terms_reads_the_budget_of_the_orbit():
    exact = ExactOrbit(P12m3, 2, 2 ** 10)
    with pytest.raises(ExponentBudgetExceeded):
        det_terms(P12m3, 2, (0, 1, 30), exact=exact)


def test_bullet_partition_r1():
    part = bullet_partition(1, 0)
    assert part.blocks == (((0, 1),), ((1, 0),))


def test_bullet_partition_r2():
    part = bullet_partition(2, 0)
    assert len(part.blocks) == 3
    assert all(len(b) == 2 for b in part.blocks)
    # sigma(j) = 0 within each block, j constant per block
    for block in part.blocks:
        assert len({sigma.index(0) for sigma in block}) == 1


@pytest.mark.parametrize("r,t", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1)])
def test_bullet_block_sizes(r, t):
    part = bullet_partition(r, t)
    sizes = {len(b) for b in part.blocks}
    import math
    assert sizes == {math.factorial(r)}
    assert len(part.blocks) == r + 1


def test_bullet_partition_range():
    with pytest.raises(IndexOutOfRange):
        bullet_partition(2, 3)


def test_classify_bullet_is_exceptional_at_t():
    assert classify_exceptional(bullet_partition(2, 0)) == frozenset({0})
    assert classify_exceptional(bullet_partition(2, 2)) == frozenset({2})


def test_classify_singletons():
    perms = symmetric_group(2)
    part = TermPartition.from_blocks(2, [[s] for s in perms])
    assert classify_exceptional(part) == frozenset({0, 1, 2})


def test_classify_single_block():
    part = TermPartition.from_blocks(2, [symmetric_group(2)])
    assert classify_exceptional(part) == frozenset()


def test_partition_validation():
    with pytest.raises(ShapeMismatch):
        TermPartition.from_blocks(2, [symmetric_group(2)[:3]])


def test_finest_partition_pairing():
    tv = make_tv([1, -1, 1, -1, 1, -1])
    res = finest_zero_partition(tv)
    assert all(len(b) == 2 for b in res.partition.blocks)
    assert res.non_unique  # many pairings exist


def test_finest_partition_single_block():
    tv = det_terms(P12m3, 2, (0, 1, 2))
    assert vanishing_subsum_bruteforce(tv) == []  # no proper subsum vanishes
    res = finest_zero_partition(tv)
    assert res.partition.blocks == (tuple(symmetric_group(2)),)
    assert not res.non_unique


def test_finest_partition_structured():
    tv = make_tv([5, -5, 7, 3, -2, -8])
    subsets = vanishing_subsum_bruteforce(tv)
    res = finest_zero_partition(tv)
    for block in res.partition.blocks:
        total = sum(tv.signed_value(perm).as_rational() for perm in block)
        assert total == 0
        assert block == tuple(symmetric_group(2)) or block in subsets
    # every emitted block is minimal
    for block in res.partition.blocks:
        signed = {perm: tv.signed_value(perm).as_rational() for perm in block}
        for k in range(1, len(block)):
            for sub in combinations(block, k):
                assert sum(signed[perm] for perm in sub) != 0


def test_finest_partition_rejects_nonzero_total():
    tv = det_terms(P123, 2, (0, 1, 2))
    assert not tv.signed_sum().is_zero()
    with pytest.raises(NonVanishingTotal):
        finest_zero_partition(tv)


def test_finest_partition_refuses_r4():
    P = ProjPoint.rational([1, 2, 3, 5, 7])
    tv = det_terms(P, 2, (0, 1, 2, 3, 4))
    assert len(tv.entries) == 120
    with pytest.raises(TooManyTerms):
        finest_zero_partition(tv)


def test_finest_blocks_appear_in_bruteforce():
    rng = random.Random(41)
    for _ in range(10):
        vals = [rng.randint(1, 6) for _ in range(3)]
        signed = vals + [-v for v in vals]
        rng.shuffle(signed)
        tv = make_tv(signed)
        subsets = set(vanishing_subsum_bruteforce(tv))
        res = finest_zero_partition(tv)
        full = tuple(symmetric_group(2))
        for block in res.partition.blocks:
            assert block == full or block in subsets


def test_block_sum_is_signed_cofactor():
    # sum over T_j^t of sgn*u equals (-1)^(t+j) alpha_{p(j)}^{k_t} times
    # the (t, j)-deleted minor of the column-selected matrix
    rng = random.Random(53)
    for _ in range(5):
        coords = [rng.randint(1, 7) for _ in range(4)]
        P = ProjPoint.rational(coords)
        m = tuple(sorted(rng.sample(range(5), 3)))
        p = tuple(sorted(rng.sample(range(4), 3)))
        tv = det_terms(P, 2, m, p)
        A = iterate_matrix(P, 2, m).rows()
        B = [[A[i][j] for j in p] for i in range(3)]
        for t in range(3):
            part = bullet_partition(2, t)
            for block in part.blocks:
                j = block[0].index(t)
                block_sum = tv.block_sum(block)
                minor_rows = [[B[i][jj] for jj in range(3) if jj != j]
                              for i in range(3) if i != t]
                minor = linalg.det(minor_rows)
                sign = -1 if (t + j) % 2 else 1
                assert block_sum == B[t][j] * minor * sign


def test_deleted_row_rank():
    A = iterate_matrix(P12m3, 2, (0, 1, 2))
    for t in range(3):
        assert deleted_row_rank(A, t) == 2  # super-rank r = 2
    with pytest.raises(IndexOutOfRange):
        deleted_row_rank(A, 3)


def test_deleted_row_rank_two_rows():
    A = iterate_matrix(ProjPoint.rational([1, 2]), 2, (0, 1))
    assert deleted_row_rank(A, 0) == 1
    assert deleted_row_rank(A, 1) == 1


def exceptional_instances():
    """Iterate matrices over cyclotomic fields whose rows away from one
    index t coincide (root-of-unity coordinates with periodic iterates),
    so every bullet block sum at t vanishes for every column choice."""
    cases = []
    # ell, d (primitive or not), coordinate zeta-exponents, m, t
    specs = [
        (5, 2, (0, 1, 2), (0, 4, 5), 2),
        (5, 2, (0, 1, 2), (0, 3, 4), 1),   # 2^0 = 2^4 = 1 mod 5: rows 0, 2 coincide
        (5, 2, (0, 1, 3), (1, 5, 6), 2),
        (5, 3, (0, 1, 2), (0, 4, 7), 2),   # ord_5(3) = 4
        (7, 2, (0, 1, 3), (0, 3, 4), 2),   # ord_7(2) = 3
        (7, 2, (0, 2, 3), (1, 4, 5), 2),
        (7, 3, (0, 1, 2), (0, 6, 7), 2),   # ord_7(3) = 6
        (11, 2, (0, 1, 5), (0, 10, 11), 2),  # ord_11(2) = 10
    ]
    for ell, d, exps, m, t in specs:
        C = field.cyclotomic_field(ell)
        z = C.gen()
        P = ProjPoint(C, [z ** e if e else C.one() for e in exps])
        cases.append((P, d, m, t))
    return cases


@pytest.mark.parametrize("P,d,m,t", exceptional_instances())
def test_exceptional_rank_drop(P, d, m, t):
    A = iterate_matrix(P, d, m)
    rows = A.rows()
    others = [rows[i] for i in range(3) if i != t]
    assert linalg.rank(others) == 1  # instance construction invariant
    # hypothesis: every bullet block sum at t vanishes for every p
    n = P.dim
    for p in column_selections(2, n):
        tv = det_terms(P, d, m, p)
        for block in bullet_partition(2, t).blocks:
            assert not tv.block_sum(block)
    assert deleted_row_rank(A, t) == 1  # r - 1
    assert not linalg.super_rank(rows)


def test_subpartition_collision_inheritance():
    # fingerprints equal under a family imply equality under refinements
    rng = random.Random(67)
    n = P123.dim
    r = 2
    t = 1
    bullets = {p: bullet_partition(r, t) for p in column_selections(r, n)}
    m = (0, 2, 5)
    m2 = (0, 3, 5)  # differs only in coordinate t = 1
    assert fingerprint(P123, 2, m, bullets) == fingerprint(P123, 2, m2, bullets)
    for _ in range(5):
        refined = {}
        for p, part in bullets.items():
            blocks = []
            for block in part.blocks:
                block = list(block)
                if len(block) > 1 and rng.random() < 0.7:
                    cut = rng.randint(1, len(block) - 1)
                    rng.shuffle(block)
                    blocks.append(block[:cut])
                    blocks.append(block[cut:])
                else:
                    blocks.append(block)
            refined[p] = TermPartition.from_blocks(r, blocks)
        assert fingerprint(P123, 2, m, refined) == fingerprint(P123, 2, m2, refined)


def test_fingerprint_t_independence():
    n = P123.dim
    base = (1, 3, 6)
    for t in range(3):
        bullets = {p: bullet_partition(2, t) for p in column_selections(2, n)}
        for other in range(9):
            m2 = tuple(list(base[:t]) + [other] + list(base[t + 1:]))
            if m2[t] == base[t] or any(a >= b for a, b in zip(m2, m2[1:])) or m2[0] < 0:
                continue
            assert fingerprint(P123, 2, base, bullets) == \
                fingerprint(P123, 2, m2, bullets)


def test_fingerprint_singleton_blocks_degenerate():
    perms = symmetric_group(2)
    singletons = TermPartition.from_blocks(2, [[s] for s in perms])
    fams = {(0, 1, 2): singletons}
    f1 = fingerprint(P123, 2, (0, 1, 2), fams)
    f2 = fingerprint(P123, 2, (1, 3, 6), fams)
    assert f1 == f2  # scaling kills all information in singleton blocks


def test_fingerprint_non_exceptional_no_collision_sample():
    # a family with a block mixing sigma^{-1}(t) for every t is not
    # exceptional; fingerprints then separate random distinct tuples
    mixing = TermPartition.from_blocks(
        2, [[(0, 1, 2), (1, 2, 0)], [(0, 2, 1), (1, 0, 2)], [(2, 0, 1), (2, 1, 0)]])
    assert classify_exceptional(mixing) == frozenset()
    fams = {(0, 1, 2): mixing}
    rng = random.Random(97)
    seen = {}
    for _ in range(200):
        m = tuple(sorted(rng.sample(range(9), 3)))
        fp = fingerprint(P123, 2, m, fams)
        if fp in seen:
            assert seen[fp] == m
        seen[fp] = m


def _all_set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
        yield [[first]] + sub


def test_finest_partition_is_canonically_least():
    # brute force over all 203 set partitions of the six terms
    rng = random.Random(79)
    for _ in range(8):
        vals = [rng.randint(1, 5) for _ in range(3)]
        signed = vals + [-v for v in vals]
        rng.shuffle(signed)
        tv = make_tv(signed)
        signed_by_perm = {perm: tv.signed_value(perm).as_rational()
                          for perm, _, _ in tv.entries}
        perms = [perm for perm, _, _ in tv.entries]

        def block_ok(block):
            if sum(signed_by_perm[s] for s in block) != 0:
                return False
            for k in range(1, len(block)):
                for sub in combinations(block, k):
                    if sum(signed_by_perm[s] for s in sub) == 0:
                        return False
            return True

        valid = []
        for part in _all_set_partitions(perms):
            if all(block_ok(b) for b in part):
                canon = tuple(sorted(tuple(sorted(b)) for b in part))
                valid.append(canon)
        assert valid, "every zero-total vector admits a partition"
        res = finest_zero_partition(tv)
        assert res.partition.blocks == min(valid)
        assert res.non_unique == (len(set(valid)) > 1)


C5_TERMS = field.cyclotomic_field(5)


@st.composite
def zero_block_term_vectors(draw):
    """r = 2 term vectors whose signed values vanish on each block of a
    random partition of S_3: the last value of a block is minus the sum
    of the others.  Small values make further vanishing subsums common."""
    K = draw(st.sampled_from([field.rational_field(), C5_TERMS]))
    if K.degree == 1:
        values = st.integers(-3, 3).filter(bool).map(K.from_rational)
    else:
        values = st.tuples(st.integers(-2, 2), st.integers(-1, 1)).filter(any).map(
            lambda ab: K.from_rational(ab[0]) + K.gen() * ab[1])
    order = draw(st.permutations(symmetric_group(2)))
    sizes = draw(st.sampled_from([(6,), (2, 4), (4, 2), (3, 3), (2, 2, 2)]))
    signed = {}
    start = 0
    for size in sizes:
        block = order[start:start + size]
        start += size
        for perm in block[:-1]:
            signed[perm] = draw(values)
        signed[block[-1]] = -sum((signed[perm] for perm in block[:-1]), K.zero())
        assume(signed[block[-1]])
    entries = tuple((perm, perm_sign(perm), signed[perm] * perm_sign(perm))
                    for perm in symmetric_group(2))
    return TermVector(2, entries)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(zero_block_term_vectors())
def test_finest_zero_partition_matches_bruteforce(tv):
    found = finest_zero_partition(tv).partition
    zero_subsets = [set(s) for s in vanishing_subsum_bruteforce(tv)]
    for block in found.blocks:
        assert not tv.block_sum(block)
        assert not any(s < set(block) for s in zero_subsets)
    event(f"{len(found.blocks)} blocks, {len(zero_subsets)} vanishing subsums")


@pytest.mark.parametrize("coords, d", [([1, 5, 7], 2), ([1, 2, -3], 3), ([1, 2], 2)])
def test_det_terms_rejects_another_orbit(coords, d):
    # the rows of another orbit give terms whose sum is not P's determinant
    P = ProjPoint.rational([1, 2, -3])
    with pytest.raises(ValueError, match="not the orbit of"):
        det_terms(P, 2, (0, 1, 2), exact=ExactOrbit(ProjPoint.rational(coords), d))
    tv = det_terms(P, 2, (0, 1, 2), None, ExactOrbit(ProjPoint.rational([1, 2, -3]), 2))
    assert tv.signed_sum().is_zero()
