import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import event, example, given, settings, strategies as st

from superspan import field, linalg
from superspan.constructions import sextic_field
from superspan.errors import AllPrimesBad, NonInvertible, ShapeMismatch
from superspan.orbit import ModularOrbit, ProjPoint, iterate_matrix

Q = field.rational_field()
C5 = field.cyclotomic_field(5)
K6 = sextic_field()
ZETA = C5.gen()


def qrows(data):
    return [[Q.from_rational(Fraction(x)) for x in row] for row in data]


def test_rank_identity():
    assert linalg.rank(qrows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_rank_iterate_degenerate():
    assert linalg.rank(qrows([[1, 2, -3], [1, 4, 9], [1, 16, 81]])) == 2


def test_rank_repeated_row():
    assert linalg.rank(qrows([[1, 2, 3], [1, 2, 3], [4, 5, 6]])) == 2


def test_det_values():
    assert linalg.det(qrows([[1, 2], [3, 4]])).as_rational() == -2
    assert linalg.det(qrows([[1, 2, -3], [1, 4, 9], [1, 16, 81]])).is_zero()
    assert linalg.det(qrows([[1, 2, 3], [1, 4, 9], [1, 16, 81]])).as_rational() == 72
    half = qrows([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert linalg.det(half).as_rational() == Fraction(1, 6)


def test_det_matches_field_path():
    # same matrices through the Bareiss path and the generic field path
    C5 = field.cyclotomic_field(5)
    rng = random.Random(2)
    for _ in range(10):
        data = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        dq = linalg.det(qrows(data)).as_rational()
        rows5 = [[C5.from_rational(x) for x in row] for row in data]
        assert linalg.det(rows5) == C5.from_rational(dq)
        assert linalg.rank(rows5) == linalg.rank(qrows(data))


def test_super_rank_examples():
    assert linalg.super_rank(qrows([[1, 2, -3], [1, 4, 9], [1, 16, 81]]))
    assert not linalg.super_rank(qrows([[1, 2, 3], [1, 2, 3], [1, 4, 9]]))
    assert not linalg.super_rank(qrows([[1, 2, 3], [1, 4, 9], [1, 16, 81]]))


def test_super_rank_shape_checks():
    with pytest.raises(ShapeMismatch):
        linalg.super_rank(qrows([[1, 2], [3, 4], [5, 6]]))  # 3 rows, 2 cols


def test_ragged_and_empty_input_rejected():
    # a transpose by zip(*rows) would truncate ragged rows silently
    with pytest.raises(ShapeMismatch):
        linalg.rank(qrows([[1], [1, 2]]))
    with pytest.raises(ShapeMismatch):
        linalg.span_canonical(qrows([[1, 0], [0, 1, 7]]))
    with pytest.raises(ShapeMismatch):
        linalg.super_rank(qrows([[1, 2, 3], [1, 4], [1, 16, 81]]))
    with pytest.raises(ShapeMismatch):
        linalg.super_rank([[C5.one(), ZETA], [C5.one(), ZETA, ZETA]])
    with pytest.raises(ShapeMismatch):
        linalg.det([])
    with pytest.raises(ShapeMismatch):
        linalg.det(qrows([[1, 2], [3]]))


def test_span_canonical_unit_rows():
    s = linalg.span_canonical(qrows([[1, 0, 0], [0, 1, 0]]))
    assert s.dim_projective == 1
    assert s.basis == ((Q.one(), Q.zero(), Q.zero()), (Q.zero(), Q.one(), Q.zero()))


def test_span_canonical_line():
    s = linalg.span_canonical(qrows([[1, 2, -3], [1, 4, 9], [1, 16, 81]]))
    assert s.rank == 2
    assert s.dim_projective == 1


def test_span_single_point():
    s = linalg.span_canonical([ProjPoint.rational([2, 4, 6])])
    assert s.dim_projective == 0
    assert s.basis[0] == (Q.one(), Q.from_rational(2), Q.from_rational(3))


def test_span_representative_invariance():
    a = linalg.span_canonical(qrows([[1, 2, -3], [1, 4, 9]]))
    b = linalg.span_canonical(qrows([[2, 4, -6], [-3, -12, -27]]))
    assert a == b


def test_modular_filter_certifies_generic():
    P = ProjPoint.rational([1, 2, 3])
    orbit = ModularOrbit(P, 2, [10007], 1)
    assert (0, 1, 2) not in linalg.modular_rank_filter(orbit, (0,), 2)
    rows = [orbit.row(10007, i) for i in (0, 1, 2)]
    assert orbit.primes == [10007] and len(linalg.echelon_mod_p(rows, 10007)) == 3


def test_modular_filter_candidate():
    P = ProjPoint.rational([1, 2, -3])
    orbit = ModularOrbit(P, 2, [10007, 65537, 1000003], 3)
    assert (0, 1, 2) in linalg.modular_rank_filter(orbit, (0,), 2)


def test_modular_filter_all_primes_bad():
    P = ProjPoint.rational([1, Fraction(1, 7), 3])
    with pytest.raises(AllPrimesBad):
        linalg.modular_rank_filter(ModularOrbit(P, 2, [7], 1), (0,), 2)


def test_modular_rank_below_exact():
    rng = random.Random(17)
    for _ in range(20):
        data = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(3)]
        exact = linalg.rank(qrows(data))
        for p in (2, 3, 1009):
            mod_rows = [[x % p for x in row] for row in data]
            assert len(linalg.echelon_mod_p(mod_rows, p)) <= exact
        assert len(linalg.echelon_mod_p([[x % 1009 for x in row] for row in data], 1009)) == exact


def test_filter_never_certifies_true_exceptional():
    # exhaustive cross-check on a small instance: anything the filter
    # certifies must indeed have full exact rank
    from itertools import combinations
    P = ProjPoint.rational([1, 2, -3])
    for m in combinations(range(5), 3):
        exact_rank = linalg.rank(iterate_matrix(P, 2, m).rows())
        orbit = ModularOrbit(P, 2, [10007, 65537], 2)
        if m not in linalg.modular_rank_filter(orbit, m[:-2], m[-1]):
            assert exact_rank == 3


def test_cyclotomic_filter_matches_exact():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    P = ProjPoint(C5, [C5.one(), z, C5.from_rational(2), C5.from_rational(3)])
    # iterates 0, 4, 8 of d=2 agree in the zeta coordinate (2^n mod 5 cycle);
    # 10061 = 1 (mod 5), so Phi_5 has a root there
    orbit = ModularOrbit(P, 2, [10061], 1)
    assert (0, 4, 8) not in linalg.modular_rank_filter(orbit, (0,), 8)
    rows = [orbit.row(10061, i) for i in (0, 4, 8)]
    assert orbit.primes == [10061] and len(linalg.echelon_mod_p(rows, 10061)) == 3
    assert linalg.rank(iterate_matrix(P, 2, (0, 4, 8)).rows()) == 3


def _fraction_gauss_jordan(data, one=Fraction(1)):
    """Independent oracle: textbook Gauss-Jordan elimination with exact
    division, over Fractions or over the field values of one ambient
    (pass its one), with the first nonzero row as pivot.  Returns (pivot
    columns, the reduced rows, the original index of each reduced row)."""
    rows = [[one * x for x in row] for row in data]
    order = list(range(len(rows)))
    pivots = []
    for col in range(len(rows[0])):
        k = len(pivots)
        pr = next((r for r in range(k, len(rows)) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[k], rows[pr] = rows[pr], rows[k]
        order[k], order[pr] = order[pr], order[k]
        piv = rows[k][col]
        rows[k] = [v / piv for v in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
        pivots.append(col)
    return pivots, rows, order


def _naive_det(data, one=Fraction(1)):
    # independent oracle: permutation expansion, over Fractions or over
    # the field values of one ambient (pass its one)
    from itertools import permutations
    n = len(data)
    total = one - one
    for sigma in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j])
        prod = -one if inv % 2 else one
        for i in range(n):
            prod = prod * data[i][sigma[i]]
        total = total + prod
    return total


def test_rank_against_naive_oracle():
    rng = random.Random(71)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        data = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.5 and nr >= 2:
            # force degeneracy: repeat or scale a row
            data[rng.randrange(nr)] = [x * 2 for x in data[rng.randrange(nr)]]
        assert linalg.rank(qrows(data)) == len(_fraction_gauss_jordan(data)[0])


def test_det_against_permutation_expansion():
    rng = random.Random(73)
    for _ in range(30):
        n = rng.randint(1, 4)
        data = [[Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                 for _ in range(n)] for _ in range(n)]
        assert linalg.det(qrows(data)).as_rational() == _naive_det(data)
    # non-rational entries take the pivot-product times swap-sign path;
    # zero entries force row swaps
    for K in (C5, K6):
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = [[K.zero() if rng.random() < 0.4 else
                     K.element([rng.randint(-2, 2) for _ in range(K.degree)])
                     for _ in range(n)] for _ in range(n)]
            if n >= 2 and rng.random() < 0.25:
                rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]  # singular
            assert linalg.det(rows) == _naive_det(rows, K.one())


@st.composite
def field_values(draw, K):
    if K.degree == 1:
        return K.from_rational(Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3]))))
    return field.FieldValue(K, draw(st.lists(st.integers(-2, 2), min_size=K.degree,
                                             max_size=K.degree)))


@st.composite
def matrices(draw, entries, max_rows, max_cols):
    """Small matrices of the given entries, wide, tall or square, whose
    rows are sometimes combinations of earlier rows (singular,
    rank-deficient)."""
    nrows, ncols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    mat = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            j = draw(st.integers(0, i - 1))
            mat[i] = [a * x + b * y for x, y in zip(mat[j], mat[i - 1])]
    return mat


@st.composite
def field_matrices(draw):
    """Matrices over Q, Q(zeta_5) or the sextic, whose entries are often
    zero, so pivots move and columns vanish."""
    K = draw(st.sampled_from([Q, C5, K6]))
    return draw(matrices(st.just(K.zero()) | field_values(K), 4, 5))


@st.composite
def elimination_cases(draw):
    """(matrix, one): an integer matrix with the Fraction 1, or a field
    matrix with its field's one."""
    if draw(st.booleans()):
        return draw(matrices(st.integers(-6, 6), 5, 6)), Fraction(1)
    mat = draw(field_matrices())
    return mat, mat[0][0].ambient.one()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(elimination_cases())
@example(([[0, 1, 2], [0, 2, 4], [0, 3, 7]], Fraction(1)))  # zero first column, dependent row
@example(([[1, 2, 3], [2, 4, 5], [3, 6, 9]], Fraction(1)))  # free column between pivots
# pivot columns 0, 2 and 4 over Q(zeta_5), each followed by a free column
@example(([[C5.one(), ZETA, C5.zero(), ZETA ** 2, C5.zero(), C5.one()],
           [ZETA, ZETA ** 2, C5.one(), C5.zero(), C5.zero(), ZETA],
           [C5.zero(), C5.zero(), ZETA, -ZETA ** 4, ZETA ** 3, C5.one()]], C5.one()))
def test_bareiss_matches_fraction_gauss_jordan(case):
    data, one = case
    mat = [list(row) for row in data]
    pivots, last, sign, inverses = field.bareiss(mat)
    expected, reduced, order = _fraction_gauss_jordan(data, one)
    assert pivots == expected
    k = len(pivots)
    block = [[data[i][c] for c in pivots] for i in order[:k]]
    assert last == (_naive_det(block, one) if k else 1)
    if len(data) == len(data[0]):
        assert (sign * last if k == len(data) else 0) == _naive_det(data, one)
    # each column from pivot column j up to the next pivot column is pivot
    # j times its RREF column, the segments rref reads; the columns before
    # the first pivot column are zero
    for c in range(len(data[0])):
        j = sum(p <= c for p in pivots) - 1
        scale = mat[j][pivots[j]] if j >= 0 else 0
        assert [row[c] for row in mat] == [scale * row[c] for row in reduced]
    # an inverse of every pivot but the last, over Q[x]/(f) of the last too
    if isinstance(one, Fraction):
        assert inverses == []
    else:
        kind = one.ambient.kind
        assert len(inverses) == max(k - 1, 0) + (k > 0 and kind == field.NUMBER_FIELD)
        assert all(inv * mat[j][pivots[j]] == 1 for j, inv in enumerate(inverses))
        event(kind)
    event(f"{len(data)}x{len(data[0])}, rank {k}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(field_matrices())
def test_rank_and_rref_match_fraction_gauss_jordan(rows):
    K = rows[0][0].ambient
    pivots, reduced, _ = _fraction_gauss_jordan(rows, K.one())
    assert linalg.rank(rows) == len(pivots)
    assert linalg.rref(rows) == reduced[:len(pivots)]
    event(f"{K.kind}, {len(rows)}x{len(rows[0])}, rank {len(pivots)}")


@pytest.mark.parametrize("operation", [linalg.rank, linalg.det, linalg.rref, linalg.super_rank],
                         ids=lambda op: op.__name__)
def test_last_pivot_zero_divisor_raises(operation):
    # Q[x]/(x^2 - 1) is not a field: (x + 1)(x - 1) = 0.  The pivots are 1
    # and (x + 2) - 1 = x + 1, a zero divisor; the matrix is symmetric, so
    # super_rank meets the same pivots in A^T
    R = field.number_field([-1, 0, 1])
    one, x = R.one(), R.gen()
    with pytest.raises(NonInvertible):
        operation([[one, one], [one, x + 2]])


# ----------------------------------------------------------------------
# super_rank against its definition
# ----------------------------------------------------------------------

def super_rank_by_definition(rows):
    r = len(rows) - 1
    return linalg.rank(rows) == r and all(linalg.rank(list(sub)) == r
                                          for sub in combinations(rows, r))


@st.composite
def super_rank_cases(draw):
    """(r+1)-row matrices over Q, Q(zeta_5) or the sextic.  The rows are
    a basis of r rows, of fewer (rank-deficient) or of r+1 (full rank),
    and combinations of it, in any order; one row may then repeat or
    rescale another.  Basis rows are Vandermonde rows at distinct nodes,
    so they are independent."""
    K = draw(st.sampled_from([Q, C5, K6]))
    r = draw(st.integers(1, 3))
    ncols = draw(st.integers(r + 1, r + 2))
    size = draw(st.sampled_from([r, r, max(r - 1, 1), r + 1]))
    if K.degree == 1:
        nodes = [K.from_rational(x) for x in draw(st.lists(
            st.fractions(-4, 4, max_denominator=3), min_size=size, max_size=size, unique=True))]
    else:
        nodes = [K.from_rational(a) + K.gen() * b for a, b in draw(st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-2, 2)), min_size=size, max_size=size,
            unique=True))]
    basis = [[x ** j if j else K.one() for j in range(ncols)] for x in nodes]
    coeffs = st.lists(st.sampled_from([-2, -1, 1, 3]) | st.integers(-3, 3),
                      min_size=size, max_size=size)
    rows = basis + [[sum((b[j] * c for b, c in zip(basis, cs)), K.zero()) for j in range(ncols)]
                    for cs in draw(st.lists(coeffs, min_size=r + 1 - size, max_size=r + 1 - size))]
    rows = draw(st.permutations(rows))
    twist = draw(st.sampled_from(["none", "none", "repeat", "rescale"]))
    if twist != "none":
        i, j = draw(st.lists(st.integers(0, r), min_size=2, max_size=2, unique=True))
        scale = K.one() if twist == "repeat" else draw(field_values(K).filter(bool))
        rows[j] = [v * scale for v in rows[i]]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(super_rank_cases())
@example(qrows([[1, 2, -3], [1, 4, 9], [1, 2, -3]]))   # rows a, b, a at r = 2
@example(qrows([[1, 2, -3], [2, 4, -6], [1, 4, 9]]))   # proportional rows at r = 2
@example([[ZETA, C5.one(), C5.from_rational(2)]] * 2)  # two equal rows at r = 1
# row 2 = row 0 + row 1, so column 2 of A^T is free and not the last
@example(qrows([[1, 2, 4, 8], [1, 3, 9, 27], [2, 5, 13, 35], [1, 5, 25, 125]]))
# row 1 = alpha * row 0, so column 1 of A^T is free and not the last
@example([[K6.one(), K6.gen(), K6.gen() ** 2], [K6.gen(), K6.gen() ** 2, K6.gen() ** 3],
          [K6.gen(), K6.one(), K6.from_rational(3)]])
def test_super_rank_matches_definition(rows):
    expected = super_rank_by_definition(rows)
    assert linalg.super_rank(rows) == expected
    r = len(rows) - 1
    if len(set(map(tuple, rows))) <= r:
        event("repeated row")
    elif linalg.rank(rows) == r and not expected:
        event("rank r, an r-subset of lower rank, no repeated row")
    event(f"{rows[0][0].ambient.kind}, r = {r}, super-rank {expected}")


def test_repeated_rows_need_no_elimination(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "bareiss", refuse)
    a, b = qrows([[1, 2, -3], [1, 4, 9]])
    assert not linalg.super_rank([a, b, a])
    z = [[C5.one(), ZETA ** k, ZETA ** (2 * k), ZETA ** (3 * k)] for k in (1, 2, 1, 3)]
    assert not linalg.super_rank(z)


@st.composite
def span_cases(draw):
    """Rows over Q or Q(zeta_5), sometimes with a dependent last row, and
    a permutation and nonzero scale factors to apply to them."""
    K = draw(st.sampled_from([Q, C5]))
    ncols = draw(st.integers(2, 4))
    rows = [[draw(field_values(K)) for _ in range(ncols)]
            for _ in range(draw(st.integers(1, 3)))]
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(field_values(K))
        rows.append([a + c * b for a, b in zip(rows[0], rows[1])])
    order = draw(st.permutations(range(len(rows))))
    scales = [draw(field_values(K).filter(bool)) for _ in rows]
    return rows, order, scales


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(span_cases())
def test_span_canonical_invariant_under_row_permutation_and_scaling(case):
    rows, order, scales = case
    moved = [[v * s for v in rows[i]] for i, s in zip(order, scales)]
    L = linalg.span_canonical(rows)
    assert linalg.span_canonical(moved) == L
    assert hash(linalg.span_canonical(moved)) == hash(L)  # spans are dict keys
    assert L.rank == linalg.rank(rows)
    event(f"{rows[0][0].ambient.kind}, {len(rows)} rows, rank {L.rank}")
