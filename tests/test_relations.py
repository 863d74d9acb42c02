import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import superspan
from superspan import field, relations
from superspan.cli import main as cli_main
from superspan.errors import DimensionMismatch, SoundnessError, Unsupported, ZeroCoordinate
from superspan.jsonio import encode_lattice
from superspan.orbit import ProjPoint, iterate
from superspan.relations import (
    RelLattice,
    exponent_matrix,
    hermite_normal_form,
    integer_kernel,
    lattice_contains,
    lattice_reduce,
    relation_lattice,
)


def brute_force_relations(coords, bound=3):
    """Independent oracle: all relation vectors with sup-norm <= bound."""
    coords = [Fraction(c) for c in coords]
    found = []
    for e in product(range(-bound, bound + 1), repeat=len(coords)):
        if sum(e) != 0:
            continue
        prod = Fraction(1)
        for c, k in zip(coords, e):
            prod *= c ** k
        if prod == 1:
            found.append(e)
    return found


def test_hnf_canonical():
    assert hermite_normal_form([[2, 4], [1, 3]]) == [[1, 1], [0, 2]]
    assert hermite_normal_form([[0, 0], [0, 0]]) == []
    # canonical regardless of generator presentation
    a = hermite_normal_form([[1, -1, -1, 1], [2, -2, -2, 2]])
    b = hermite_normal_form([[-1, 1, 1, -1]])
    assert a == b == [[1, -1, -1, 1]]


def test_integer_kernel():
    # kernel of [[1, 1, 1]] is rank 2
    k = integer_kernel([[1, 1, 1]])
    assert len(k) == 2
    for v in k:
        assert sum(v) == 0
    assert integer_kernel([[1, 0], [0, 1]]) == []


def test_exponent_matrix_basic():
    primes, E, signs = exponent_matrix([1, 2, 3, 6])
    assert primes == [2, 3]
    assert E == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert signs == [1, 1, 1, 1]


def test_exponent_matrix_signs():
    primes, E, signs = exponent_matrix([1, 2, -3])
    assert primes == [2, 3]
    assert E == [[0, 0], [1, 0], [0, 1]]
    assert signs == [1, 1, -1]


def test_exponent_matrix_units():
    primes, E, signs = exponent_matrix([1, 1])
    assert primes == []
    assert E == [[], []]
    assert signs == [1, 1]


def test_exponent_matrix_composite_base():
    base, E, _ = exponent_matrix([1, 6, 36, Fraction(1, 6)])
    assert base == [6]
    assert E == [[0], [1], [2], [-1]]


def test_exponent_matrix_zero():
    with pytest.raises(ZeroCoordinate):
        exponent_matrix([1, 0, 2])


def test_trivial_lattice():
    L = relation_lattice(ProjPoint.rational([1, 2, 3, 5]))
    assert L.rank == 0


def test_rank_one_lattice():
    L = relation_lattice(ProjPoint.rational([1, 2, 3, 6]))
    assert L.rank == 1
    assert L.basis == ((1, -1, -1, 1),)


def test_quadric_lattice():
    L = relation_lattice(ProjPoint.rational([1, 6, 2, 3]))
    assert L.rank == 1
    assert lattice_contains(L, (1, 1, -1, -1))


def test_sign_parity():
    # (-1)^e1 = 1 forces e1 even; lattice is generated by (2, -2)
    L = relation_lattice(ProjPoint.rational([1, -1]))
    assert L.basis == ((2, -2),)
    assert not lattice_contains(L, (1, -1))
    assert lattice_contains(L, (4, -4))


def test_lattice_contains_examples():
    L = RelLattice(4, ((1, 1, -1, -1),))
    assert lattice_contains(L, (0, 0, 0, 0))
    assert lattice_contains(L, (2, 2, -2, -2))
    assert not lattice_contains(L, (1, 0, -1, 0))
    with pytest.raises(DimensionMismatch):
        lattice_contains(L, (1, 1, -1))


@pytest.mark.parametrize("v", [[0.5, -0.5], [Fraction(1, 2), Fraction(-1, 2)],
                               [2.0, -2.0], ["2", "-2"]])
def test_lattice_reduce_refuses_non_integer_entries(v):
    # truncating would take [0.5, -0.5] to the lattice vector (0, 0)
    L = RelLattice(2, ((2, -2),))
    with pytest.raises(ValueError, match="integer entries"):
        lattice_contains(L, v)
    with pytest.raises(ValueError, match="integer entries"):
        lattice_reduce(L, v)


def test_pivots_leave_equality_hash_and_encoding_alone():
    built = relation_lattice(ProjPoint.rational([1, 6, 2, 3]))
    given_basis = RelLattice(4, ((1, 1, -1, -1),))
    assert given_basis == built and hash(given_basis) == hash(built)
    assert built.pivots == given_basis.pivots == (0,)
    assert repr(given_basis) == "RelLattice(dimension=4, basis=((1, 1, -1, -1),))"
    assert encode_lattice(built) == {"rank": 1, "basis": [[1, 1, -1, -1]]}
    assert RelLattice(3, ((2, 0, -2), (0, 3, -3))).pivots == (0, 1)
    with pytest.raises(ValueError, match="row is zero"):
        RelLattice(2, ((2, -2), (0, 0)))


@pytest.mark.parametrize("coords", [
    [1, 2, 3, 5],
    [1, 2, 3, 6],
    [1, 6, 2, 3],
    [1, 2, -3],
    [1, -1],
    [2, 4, 8],
    [Fraction(1, 2), 3, 6],
])
def test_completeness_small_exponents(coords):
    L = relation_lattice(ProjPoint.rational(coords))
    for e in brute_force_relations(coords, bound=3):
        assert lattice_contains(L, e), f"missed relation {e}"


def test_soundness_basis_vectors():
    for coords in ([1, 2, 3, 6], [1, 6, 2, 3], [4, 2, 8, 1], [1, -2, 4, -8]):
        L = relation_lattice(ProjPoint.rational(coords))
        for e in L.basis:
            prod = Fraction(1)
            for c, k in zip(coords, e):
                prod *= Fraction(c) ** k
            assert prod == 1 and sum(e) == 0


def test_trivial_lattice_implies_not_preperiodic():
    P = ProjPoint.rational([1, 2, 3])
    assert relation_lattice(P).rank == 0
    iterates = [iterate(P, 2, k) for k in range(11)]
    for a in range(11):
        for b in range(a + 1, 11):
            assert iterates[a] != iterates[b]


def test_cyclotomic_monomial_lattice():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    P = ProjPoint(C5, [C5.one(), z, C5.from_rational(2), C5.from_rational(3)])
    L = relation_lattice(P)
    # zeta^e1 = 1 needs e1 = 0 mod 5; tail 2,3 independent
    assert L.basis == ((5, -5, 0, 0),)
    assert not lattice_contains(L, (1, -1, 0, 0))


def test_cyclotomic_general_element_rejected():
    C5 = field.cyclotomic_field(5)
    z = C5.gen()
    P = ProjPoint(C5, [C5.one(), z + C5.one(), C5.from_rational(2), C5.from_rational(3)])
    with pytest.raises(Unsupported):
        relation_lattice(P)


def test_cyclotomic_last_power_is_a_monomial(capsys):
    # zeta^4 reduces to -(1 + zeta + zeta^2 + zeta^3) in Q(zeta_5), and its
    # relations are those of zeta^3
    argv = ["relations", "--field", "cyclotomic:5", "--point"]
    for point in ('[["1"],["0","0","0","0","1"],["2"]]', '[["1"],["0","0","0","1"],["2"]]'):
        assert cli_main(argv + [point]) == 0
        assert json.loads(capsys.readouterr().out)["basis"] == [[5, -5, 0]]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 7]), st.data(),
       st.one_of(st.sampled_from([1, -1]),
                 st.fractions(-5, 5, max_denominator=5).filter(bool)))
def test_cyclotomic_monomials_are_accepted(ell, data, q):
    # q * zeta^a is a root of unity iff q = +-1, of order w = ell / gcd(a, ell),
    # doubled for q = -1; [1, q zeta^a] then has the relations k (w, -w)
    a = data.draw(st.integers(0, ell - 1))
    C = field.cyclotomic_field(ell)
    L = relation_lattice(ProjPoint(C, [C.one(), C.from_rational(q) * C.gen() ** a]))
    if abs(q) != 1:
        assert L.basis == ()
    else:
        w = (ell // gcd(a, ell)) * (2 if q == -1 else 1)
        assert L.basis == ((w, -w),)
    event(f"a = ell - 1: {a == ell - 1}")


def test_number_field_rejected():
    K = field.number_field([1, 3, Fraction(5, 2), 0, Fraction(5, 2), 3, 1])
    P = ProjPoint(K, [K.one(), K.gen(), K.one()])
    with pytest.raises(Unsupported):
        relation_lattice(P)


def test_hnf_unimodular_invariance():
    import random
    rng = random.Random(83)
    for _ in range(15):
        k, n = rng.randint(1, 3), rng.randint(2, 5)
        basis = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        reference = hermite_normal_form(basis)
        # random invertible integer row operations preserve the lattice
        mixed = [row[:] for row in basis]
        for _ in range(10):
            i, j = rng.randrange(k), rng.randrange(k)
            if i != j:
                c = rng.randint(-3, 3)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            elif rng.random() < 0.5:
                mixed[i] = [-a for a in mixed[i]]
        rng.shuffle(mixed)
        assert hermite_normal_form(mixed) == reference


C5 = field.cyclotomic_field(5)


@pytest.mark.parametrize("P, bogus", [
    (ProjPoint.rational([1, 2, 3]), [1, -1, 0]),          # product 1/2, not 1
    (ProjPoint.rational([1, 2, 3]), [1, 0, 0]),           # nonzero sum
    (ProjPoint(C5, [C5.one(), C5.gen()]), [1, -1]),       # zeta^-1 is not 1
])
def test_unsound_relation_basis_raises(monkeypatch, P, bogus):
    monkeypatch.setattr(relations, "integer_kernel", lambda mat: [bogus + [0] * 4])
    with pytest.raises(SoundnessError):
        relation_lattice(P)


def test_soundness_error_is_not_reported_as_bad_input(monkeypatch):
    monkeypatch.setattr(relations, "integer_kernel", lambda mat: [[1, -1, 0, 0]])
    with pytest.raises(SoundnessError):
        cli_main(["relations", "--point", "[1,2,3]"])


def test_soundness_check_survives_optimize_flag():
    # python -O strips assert statements; the check must still raise
    code = """if True:
        import superspan.relations as R
        from superspan.errors import SoundnessError
        from superspan.orbit import ProjPoint
        assert False, "asserts are live"
        R.integer_kernel = lambda mat: [[1, -1, 0, 0]]
        try:
            R.relation_lattice(ProjPoint.rational([1, 2, 3]))
        except SoundnessError:
            print("raised")
    """
    src = str(Path(superspan.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_relations_cli_large_prime_coordinate(capsys):
    # 2^61 - 1 is prime: trial division up to its square root would not finish
    q = 2 ** 61 - 1
    assert cli_main(["relations", "--point", json.dumps([1, q, 3, 3 * q])]) == 0
    assert json.loads(capsys.readouterr().out)["basis"] == [[1, -1, -1, 1]]


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------

BIG = 10 ** 12 + 39
# small primes, and a large factor shared in the shapes q, 2q and q^2,
# so that the coprime base must split coordinates by gcds
FACTORS = (2, 3, 5, BIG, 2 * BIG, BIG ** 2)
products = st.lists(st.sampled_from(FACTORS), max_size=3).map(prod)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(lambda s, a, b: Fraction(s * a, b), st.sampled_from([1, -1]),
                          products, products), min_size=2, max_size=4))
@example([Fraction(1), Fraction(BIG), Fraction(2 * BIG), Fraction(BIG ** 2)])
@example([Fraction(6), Fraction(-BIG, 3), Fraction(2 * BIG ** 2, 5), Fraction(-12)])
def test_relation_lattice_matches_exhaustive_check(coords):
    base, E, _ = exponent_matrix(coords)
    assert all(b > 1 for b in base) and all(gcd(a, b) == 1 for a, b in combinations(base, 2))
    for q, row in zip(coords, E):
        assert prod((Fraction(b) ** e for b, e in zip(base, row)), start=Fraction(1)) == abs(q)
    L = relation_lattice(ProjPoint.rational(coords))
    relations_found = set(brute_force_relations(coords, bound=2))
    for e in product(range(-2, 3), repeat=len(coords)):
        if not sum(e):
            assert lattice_contains(L, e) == (e in relations_found), e
    event(f"{len(coords)} coordinates, rank {L.rank}, {len(relations_found) - 1} small relations")


def _combination(L, coeffs):
    return [sum(c * row[i] for c, row in zip(coeffs, L.basis)) for i in range(L.dimension)]


@st.composite
def lattice_cases(draw):
    """A lattice from random generators, a vector, and the coefficients of
    a lattice vector to shift it by; half the vectors are lattice vectors."""
    dim = draw(st.integers(1, 5))
    vectors = st.lists(st.integers(-9, 9), min_size=dim, max_size=dim)
    L = RelLattice(dim, tuple(map(tuple, hermite_normal_form(
        draw(st.lists(vectors, max_size=dim))))))
    coeffs = st.lists(st.integers(-4, 4), min_size=L.rank, max_size=L.rank)
    v = draw(vectors)
    if draw(st.booleans()):
        v = _combination(L, draw(coeffs))
    return L, v, draw(coeffs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
@example((RelLattice(4, ((1, 1, -1, -1),)), [-3, -3, 3, 3], [2]))
@example((RelLattice(2, ((2, -2),)), [-1, 1], [-1]))
def test_lattice_reduce_is_canonical(case):
    L, v, coeffs = case
    rep = lattice_reduce(L, v)
    shifted = [a + b for a, b in zip(v, _combination(L, coeffs))]
    assert lattice_reduce(L, shifted) == rep
    for row in L.basis:
        pivot_col = next(i for i, x in enumerate(row) if x)
        assert 0 <= rep[pivot_col] < row[pivot_col]
    # membership by an independent route: v leaves the HNF unchanged
    member = hermite_normal_form(list(L.basis) + [v]) == [list(row) for row in L.basis]
    assert (not any(rep)) == member == lattice_contains(L, v)
    event(f"rank {L.rank}, member {member}")
