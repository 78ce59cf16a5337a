import random
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from whitdim.errors import ResourceLimitError
from whitdim.lattice import (
    INFINITE,
    MAX_COSETS,
    FiniteAbelianStructure,
    Sublattice,
    congruence_index,
    congruence_kernel,
    coset_representatives,
    dot,
    fixed_sublattice,
    hermite_normal_form,
    index,
    intersect,
    is_saturated,
    mat_mul,
    mat_vec,
    orthogonal_lattice,
    rank,
    saturation,
    smith_invariants,
    transpose,
)

from _oracles import (
    brute_force_coset_count,
    canonical_basis_refusal,
    brute_force_saturation_member,
    elementary_row_hnf,
    in_span_z,
    lattice_contains,
)


# ---------------------------------------------------------------------------
# integer kernels, against their generator-over-zip definitions

def dot_by_zip(u, v):
    return sum(x * y for x, y in zip(u, v))


def mat_vec_by_zip(mat, vec):
    return tuple(sum(x * y for x, y in zip(row, vec)) for row in mat)


def mat_mul_by_zip(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in transpose(b))
                 for row in a)


def test_kernels_match_generator_definitions():
    rng = random.Random(11)

    def entry():
        # small entries, or entries far beyond 2^64 of either sign
        return rng.choice((rng.randint(-3, 3), rng.randint(-2 ** 80, 2 ** 80)))

    def matrix(n, m):
        return tuple(tuple(entry() for _ in range(m)) for _ in range(n))

    for _ in range(300):
        n, k, m = (rng.randint(0, 5) for _ in range(3))
        a, b = matrix(n, k), matrix(k, m)
        vec = tuple(entry() for _ in range(k))
        assert mat_mul(a, b) == mat_mul_by_zip(a, b)
        assert mat_vec(a, vec) == mat_vec_by_zip(a, vec)
        for row in a:
            assert dot(row, vec) == dot_by_zip(row, vec)
        # unequal lengths truncate to the shorter, as zip does
        short = vec[:rng.randint(0, k)]
        assert mat_vec(a, short) == mat_vec_by_zip(a, short)
        assert dot(vec, short) == dot_by_zip(vec, short) == dot(short, vec)


def test_kernels_on_empty_rows_and_large_entries():
    big = 2 ** 64 + 1
    assert dot((), ()) == 0 and isinstance(dot((), ()), int)
    assert mat_vec(((), ()), ()) == (0, 0) == mat_vec_by_zip(((), ()), ())
    assert mat_mul(((), ()), ()) == ((), ()) == mat_mul_by_zip(((), ()), ())
    assert dot((big, -big), (big, big)) == 0
    assert mat_vec(((big, 1), (-big, 0)), (big, -1)) == (big * big - 1, -big * big)
    assert mat_mul(((big,),), ((-big, 2),)) == ((-big * big, 2 * big),)


# ---------------------------------------------------------------------------
# hermite_normal_form

def test_hnf_diagonal_already_canonical():
    assert hermite_normal_form([(2, 0), (0, 3)]).basis == ((2, 0), (0, 3))


def test_hnf_redundant_generator():
    assert hermite_normal_form([(1, 0), (0, 1), (1, 1)]).basis == ((1, 0), (0, 1))


def test_hnf_against_elementary_row_oracle():
    rows = [(4, 6), (2, 2)]
    expected = tuple(elementary_row_hnf(rows))
    got = hermite_normal_form(rows)
    assert got.basis == expected == ((2, 0), (0, 2))
    # same span both ways
    assert all(in_span_z(v, rows) for v in got.basis)
    assert all(in_span_z(v, got.basis) for v in rows)


def test_hnf_ragged_rows_rejected():
    with pytest.raises(ValueError):
        hermite_normal_form([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        hermite_normal_form([])


def test_zero_lattice_has_empty_basis():
    assert hermite_normal_form([(0, 0), (0, 0)], 2).basis == ()
    assert Sublattice.zero(2).rank == 0
    assert Sublattice.full(3).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_constructor_rejects_non_canonical_bases():
    with pytest.raises(ValueError):
        Sublattice(2, ((0, 0),))          # zero row
    with pytest.raises(ValueError):
        Sublattice(2, ((-1, 0), (0, 1)))  # negative pivot
    with pytest.raises(ValueError):
        Sublattice(2, ((1, 5), (0, 2)))   # unreduced above the pivot
    with pytest.raises(ValueError):
        Sublattice(2, ((0, 1), (1, 0)))   # pivots out of order


def _outcome(d, basis):
    try:
        Sublattice(d, basis)
    except (TypeError, ValueError) as exc:
        return type(exc), None if isinstance(exc, TypeError) else str(exc)
    return None


def test_constructor_refusals_follow_the_staged_check():
    """One pass over the rows refuses what the staged check refuses, with
    its message: a float anywhere, then a row of the wrong length anywhere,
    come before any row's canonical-form failure."""
    rng = random.Random(0)
    for _ in range(3000):
        d = rng.randint(1, 3)
        basis = []
        for _ in range(rng.randint(0, 4)):
            length = d if rng.random() < 0.9 else rng.choice([d - 1, d + 1])
            row = [rng.choice((0, 0, 0, 1, 1, 2, 3, -1)) for _ in range(length)]
            if row and rng.random() < 0.03:
                row[rng.randrange(len(row))] = 1.0
            basis.append(tuple(row))
        assert _outcome(d, tuple(basis)) == canonical_basis_refusal(d, basis), (d, basis)
    # every stage, and the order between them
    for d, basis in [(0, ()), (2.0, ()), (2, ((0, 0), (1,))), (2, ((1, 0), (0, 1.0), (3,))),
                     (2, ((2, 5), (0, 0, 1))), (2, ((0, 1), (1, 0))), (2, ((1, 1), (0, -1))),
                     (3, ((1, 0, 2), (0, 1, 0), (0, 0, 2))), (3, ((1, 0, 1), (0, 1, 0), (0, 0, 2)))]:
        assert _outcome(d, basis) == canonical_basis_refusal(d, basis), (d, basis)
    for d in range(1, 6):
        assert _outcome(d, Sublattice.full(d).basis) is None


@st.composite
def small_matrix(draw, max_dim=4, lo=-9, hi=9):
    d = draw(st.integers(1, max_dim))
    nrows = draw(st.integers(1, max_dim + 1))
    rows = draw(st.lists(
        st.tuples(*[st.integers(lo, hi) for _ in range(d)]),
        min_size=nrows, max_size=nrows))
    return d, rows


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.randoms(use_true_random=False))
def test_hnf_invariant_under_unimodular_recombination(data, rng):
    d, rows = data
    base = hermite_normal_form(rows, d)
    shuffled = [list(r) for r in rows]
    rng.shuffle(shuffled)
    for _ in range(6):
        i = rng.randrange(len(shuffled))
        j = rng.randrange(len(shuffled))
        if i == j:
            shuffled[i] = [-a for a in shuffled[i]]
        else:
            c = rng.randint(-3, 3)
            shuffled[i] = [a + c * b for a, b in zip(shuffled[i], shuffled[j])]
    assert hermite_normal_form(shuffled, d) == base


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_hnf_agrees_with_elementary_oracle(data):
    d, rows = data
    lat = hermite_normal_form(rows, d)
    assert list(lat.basis) == elementary_row_hnf(rows)
    assert all(lat.contains_vector(r) for r in rows)


def _sympy_matrices(seed, count):
    """Seeded integer matrices up to 5 x 5 with entries in [-9, 9]."""
    rng = random.Random(seed)
    shapes = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(count)]
    return [(d, [[rng.randint(-9, 9) for _ in range(d)] for _ in range(nrows)])
            for nrows, d in shapes]


def test_hnf_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    def gram_determinant(vectors):
        m = sympy.Matrix(vectors)
        return (m * m.T).det() if vectors else 1

    for d, rows in _sympy_matrices(11, 150) + [(3, [[0, 0, 0]])]:
        lat = hermite_normal_form(rows, d)
        # sympy reduces columns: the row lattice is spanned by the columns
        # of its form of the transpose, in a different layout
        columns = sympy_hnf(sympy.Matrix(rows).T)
        other = [tuple(int(x) for x in columns.col(j)) for j in range(columns.cols)]
        assert len(other) == lat.rank
        assert gram_determinant(list(lat.basis)) == gram_determinant(other)
        assert all(lat.contains_vector(v) for v in other)
        assert all(in_span_z(v, other) for v in lat.basis)


# ---------------------------------------------------------------------------
# index

def test_index_identity():
    full = Sublattice.full(2)
    assert index(full, full) == 1


def test_index_triangular_determinant():
    assert index(Sublattice.full(2), hermite_normal_form([(2, 1), (0, 5)])) == 10


def test_index_rank_drop_is_infinite():
    assert index(Sublattice.full(2), hermite_normal_form([(1, 1)])) == INFINITE


def test_index_containment_gate():
    with pytest.raises(ValueError):
        index(hermite_normal_form([(2, 0), (0, 2)]), Sublattice.full(2))


def test_index_multiplicative_on_chains():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.randint(1, 3)
        def upper(max_diag):
            return [[rng.randint(1, max_diag) if i == j
                     else (rng.randint(-2, 2) if j > i else 0)
                     for j in range(d)] for i in range(d)]
        c = Sublattice.full(d)
        b = hermite_normal_form(upper(3), d)
        rel = upper(3)
        a_rows = [[sum(rel[i][k] * b.basis[k][j] for k in range(d))
                   for j in range(d)] for i in range(d)]
        a = hermite_normal_form(a_rows, d)
        assert index(c, a) == index(c, b) * index(b, a)


# ---------------------------------------------------------------------------
# smith_invariants

def test_smith_trivial_quotient():
    full = Sublattice.full(2)
    s = smith_invariants(full, full)
    assert s.invariant_factors == () and s.free_rank == 0
    assert prod(s.invariant_factors) == 1


def test_smith_z2_mod_2x3_by_brute_force():
    sub = hermite_normal_form([(2, 0), (0, 3)])
    count = brute_force_coset_count((2, 3), [(2, 0), (0, 3)])
    s = smith_invariants(Sublattice.full(2), sub)
    assert count == 6 == prod(s.invariant_factors)
    assert s.invariant_factors == (6,)   # Z/2 x Z/3 is cyclic
    assert s.free_rank == 0


def test_smith_free_quotient():
    s = smith_invariants(Sublattice.full(1), Sublattice.zero(1))
    assert s.invariant_factors == () and s.free_rank == 1


def test_invariant_factor_chain_is_validated():
    with pytest.raises(ValueError):
        FiniteAbelianStructure((4, 6), 0)
    with pytest.raises(ValueError):
        FiniteAbelianStructure((1,), 0)


def test_smith_vs_brute_force_coset_counting():
    rng = random.Random(20240)
    cases = 0
    while cases < 12:
        d = rng.randint(1, 3)
        diag = [rng.randint(1, 6) for _ in range(d)]
        rel = [[diag[i] if i == j else (rng.randint(-3, 3) if j > i else 0)
                for j in range(d)] for i in range(d)]
        order = 1
        for v in diag:
            order *= v
        if order > 200:
            continue
        cases += 1
        sub = hermite_normal_form(rel, d)
        s = smith_invariants(Sublattice.full(d), sub)
        assert prod(s.invariant_factors) == order == index(Sublattice.full(d), sub)
        assert brute_force_coset_count(tuple(diag), rel) == order


def test_smith_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for d, rows in _sympy_matrices(12, 150):
        s = smith_invariants(Sublattice.full(d), hermite_normal_form(rows, d))
        factors = [abs(int(f)) for f in invariant_factors(sympy.Matrix(rows))]
        nonzero = [f for f in factors if f]
        assert s.invariant_factors == tuple(f for f in nonzero if f != 1)
        assert s.free_rank == d - len(nonzero)


# ---------------------------------------------------------------------------
# intersect

def test_intersect_full():
    full = Sublattice.full(2)
    assert intersect(full, full) == full


def test_intersect_independent_axes():
    a = hermite_normal_form([(2, 0), (0, 1)])
    b = hermite_normal_form([(1, 0), (0, 3)])
    assert intersect(a, b).basis == ((2, 0), (0, 3))


def test_intersect_transverse_lines_by_scan():
    a = hermite_normal_form([(1, 1)])
    b = hermite_normal_form([(1, -1)])
    got = intersect(a, b)
    # brute force: common integer multiples s*(1,1) = t*(1,-1) in a small window
    common = [(s, s) for s in range(-10, 11)
              if any((s, s) == (t, -t) for t in range(-10, 11))]
    assert common == [(0, 0)]
    assert got == Sublattice.zero(2)


def test_intersect_properties():
    rng = random.Random(99)
    for _ in range(25):
        d = rng.randint(1, 3)
        rows_a = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(0, d))]
        rows_b = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(0, d))]
        a = hermite_normal_form(rows_a, d)
        b = hermite_normal_form(rows_b, d)
        meet = intersect(a, b)
        assert lattice_contains(a, meet) and lattice_contains(b, meet)
        assert intersect(b, a) == meet
        assert intersect(meet, meet) == meet


def test_intersect_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        intersect(Sublattice.full(2), Sublattice.full(3))


# ---------------------------------------------------------------------------
# saturation

def test_saturation_of_scaled_axis():
    assert saturation(hermite_normal_form([(2, 0)], 2)).basis == ((1, 0),)


def test_primitive_vector_is_saturated():
    assert is_saturated(hermite_normal_form([(1, 1)]))


def test_saturation_by_brute_force_membership():
    rows = [(2, 2), (0, 4)]
    sat = saturation(hermite_normal_form(rows))
    # oracle: candidates whose small multiple lands in the lattice
    for vec in [(1, 1), (1, -1), (0, 1), (1, 0)]:
        assert brute_force_saturation_member(vec, rows) == sat.contains_vector(vec)
    assert sat == Sublattice.full(2)


def test_saturation_properties():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(d)]
                for _ in range(rng.randint(0, d + 1))]
        lat = hermite_normal_form(rows, d)
        sat = saturation(lat)
        assert lattice_contains(sat, lat)
        assert saturation(sat) == sat
        assert index(sat, lat) != INFINITE


# ---------------------------------------------------------------------------
# fixed_sublattice

def test_fixed_sublattice_no_constraints():
    assert fixed_sublattice([], 2) == Sublattice.full(2)


def test_fixed_sublattice_swap():
    assert fixed_sublattice([((0, 1), (1, 0))]).basis == ((1, 1),)


def test_fixed_sublattice_gl3_reflections():
    s12 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    s23 = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    fixed = fixed_sublattice([s12, s23])
    assert fixed.basis == ((1, 1, 1),)


def test_fixed_sublattice_every_vector_is_fixed():
    mats = [((0, 1, 0), (0, 0, 1), (1, 0, 0))]
    fixed = fixed_sublattice(mats)
    for v in fixed.basis:
        for m in mats:
            assert tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3)) == v


def test_fixed_sublattice_size_mismatch():
    with pytest.raises(ValueError):
        fixed_sublattice([((1, 0), (0, 1)), ((1,),)])


# ---------------------------------------------------------------------------
# auxiliary kernels

def test_congruence_kernel_examples():
    assert congruence_kernel([(0, 1), (1, 0)], 4, 2).basis == ((4, 0), (0, 4))
    assert congruence_kernel([(2,)], 4, 1).basis == ((2,),)
    assert congruence_kernel([(3, 5)], 1, 2) == Sublattice.full(2)


def test_congruence_index_examples():
    # c . ((2,), (3,)) = 0 mod 6: the Smith diagonal is (1,), index 6
    assert congruence_index([(2,), (3,)], 6) == 6
    assert congruence_index([(2, 0), (0, 4)], 8) == 4 * 2
    assert congruence_index([(0, 0)], 5) == 1
    assert congruence_index([], 7) == 1
    with pytest.raises(ValueError):
        congruence_index([(1,)], 0)


@settings(max_examples=80, deadline=None)
@given(small_matrix(), st.integers(1, 60), st.data())
def test_congruence_index_is_the_index_of_a_congruence_kernel_meet(lat_rows, n, data):
    # [L : L meet {y : y G = 0 mod n}] for L spanned by the rows and a d x m
    # matrix G
    d, rows = lat_rows
    m = data.draw(st.integers(1, 4))
    gram = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * m), min_size=d, max_size=d))
    lat = hermite_normal_form(rows, d)
    kernel = congruence_kernel(transpose(gram), n, d)
    expected = index(lat, intersect(lat, kernel)) if lat.rank else 1
    assert congruence_index(mat_mul(lat.basis, gram), n) == expected
    # on Z^k itself: the conditions are the columns
    full = Sublattice.full(len(rows))
    assert congruence_index(rows, n) == index(full, congruence_kernel(transpose(rows), n,
                                                                      len(rows)))


def test_coset_representatives_cover_the_quotient():
    sup = Sublattice.full(2)
    sub = hermite_normal_form([(2, 1), (0, 3)])
    reps = coset_representatives(sup, sub)
    assert len(reps) == index(sup, sub) == 6
    # no two representatives are congruent
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            assert not sub.contains_vector(tuple(a - b for a, b in zip(u, v)))


# ---------------------------------------------------------------------------
# saturation by Smith factors, rank by one echelon pass, meets with Z^d

def _random_lattices(seed, count, max_d=4, bound=5):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, max_d)
        rows = [[rng.randint(-bound, bound) for _ in range(d)]
                for _ in range(rng.randint(0, d + 1))]
        yield d, rows, hermite_normal_form(rows, d)


def test_is_saturated_agrees_with_saturation():
    lattices = [lat for _, _, lat in _random_lattices(17, 300)]
    lattices += [Sublattice.zero(d) for d in (1, 3)] + [Sublattice.full(d) for d in (1, 3)]
    lattices += [hermite_normal_form([(2, 1)]), hermite_normal_form([(1, 1), (1, -1)]),
                 hermite_normal_form([(2, 0, 0), (0, 3, 0)], 3)]
    outcomes = set()
    for lat in lattices:
        outcomes.add(is_saturated(lat))
        assert is_saturated(lat) == (saturation(lat) == lat), lat
    assert outcomes == {True, False}
    assert is_saturated(Sublattice.zero(2)) and is_saturated(Sublattice.full(2))
    # (2, 1) is primitive although its pivot is 2; (1, 1), (1, -1) span index 2
    assert is_saturated(hermite_normal_form([(2, 1)]))
    assert not is_saturated(hermite_normal_form([(1, 1), (1, -1)]))


def test_is_saturated_against_brute_force_membership():
    for d, rows, lat in _random_lattices(23, 40, max_d=3, bound=3):
        basis = [list(row) for row in lat.basis]
        # a vector outside the lattice with a positive multiple inside it
        # proves the lattice is not saturated
        witness = any(not lat.contains_vector(vec)
                      and brute_force_saturation_member(vec, basis, k_max=12)
                      for vec in product(range(-2, 3), repeat=d))
        if is_saturated(lat):
            assert not witness, lat
        else:
            sat = saturation(lat)
            k_max = index(sat, lat)
            assert any(brute_force_saturation_member(row, basis, k_max)
                       for row in sat.basis if not lat.contains_vector(row)), lat


def test_integer_inputs_refuse_non_integers():
    # each was truncated by int(): (1.5, 0) read as (1, 0), 0.5 as 0
    with pytest.raises(TypeError):
        hermite_normal_form([(1.5, 0), (0, 2.9)])
    with pytest.raises(TypeError):
        Sublattice(2, ((1.0, 0), (0, 1)))
    with pytest.raises(TypeError):
        Sublattice.full(2).contains_vector((0.5, 0))
    with pytest.raises(TypeError):
        fixed_sublattice([((1.5, 0), (0, 1))])
    with pytest.raises(TypeError):
        FiniteAbelianStructure((2.5,), 0)
    with pytest.raises(TypeError):
        FiniteAbelianStructure((), 1.5)
    with pytest.raises(TypeError):
        orthogonal_lattice([(1.5, 0)], 2)
    with pytest.raises(TypeError):
        congruence_index([(1.5, 0)], 4)
    with pytest.raises(TypeError):
        rank([(1.5, 0)], 2)


def test_rows_of_the_wrong_length_are_refused():
    # a longer row lost its last entries and a shorter one raised IndexError
    with pytest.raises(ValueError, match="^condition rows must have the ambient length$"):
        orthogonal_lattice([(1, 2, 3)], 2)
    with pytest.raises(ValueError, match="^condition rows must have the ambient length$"):
        orthogonal_lattice([(1,)], 2)
    with pytest.raises(ValueError, match="^rows have unequal lengths$"):
        congruence_index([(2, 0), (0, 4, 7)], 8)
    with pytest.raises(ValueError, match="^rows have unequal lengths$"):
        congruence_index([(1, 2), (3,)], 5)
    with pytest.raises(ValueError, match="^rows must have length d$"):
        rank([(1, 2), (3,)], 2)
    with pytest.raises(ValueError, match="^rows must have length d$"):
        rank([(1, 2, 3)], 2)


def test_rank_matches_the_hnf_rank():
    for d, rows, lat in _random_lattices(29, 300, max_d=5):
        assert rank(rows, d) == lat.rank
    assert rank([], 3) == 0
    assert rank([(0, 0), (0, 0)], 2) == 0
    assert rank([(1, 2), (2, 4), (3, 6)], 2) == 1


def test_intersect_with_the_full_lattice_on_either_side():
    for d, rows, lat in _random_lattices(31, 100):
        full = Sublattice.full(d)
        # the other side itself, without an elimination
        assert intersect(full, lat) is lat
        assert intersect(lat, full) is (full if lat == full else lat)
        # a full-rank sublattice that is not Z^d still goes through the meet
        doubled = hermite_normal_form([[2 * (i == j) for j in range(d)] for i in range(d)])
        meet = intersect(doubled, lat)
        assert meet == intersect(lat, doubled)
        assert lattice_contains(doubled, meet) and lattice_contains(lat, meet)
        assert all(meet.contains_vector([2 * x for x in row]) for row in lat.basis)


def test_coset_guard_at_its_bound_and_one_past_it():
    assert MAX_COSETS == 100_000
    sup = Sublattice.full(2)
    # Z^2 / (200 Z x 500 Z) has 100,000 cosets
    reps = coset_representatives(sup, hermite_normal_form([(200, 0), (0, 500)]))
    assert len(reps) == len(set(reps)) == 100_000
    with pytest.raises(ResourceLimitError,
                       match="^the quotient has 100001 cosets, more than the coset guard 100000$"):
        coset_representatives(sup, hermite_normal_form([(1, 0), (0, 100_001)]))


# ---------------------------------------------------------------------------
# kernels and meets against their definitions, vector by vector

def _box(d, lo, hi):
    return product(range(lo, hi), repeat=d)


def test_orthogonal_lattice_by_membership():
    rng = random.Random(37)
    nonzero_members = 0
    for _ in range(60):
        d = rng.randint(1, 4)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, d))]
        lat = orthogonal_lattice(rows, d)
        for vec in _box(d, -2, 3):
            member = all(dot_by_zip(row, vec) == 0 for row in rows)
            assert lat.contains_vector(vec) == member, (rows, vec)
            nonzero_members += member and any(vec)
    assert nonzero_members
    assert orthogonal_lattice([], 3) == Sublattice.full(3)
    assert orthogonal_lattice([(0, 0)], 2) == Sublattice.full(2)
    assert orthogonal_lattice([(1, 0), (0, 1)], 2) == Sublattice.zero(2)


def test_congruence_kernel_by_membership():
    rng = random.Random(41)
    box_modulus = {1: 12, 2: 9, 3: 5, 4: 3}
    for _ in range(60):
        d = rng.randint(1, 4)
        n = rng.randint(1, box_modulus[d])
        rows = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        lat = congruence_kernel(rows, n, d)
        for vec in _box(d, 0, 2 * n):
            member = all(dot_by_zip(row, vec) % n == 0 for row in rows)
            assert lat.contains_vector(vec) == member, (rows, n, vec)
    assert congruence_kernel([], 5, 2) == Sublattice.full(2)
    assert congruence_kernel([(0, 0)], 5, 2) == Sublattice.full(2)


def test_intersect_by_membership():
    rng = random.Random(43)
    sides = set()
    for _ in range(60):
        d = rng.randint(1, 4)
        a, b = (hermite_normal_form([[rng.randint(-3, 3) for _ in range(d)]
                                     for _ in range(rng.randint(0, d))], d)
                for _ in range(2))
        sides.update((a.rank, b.rank))
        meet = intersect(a, b)
        for vec in _box(d, -3, 4) if d < 4 else _box(d, -2, 3):
            member = in_span_z(vec, a.basis) and in_span_z(vec, b.basis)
            assert meet.contains_vector(vec) == member, (a, b, vec)
    assert 0 in sides
    for d in (1, 3):
        zero, full = Sublattice.zero(d), Sublattice.full(d)
        assert intersect(zero, full) == intersect(full, zero) == zero
        assert intersect(zero, zero) == zero
