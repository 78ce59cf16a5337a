import gc
import random
import time
import weakref
from math import factorial

import pytest
from hypothesis import given, strategies as st

from whitdim import root_datum
from whitdim.cover import CoverSpec, WeylInvariantForm
from whitdim.errors import MathConstraintError, ResourceLimitError
from whitdim.lattice import (
    Sublattice,
    dot,
    fixed_sublattice,
    identity_matrix,
    mat_vec,
    transpose,
)
from whitdim.root_datum import (
    MAX_FROBENIUS_ORDER,
    MAX_GLR_RANK,
    BasedRootDatum,
    FrobeniusAction,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    coroot_lattice,
    frobenius_fixed_lattice,
    identity_frobenius,
    is_derived_simply_connected,
    permutation_blocks,
    weyl_fixed_lattice,
    weyl_frobenius_fixed_lattice,
    weyl_group,
    weyl_order,
)
from whitdim.whittaker import LusztigParameter, is_general_position, y_x_rho

from _oracles import (
    close_root_system_dense,
    frobenius_inverse_dense,
    frobenius_refusal_reference,
    rational_rank,
    rational_solve,
    simple_reflection_matrices,
)


def adjoint_sl2_pattern():
    # Y = Z with the doubled coroot: the derived group is not simply connected
    return BasedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,))


# ---------------------------------------------------------------------------
# constructors

def test_glr_rank_one_is_a_torus():
    rd = build_glr(1)
    assert rd.roots == () and rd.coroots == ()


def test_glr_two_roots_and_pairing():
    rd = build_glr(2)
    assert len(rd.roots) == 2
    i = rd.simple_indices[0]
    assert dot(rd.roots[i], rd.coroots[i]) == 2


def test_glr_root_count_and_weyl_order():
    rd = build_glr(3)
    assert len(rd.roots) == 6
    assert len(weyl_group(rd).elements) == 6  # S_3


def test_glr_rejects_rank_zero():
    with pytest.raises(ValueError):
        build_glr(0)


def test_slr_single_coroot_saturated():
    from whitdim.lattice import is_saturated
    rd = build_slr(2)
    assert len(rd.simple_indices) == 1
    assert is_saturated(coroot_lattice(rd))


def test_torus_swap_fixed_lattice():
    rd = build_torus(2, ((0, 1), (1, 0)))
    assert frobenius_fixed_lattice(rd).basis == ((1, 1),)


def test_sp4_cartan_matrix_is_type_c2():
    rd = build_sp2r(2)
    cartan = [[dot(rd.roots[i], rd.coroots[j]) for j in rd.simple_indices]
              for i in rd.simple_indices]
    assert cartan == [[2, -1], [-2, 2]]  # standard C_2 table, long root last


def test_closed_root_systems_keep_their_order():
    # phi_x indices and residual output follow this breadth-first order
    sl3 = build_slr(3)
    assert sl3.roots == ((2, -1), (-1, 2), (-2, 1), (1, 1), (1, -2), (-1, -1))
    assert sl3.coroots == ((1, 0), (0, 1), (-1, 0), (1, 1), (0, -1), (-1, -1))
    assert sl3.simple_indices == (0, 1)
    sp4 = build_sp2r(2)
    assert sp4.roots == ((1, -1), (0, 2), (-1, 1), (1, 1), (2, 0), (0, -2), (-1, -1), (-2, 0))
    assert sp4.coroots == ((1, -1), (0, 1), (-1, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0))
    assert sp4.simple_indices == (0, 1)


def test_builders_match_the_dense_closure_field_by_field():
    # the builders grow their simple pairs by validation's walk; the dense
    # closure they ran before, validated as given data, is the reference
    for r in range(2, 10):
        pairs = [(tuple(2 if k == i else -(abs(k - i) == 1) for k in range(r - 1)),
                  tuple(int(k == i) for k in range(r - 1))) for i in range(r - 1)]
        assert_same_datum(build_slr(r), BasedRootDatum(r - 1, *close_root_system_dense(pairs)))
    for r in range(2, 7):
        pairs = [(v, v) for v in (tuple((k == i) - (k == i + 1) for k in range(r))
                                  for i in range(r - 1))]
        pairs.append((tuple(2 * (k == r - 1) for k in range(r)),
                      tuple(int(k == r - 1) for k in range(r))))
        assert_same_datum(build_sp2r(r), BasedRootDatum(r, *close_root_system_dense(pairs)))


def assert_same_datum(built, reference):
    for field in ("rank", "roots", "coroots", "simple_indices", "heights"):
        assert getattr(built, field) == getattr(reference, field), (reference.rank, field)
    assert built.fr.matrix == reference.fr.matrix and built == reference


def test_invalid_ranks_rejected():
    for builder in (build_slr, build_sp2r):
        with pytest.raises(ValueError):
            builder(1)
    with pytest.raises(ValueError):
        build_torus(0)


# ---------------------------------------------------------------------------
# weyl groups

@pytest.mark.parametrize("r", [2, 3, 4])
def test_glr_weyl_group_sizes(r):
    assert len(weyl_group(build_glr(r)).elements) == factorial(r)


def test_gl4_weyl_group_size():
    assert len(weyl_group(build_glr(4)).elements) == 24


def test_sp4_weyl_group_by_closure():
    assert len(weyl_group(build_sp2r(2)).elements) == 8  # 2^2 * 2!


def test_spr_weyl_group_classical_orders():
    assert len(weyl_group(build_sp2r(3)).elements) == 2 ** 3 * factorial(3)


def test_weyl_elements_permute_roots_and_coroots():
    for rd in (build_glr(3), build_sp2r(2)):
        roots, coroots = frozenset(rd.roots), frozenset(rd.coroots)
        for m in weyl_group(rd).elements:
            assert {mat_vec(m, c) for c in rd.coroots} == coroots
            mt = transpose(m)
            assert {mat_vec(mt, r) for r in rd.roots} == roots


def test_weyl_rank_guard():
    # the group is built from the heights; only its elements are refused
    for r in (10, MAX_GLR_RANK):
        group = weyl_group(build_glr(r))
        assert group.order == factorial(r) and group.blocks == (tuple(range(r)),)
        with pytest.raises(ResourceLimitError,
                           match=f"^the Weyl group of order {factorial(r)} exceeds the guard"):
            group.elements


def test_weyl_order_from_the_cartan_type_matches_the_closure():
    data = ([build_glr(r) for r in range(1, 8)] + [build_slr(r) for r in range(2, 8)]
            + [build_sp2r(r) for r in range(2, 6)]
            + [build_torus(3), build_torus(2, ((0, 1), (1, 0)))])
    for rd in data:
        assert weyl_order(rd) == len(weyl_group(rd).elements), rd.rank


def datum_of_cartan(bonds, k):
    """Simply connected datum whose Cartan matrix has the given bonds (i, j, m):
    <root_i, coroot_j> = -m and <root_j, coroot_i> = -1."""
    cartan = [[2 * (i == j) for j in range(k)] for i in range(k)]
    for i, j, m in bonds:
        cartan[i][j], cartan[j][i] = -m, -1
    pairs = [(tuple(cartan[i]), tuple(int(j == i) for j in range(k))) for i in range(k)]
    return BasedRootDatum(k, *close_root_system_dense(pairs))


def chain(k, last=1):
    return [(i, i + 1, 1) for i in range(k - 2)] + [(k - 2, k - 1, last)]


DYNKIN = {
    "A3": (chain(3), 3, 24),
    "B3": (chain(3, 2), 3, 48),
    "C4": ([(1, 0, 1), (2, 1, 1), (3, 2, 2)], 4, 384),
    "D4": ([(0, 1, 1), (1, 2, 1), (1, 3, 1)], 4, 192),
    "D5": ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1)], 5, 1920),
    "G2": ([(0, 1, 3)], 2, 12),
    "F4": ([(0, 1, 1), (1, 2, 2), (2, 3, 1)], 4, 1152),
    "A1 x G2 x B2": ([(1, 2, 3), (3, 4, 2)], 5, 2 * 12 * 8),
    "E6": (chain(5) + [(2, 5, 1)], 6, 51840),
    "E7": (chain(6) + [(2, 6, 1)], 7, 2903040),
    "E8": (chain(7) + [(4, 7, 1)], 8, 696729600),
}


@pytest.mark.parametrize("name", DYNKIN)
def test_weyl_order_of_every_dynkin_type(name):
    bonds, k, order = DYNKIN[name]
    rd = datum_of_cartan(bonds, k)
    assert weyl_order(rd) == order
    group = weyl_group(rd)
    assert group.order == order and group.blocks is None
    if order <= 40320:
        assert len(group.elements) == order
    else:
        with pytest.raises(ResourceLimitError, match=f"order {order} exceeds the guard 40320"):
            group.elements


def test_simple_roots_that_are_not_a_base_are_rejected():
    # a root and its negative (the Cartan matrix ((2, -2), (-2, 2)) is
    # affine), and one root named twice: refused when the datum is built
    rd = build_glr(2)
    for simple in ((0, 1), (0, 0)):
        with pytest.raises(MathConstraintError,
                           match="^the simple roots are not a base: they are linearly dependent$"):
            BasedRootDatum(2, rd.roots, rd.coroots, simple)


def test_weyl_guard_refuses_large_groups_before_any_closure():
    # simply laced data with unit simple coroots take the gram of their
    # simple roots as an invariant form, and Sp_2r takes 2I
    covers = [CoverSpec(rd, WeylInvariantForm([rd.roots[i] for i in rd.simple_indices]), 2, 3)
              for rd in (build_slr(9), datum_of_cartan(*DYNKIN["E7"][:2]),
                         datum_of_cartan(*DYNKIN["E8"][:2]))]
    covers.append(CoverSpec(build_sp2r(6), WeylInvariantForm(
        [[2 * (i == j) for j in range(6)] for i in range(6)]), 2, 3))
    for cover in covers:
        d = cover.rank
        identity = identity_matrix(d)
        param = LusztigParameter(identity, 1, (0,) * d)
        start = time.perf_counter()
        group = weyl_group(cover.datum)
        assert group.order == weyl_order(cover.datum) > 40320 and group.blocks is None
        refusals = [lambda: group.elements,
                    lambda: identity in group,
                    lambda: group.orbit((0,) * d, 1, identity, identity),
                    lambda: y_x_rho(cover, param),
                    lambda: is_general_position(param, cover)]
        for refused in refusals:
            with pytest.raises(ResourceLimitError,
                               match=f"^the Weyl group of order {group.order} exceeds "
                                     f"the guard 40320$"):
                refused()
        assert time.perf_counter() - start < 1, group.order


def test_glr_rank_guard():
    assert build_glr(MAX_GLR_RANK).rank == MAX_GLR_RANK == 16
    for r in (17, 10 ** 5):
        with pytest.raises(ResourceLimitError, match="exceeds the rank guard 16"):
            build_glr(r)


def test_permutation_blocks():
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    two_blocks = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    outer = ((1, 0, -1), (-1, 0, 1))
    so4 = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    blocks = {
        ((0, 1, 2),): build_glr(3),
        ((0,), (1,)): build_torus(2, ((0, 1), (1, 0))),
        ((0, 1), (2, 3)): BasedRootDatum(4, two_blocks, two_blocks, (0, 2),
                                         FrobeniusAction(swap_blocks)),
        ((0, 2), (1,)): BasedRootDatum(3, outer, outer, (0,)),
    }
    for expected, rd in blocks.items():
        assert permutation_blocks(rd) == weyl_group(rd).blocks == expected
    for rd in (build_slr(3), build_sp2r(2), BasedRootDatum(2, so4, so4, (0, 2))):
        assert permutation_blocks(rd) is weyl_group(rd).blocks is None


def test_weyl_order_leaves_the_elements_unbuilt():
    # a fresh datum, whose group no other test has closed
    group = weyl_group(build_glr(7))
    assert group.order == 5040
    assert "elements" not in vars(group)


def test_a_closure_that_disagrees_with_the_heights_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(root_datum, "weyl_order", lambda rd: 5)
    group = weyl_group(build_glr(3))
    assert group.order == 5
    with pytest.raises(RuntimeError, match="^internal consistency: closure found 6 Weyl "
                                           "elements, the root heights give 5$"):
        group.elements


def test_weyl_group_held_by_its_datum():
    rd = build_glr(4)
    assert weyl_group(rd) is weyl_group(rd)
    assert weyl_group(rd).elements is weyl_group(rd).elements


def test_equal_data_built_separately_hold_their_own_groups():
    first, second = build_glr(4), build_glr(4)
    assert first == second and first is not second
    assert weyl_group(first) is not weyl_group(second)
    assert weyl_group(first).elements == weyl_group(second).elements


def test_weyl_group_freed_with_its_datum():
    rd = build_sp2r(3)
    group = weyl_group(rd)
    assert len(group.elements) == 48 and group.elements[0] in group
    ref = weakref.ref(rd)
    del rd, group
    gc.collect()
    assert ref() is None


def test_weyl_membership_and_orbit_images():
    group = weyl_group(build_sp2r(2))
    assert all(m in group for m in group.elements)
    assert ((0, 1), (1, 0)) in group and ((1, 1), (0, 1)) not in group
    # the orbit of v mod D is the set of images m^T v, each m^T a dense
    # transpose of an element
    v, denom = (1, 3), 7
    images = {tuple(x % denom for x in mat_vec(transpose(m), v)) for m in group.elements}
    in_orbit = group.orbit(v, denom, group.elements[0], identity_matrix(2))
    assert len(images) == 8
    assert {(a, b) for a in range(denom) for b in range(denom) if in_orbit((a, b))} == images


# ---------------------------------------------------------------------------
# coroot lattices and simple connectedness

def test_glr_coroot_lattice_is_sum_zero():
    lat = coroot_lattice(build_glr(3))
    assert lat.rank == 2
    assert all(sum(v) == 0 for v in lat.basis)
    assert not lat.contains_vector((1, 0, 0))


def test_torus_coroot_lattice_is_zero():
    assert coroot_lattice(build_torus(2)) == Sublattice.zero(2)


def test_slr_coroot_lattice_is_full():
    assert coroot_lattice(build_slr(3)) == Sublattice.full(2)


def test_derived_simply_connected():
    assert is_derived_simply_connected(build_glr(4))
    assert is_derived_simply_connected(build_torus(3))
    assert not is_derived_simply_connected(adjoint_sl2_pattern())


# ---------------------------------------------------------------------------
# structural invariants

def test_frobenius_commutes_with_pairing():
    fr = FrobeniusAction(((0, 1), (1, 0)))
    fx = transpose(frobenius_inverse_dense(fr.matrix))
    for i in range(2):
        x = tuple(int(k == i) for k in range(2))
        for j in range(2):
            y = tuple(int(k == j) for k in range(2))
            assert dot(mat_vec(fx, x), mat_vec(fr.matrix, y)) == dot(x, y)


def test_glr_weyl_fixed_lattice_is_diagonal():
    for r in (2, 3, 4):
        rd = build_glr(r)
        assert weyl_frobenius_fixed_lattice(rd).basis == ((1,) * r,)
        # with the identity Frobenius the meet is Y^W itself
        assert weyl_frobenius_fixed_lattice(rd) is weyl_fixed_lattice(rd)


def test_frobenius_order_bound():
    # a shear has infinite order
    with pytest.raises(MathConstraintError):
        FrobeniusAction(((1, 1), (0, 1)))
    assert identity_frobenius(3).order == 1
    assert FrobeniusAction(((0, 1), (1, 0))).order == 2


def _naive_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _dense_order(mat):
    """The order of mat by dense products, or None above MAX_FROBENIUS_ORDER."""
    d = len(mat)
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    acc = [list(row) for row in mat]
    for k in range(1, MAX_FROBENIUS_ORDER + 1):
        if acc == identity:
            return k
        acc = _naive_mul(acc, mat)
    return None


def _assert_order_as_dense(mat):
    expected = _dense_order(mat)
    if expected is None:
        with pytest.raises(MathConstraintError, match="finite order <= 24$"):
            FrobeniusAction(mat)
    else:
        assert FrobeniusAction(mat).order == expected


#: Every Frobenius matrix the test suite builds, the refused ones included.
SUITE_FROBENIUS = [
    *(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)) for d in (1, 2, 3, 4, 7)),
    ((0, 1), (1, 0)),
    ((1, 1), (0, 1)),
    ((1, 0), (0, -1)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((0, 0, -1), (0, -1, 0), (-1, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0)),
]


@pytest.mark.parametrize("mat", SUITE_FROBENIUS)
def test_frobenius_order_matches_dense_powers_on_suite_matrices(mat):
    _assert_order_as_dense(mat)


def _signed_permutation_conjugate(perm, signs, elementary):
    """U P U^-1 for the signed permutation matrix P with signs[i] in column
    perm[i] of row i and U the product of the elementary matrices
    I + c E_ij, (i, j, c) in ``elementary`` with i != j: a dense matrix of
    the same order as P."""
    d = len(perm)
    mat = [[signs[i] if j == perm[i] else 0 for j in range(d)] for i in range(d)]
    for i, j, c in elementary:
        if i != j:
            elem = [[int(a == b) + (c if (a, b) == (i, j) else 0) for b in range(d)]
                    for a in range(d)]
            inv = [[int(a == b) - (c if (a, b) == (i, j) else 0) for b in range(d)]
                   for a in range(d)]
            mat = _naive_mul(_naive_mul(elem, mat), inv)
    return mat


@st.composite
def conjugated_signed_permutations(draw):
    """:func:`_signed_permutation_conjugate` of drawn inputs."""
    d = draw(st.integers(1, 5))
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    pairs = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2))
    return _signed_permutation_conjugate(perm, signs, draw(st.lists(pairs, max_size=4)))


@given(conjugated_signed_permutations())
def test_frobenius_order_matches_dense_powers_on_conjugates(mat):
    _assert_order_as_dense(mat)


@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.integers(-1, 1), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_frobenius_order_matches_dense_powers_on_small_matrices(mat):
    _assert_order_as_dense(mat)


def test_long_frobenius_cycle_is_refused_quickly():
    # a 120-cycle has order 120, so all 24 powers are formed before refusing
    d = 120
    cycle = [[int(j == (i + 1) % d) for j in range(d)] for i in range(d)]
    start = time.perf_counter()
    with pytest.raises(MathConstraintError,
                       match="^Frobenius matrix must have finite order <= 24$"):
        FrobeniusAction(cycle)
    assert time.perf_counter() - start < 0.3


def test_large_permutation_frobenius_order_is_quick():
    # twelve 8-cycles and eight 3-cycles: order 24, the largest accepted, so
    # every power up to the 24th is formed
    lengths = [8] * 12 + [3] * 8
    starts = [sum(lengths[:k]) for k in range(len(lengths))]
    perm = [s + (i + 1) % n for s, n in zip(starts, lengths) for i in range(n)]
    d = len(perm)
    start = time.perf_counter()
    fr = FrobeniusAction([[int(j == perm[i]) for j in range(d)] for i in range(d)])
    assert time.perf_counter() - start < 0.3
    assert fr.order == 24


def test_dual_frobenius_check_matches_the_inverse_transpose():
    # validation maps the roots by F^T; the reference inverts F by dense
    # powers and maps them by F^-T, after the two coroot checks
    rng = random.Random(0)
    seen = set()
    for rd in (build_glr(3), build_slr(3), build_sp2r(2), build_torus(3)):
        d = rd.rank
        for _ in range(1500):
            elementary = [(rng.randrange(d), rng.randrange(d), rng.randint(-2, 2))
                          for _ in range(rng.randint(0, 3))]
            mat = _signed_permutation_conjugate(rng.sample(range(d), d),
                                                [rng.choice((1, -1)) for _ in range(d)],
                                                elementary)
            expected = frobenius_refusal_reference(rd.roots, rd.coroots, rd.simple_indices, mat)
            try:
                BasedRootDatum(d, rd.roots, rd.coroots, rd.simple_indices, FrobeniusAction(mat))
                refusal = None
            except MathConstraintError as exc:
                refusal = str(exc)
            assert refusal == expected, (rd.roots, mat)
            seen.add(refusal)
    assert {None, "the dual Frobenius does not permute the roots"} <= seen


def test_bad_pairing_rejected():
    with pytest.raises(MathConstraintError):
        BasedRootDatum(1, ((1,),), ((1,),), (0,))  # pairing 1, not 2


def test_simple_reflections_must_permute_roots_and_coroots():
    # s_0 sends the coroot (2, 0) to (0, 2); the roots are those of GL_2 plus +-(1, 1)
    with pytest.raises(MathConstraintError,
                       match="^simple reflection 0 does not permute the coroots$"):
        BasedRootDatum(2, ((1, -1), (-1, 1), (1, 1), (-1, -1)),
                       ((1, -1), (-1, 1), (2, 0), (-2, 0)), (0,))
    # with the two roles exchanged the coroots are permuted, but the root
    # (2, 0) goes to (0, 2)
    with pytest.raises(MathConstraintError,
                       match="^simple reflection 0 does not permute the roots$"):
        BasedRootDatum(2, ((1, -1), (-1, 1), (2, 0), (-2, 0)),
                       ((1, -1), (-1, 1), (1, 1), (-1, -1)), (0,))


def test_roots_not_conjugate_to_a_simple_root_are_refused():
    # GL_3 with one simple root: its reflection alone gives |W| = 2, while
    # the roots span rank 2
    rd = build_glr(3)
    with pytest.raises(MathConstraintError,
                       match=r"^the root \(1, 0, -1\) is not Weyl-conjugate to a simple root$"):
        BasedRootDatum(3, rd.roots, rd.coroots, rd.simple_indices[:1])
    # roots without simple roots: none is reached
    with pytest.raises(MathConstraintError, match="is not Weyl-conjugate to a simple root$"):
        BasedRootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (-1, 1)), ())


def test_frobenius_refusals_come_before_the_closure():
    # the roots +-(1, 1, 0) are not Weyl-conjugate to the simple root, but a
    # Frobenius that is not a based automorphism is named first
    roots = ((1, -1, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0))
    coroots = ((1, -1, 0), (-1, 1, 0), (1, 1, 1), (-1, -1, -1))
    refusals = {
        ((1, 0, 0), (0, 1, 0), (0, 0, -1)): "Frobenius does not permute the coroots",
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)): "Frobenius does not preserve the simple coroots",
    }
    for fr, message in refusals.items():
        with pytest.raises(MathConstraintError, match=f"^{message}$"):
            BasedRootDatum(3, roots, coroots, (0,), FrobeniusAction(fr))


def test_the_closure_refuses_an_image_that_is_not_a_pair(monkeypatch):
    # GL_2 with the coroot of -alpha moved to (0, 2): s_0 sends the simple
    # pair to (-alpha, -alpha^vee), which is not a given pair.  The datum is
    # refused with the message of the reflection check, which s_0 fails too
    roots, coroots = ((1, -1), (-1, 1)), ((1, -1), (0, 2))
    with pytest.raises(MathConstraintError,
                       match="^simple reflection 0 does not permute the coroots$"):
        BasedRootDatum(2, roots, coroots, (0,))
    # the closure's own message, without the reflection check
    monkeypatch.setattr(root_datum, "_refusal",
                        lambda roots, coroots, simple, message: MathConstraintError(message))
    with pytest.raises(MathConstraintError) as refused:
        BasedRootDatum(2, roots, coroots, (0,))
    assert str(refused.value) == (
        "a simple reflection sends the root (1, -1) with coroot (1, -1) to (-1, 1) "
        "with (-1, 1), which is not a (root, coroot) pair")


def test_heights_are_the_sums_of_simple_root_coefficients():
    for rd in (build_glr(5), build_slr(4), build_sp2r(3), build_torus(2)):
        simple = [rd.roots[i] for i in rd.simple_indices]
        for root, height in zip(rd.roots, rd.heights):
            # root = sum of c_i alpha_i, solved on the rational span
            coeffs = rational_solve(transpose(simple), root)
            assert coeffs is not None and sum(coeffs) == height
            assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)
        assert rd.semisimple_rank == rational_rank(rd.roots) == len(rd.simple_indices)


def test_non_integer_entries_are_refused():
    # (1.9, -1) was read as the root (1, -1), and 0.0 as the index 0
    with pytest.raises(TypeError):
        BasedRootDatum(2, ((1.9, -1), (-1, 1)), ((1, -1), (-1, 1)), (0,))
    with pytest.raises(TypeError):
        BasedRootDatum(2, ((1, -1), (-1, 1)), ((1, -1), (-1, 1)), (0.0,))


def test_frobenius_must_permute_coroots():
    rd = build_glr(2)
    with pytest.raises(MathConstraintError):
        BasedRootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices,
                       FrobeniusAction(((1, 0), (0, -1))))


def test_frobenius_must_preserve_the_simple_system():
    # the swap on Y of GL_2 is the nontrivial Weyl element: it permutes the
    # roots but flips the positive one, so it is not a based automorphism
    rd = build_glr(2)
    with pytest.raises(MathConstraintError):
        BasedRootDatum(rd.rank, rd.roots, rd.coroots, rd.simple_indices,
                       FrobeniusAction(((0, 1), (1, 0))))


def test_cartan_entry_out_of_range_rejected():
    # GL_3 with the simple roots e_1 - e_2 and e_1 - e_3, which pair to 1
    rd = build_glr(3)
    with pytest.raises(MathConstraintError,
                       match="^Cartan entry <root 0, coroot 1> = 1 is out of range$"):
        BasedRootDatum(3, rd.roots, rd.coroots, (0, 1))


def test_dual_frobenius_must_permute_the_roots():
    # Frobenius fixes the coroots +-(2, 0), but its dual sends the root
    # (1, 1) to (1, -1)
    with pytest.raises(MathConstraintError,
                       match="^the dual Frobenius does not permute the roots$"):
        BasedRootDatum(2, ((1, 1), (-1, -1)), ((2, 0), (-2, 0)), (0,),
                       FrobeniusAction(((1, 0), (0, -1))))


def test_restriction_of_scalars_frobenius_accepted():
    # two GL_2 blocks swapped by Frobenius: a genuine quasisplit non-split datum
    roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    rd = BasedRootDatum(4, roots, roots, (0, 2), FrobeniusAction(swap_blocks))
    assert rd.fr.order == 2
    assert weyl_frobenius_fixed_lattice(rd).basis == ((1, 1, 1, 1),)
    assert frobenius_fixed_lattice(rd).basis == ((1, 0, 1, 0), (0, 1, 0, 1))


def test_simple_reflections_square_to_identity():
    from whitdim.lattice import identity_matrix, mat_mul
    for rd in (build_glr(3), build_slr(3), build_sp2r(2)):
        for s in simple_reflection_matrices(rd):
            assert mat_mul(s, s) == identity_matrix(rd.rank)
            assert s in weyl_group(rd)


# ---------------------------------------------------------------------------
# fixed lattices held on the datum; reflection checks by images

def _cycle(d, shift):
    return tuple(tuple(int(j == (i + shift) % d) for j in range(d)) for i in range(d))


def test_held_fixed_lattices_match_fresh_kernels():
    block_roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    data = ([build_glr(r) for r in range(1, 8)] + [build_slr(r) for r in range(2, 8)]
            + [build_sp2r(r) for r in range(2, 6)]
            + [build_torus(d, _cycle(d, shift)) for d in (1, 2, 3, 4, 6) for shift in (0, 1)]
            + [build_torus(4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
            + [BasedRootDatum(4, block_roots, block_roots, (0, 2),
                              FrobeniusAction(swap_blocks))])
    for rd in data:
        reflections = simple_reflection_matrices(rd)
        fr = rd.fr.matrix
        expected = (fixed_sublattice(reflections, rd.rank),
                    fixed_sublattice([fr], rd.rank),
                    fixed_sublattice(reflections + [fr], rd.rank))
        getters = (weyl_fixed_lattice, frobenius_fixed_lattice, weyl_frobenius_fixed_lattice)
        for getter, lattice in zip(getters, expected):
            assert getter(rd) == lattice, (rd.rank, getter.__name__)
            assert getter(rd) is getter(rd)


def _first_reflection_failure(roots, coroots, simple):
    """The message of the first simple reflection that fails to permute the
    coroots or the roots, comparing whole image sets."""
    def reflect(v, pairing, u):
        k = dot(pairing, v)
        return tuple(x - k * y for x, y in zip(v, u))

    for i in simple:
        a, av = roots[i], coroots[i]
        if {reflect(c, a, av) for c in coroots} != set(coroots):
            return f"simple reflection {i} does not permute the coroots"
        if {reflect(r, av, a) for r in roots} != set(roots):
            return f"simple reflection {i} does not permute the roots"
    return None


def test_mutated_data_fail_the_first_reflection_check():
    seen = set()
    for rd in (build_glr(3), build_glr(4), build_slr(3), build_sp2r(2), build_sp2r(3)):
        d = rd.rank
        shifts = [tuple(int(k == j) for k in range(d)) for j in range(d)]
        shifts += [tuple(-x for x in u) for u in shifts]
        for j in range(len(rd.roots)):
            for u in shifts:
                for which in ("roots", "coroots"):
                    roots, coroots = list(rd.roots), list(rd.coroots)
                    target = coroots if which == "coroots" else roots
                    other = roots if which == "coroots" else coroots
                    # keep the pairing with the partner at 2
                    if dot(other[j], u):
                        continue
                    target[j] = tuple(x + y for x, y in zip(target[j], u))
                    if len(set(roots)) != len(roots):
                        continue
                    message = _first_reflection_failure(roots, coroots, rd.simple_indices)
                    if message is None:
                        continue
                    seen.add(message.split()[-1])
                    with pytest.raises(MathConstraintError, match=f"^{message}$"):
                        BasedRootDatum(d, roots, coroots, rd.simple_indices)
    assert seen == {"roots", "coroots"}
