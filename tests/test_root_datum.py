from math import factorial

import pytest

from whitdim.errors import MathConstraintError
from whitdim.lattice import Sublattice, dot, mat_vec, transpose
from whitdim.root_datum import (
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
    simple_reflections,
    weyl_frobenius_fixed_lattice,
    weyl_group,
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
    assert weyl_group(rd).order == 6  # S_3


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
    assert weyl_group(build_glr(r)).order == factorial(r)


def test_gl4_weyl_group_size():
    assert weyl_group(build_glr(4)).order == 24


def test_sp4_weyl_group_by_closure():
    assert weyl_group(build_sp2r(2)).order == 8  # 2^2 * 2!


def test_spr_weyl_group_classical_orders():
    assert weyl_group(build_sp2r(3)).order == 2 ** 3 * factorial(3)


def test_weyl_elements_permute_roots_and_coroots():
    for rd in (build_glr(3), build_sp2r(2)):
        roots, coroots = frozenset(rd.roots), frozenset(rd.coroots)
        for m in weyl_group(rd).elements:
            assert {mat_vec(m, c) for c in rd.coroots} == coroots
            mt = transpose(m)
            assert {mat_vec(mt, r) for r in rd.roots} == roots


def test_weyl_rank_guard():
    with pytest.raises(ValueError):
        weyl_group(build_glr(10))


def test_weyl_data_shared_across_equal_data():
    first, second = build_glr(4), build_glr(4)
    assert first is not second
    assert weyl_group(first) is weyl_group(second)
    assert weyl_group(first).x_action is weyl_group(second).x_action


def test_weyl_membership_and_x_action():
    group = weyl_group(build_sp2r(2))
    assert all(m in group for m in group.elements)
    assert ((0, 1), (1, 0)) in group and ((1, 1), (0, 1)) not in group
    assert group.x_action == tuple(transpose(m) for m in group.elements)


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
    fx = transpose(fr.inverse)
    for i in range(2):
        x = tuple(int(k == i) for k in range(2))
        for j in range(2):
            y = tuple(int(k == j) for k in range(2))
            assert dot(mat_vec(fx, x), mat_vec(fr.matrix, y)) == dot(x, y)


def test_glr_weyl_fixed_lattice_is_diagonal():
    for r in (2, 3, 4):
        assert weyl_frobenius_fixed_lattice(build_glr(r)).basis == ((1,) * r,)


def test_frobenius_order_bound():
    # a shear has infinite order
    with pytest.raises(MathConstraintError):
        FrobeniusAction(((1, 1), (0, 1)))
    assert identity_frobenius(3).order == 1
    assert FrobeniusAction(((0, 1), (1, 0))).order == 2


def test_bad_pairing_rejected():
    with pytest.raises(MathConstraintError):
        BasedRootDatum(1, ((1,),), ((1,),), (0,))  # pairing 1, not 2


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
        for s in simple_reflections(rd):
            assert mat_mul(s, s) == identity_matrix(rd.rank)
