from fractions import Fraction
from itertools import product

import pytest

from whitdim.cover import CoverSpec, WeylInvariantForm, glr_cover
from whitdim.errors import MathConstraintError
from whitdim.parahoric import (
    ApartmentPoint,
    ConductorVector,
    conductor_shift,
    hyperspecial_conductors,
    is_hyperspecial,
    is_vertex,
    parse_rational,
    phi_x,
    relative_simple_orbits,
    residual_derived_simply_connected,
    residual_extension,
    residual_splits,
)
from whitdim.root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
)

from _oracles import residual_splits_reference

H = Fraction(1, 2)


def sl2_cover(q_coroot=1, n=1, q=5):
    return CoverSpec(build_slr(2), WeylInvariantForm(((2 * q_coroot,),)), n, q)


def adjoint_cover():
    datum = BasedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,))
    return CoverSpec(datum, WeylInvariantForm(((2,),)), 1, 5)


# ---------------------------------------------------------------------------
# points and phi_x

def test_parse_rational_forms():
    assert parse_rational("2") == 2
    assert parse_rational("-1/3") == Fraction(-1, 3)
    assert parse_rational("+7/2") == Fraction(7, 2)
    for bad in ("1.5", "x", "1/0", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_point_parse():
    assert ApartmentPoint.parse("1/2,-1/2").coords == (H, -H)


def test_phi_x_at_origin_is_everything():
    rd = build_glr(2)
    assert phi_x(rd, (0, 0)) == (0, 1)


def test_phi_x_third_point_is_empty():
    assert phi_x(build_glr(2), (Fraction(1, 3), 0)) == ()


def test_phi_x_half_antidiagonal_is_everything():
    assert phi_x(build_glr(2), (H, -H)) == (0, 1)


def test_phi_x_requires_frobenius_fixed_points():
    torus = build_torus(2, ((0, 1), (1, 0)))
    with pytest.raises(MathConstraintError):
        phi_x(torus, (H, 0))
    assert phi_x(torus, (H, H)) == ()


def test_phi_x_invariant_under_cocharacter_translation():
    rd = build_glr(3)
    base = (Fraction(1, 3), 0, Fraction(2, 3))
    shifted = tuple(c + t for c, t in zip(base, (1, -2, 5)))
    assert phi_x(rd, base) == phi_x(rd, shifted)


# ---------------------------------------------------------------------------
# residual extensions

def test_residual_last_coordinate_zero_at_origin():
    for cover in (glr_cover(2, 0, 1, 4, 5), glr_cover(3, 1, 1, 2, 5), sl2_cover()):
        res = residual_extension(cover, (0,) * cover.rank)
        assert res.phi_x == tuple(range(len(cover.datum.roots)))
        assert all(vec[-1] == 0 for vec in res.iota)


def test_residual_sl2_at_half_coroot():
    res = residual_extension(sl2_cover(q_coroot=1), (H,))
    assert set(res.iota) == {(1, 1), (-1, -1)}


def test_residual_gl2_kp_at_integral_point():
    cover = glr_cover(2, 0, 1, 4, 5)  # Q(coroot) = -1
    res = residual_extension(cover, (1, 0))
    table = dict(zip(res.phi_x, res.iota))
    assert table[0] == (1, -1, -1)   # root e_1 - e_2, value 1


def test_hyperspecial_and_vertex_flags():
    rd = build_glr(2)
    assert is_hyperspecial(rd, (0, 0)) and is_vertex(rd, (0, 0))
    assert not is_hyperspecial(rd, (H, 0)) and not is_vertex(rd, (H, 0))
    assert is_hyperspecial(rd, (H, -H))
    sp4 = build_sp2r(2)
    assert is_vertex(sp4, (H, 0)) and not is_hyperspecial(sp4, (H, 0))
    assert is_hyperspecial(sp4, (H, H))


def test_residual_derived_simply_connected():
    for x in [(0, 0), (1, 0), (H, -H)]:
        assert residual_derived_simply_connected(glr_cover(2, 0, 1, 4, 5), x)
    assert residual_derived_simply_connected(sl2_cover(), (0,))
    assert not residual_derived_simply_connected(adjoint_cover(), (0,))


def test_residual_splits_at_origin():
    for cover in (glr_cover(2, 0, 1, 4, 5), sl2_cover(), adjoint_cover()):
        assert residual_splits(cover, (0,) * cover.rank)


def test_residual_splits_glr_everywhere_integral():
    # derived-simply-connected ambient group: full-rank points always split
    cover = glr_cover(3, 1, 1, 2, 5)
    for x in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, -1, 3)]:
        assert is_hyperspecial(cover.datum, x)
        assert residual_splits(cover, x)


def test_residual_splits_sl2_at_half_coroot():
    # the map coroot -> 1 extends over Y = Z coroot
    assert residual_splits(sl2_cover(q_coroot=1), (H,))


def test_residual_split_failure_case():
    # SO_4 pattern: coroots (1,1) and (1,-1) span an index-2 sublattice; with
    # the hyperbolic form the extension forces 2*kappa(e_1) = 1, impossible
    roots = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    rd = BasedRootDatum(2, roots, roots, (0, 2))
    cover = CoverSpec(rd, WeylInvariantForm(((0, 1), (1, 0))), 1, 5)
    assert residual_splits(cover, (0, 0))
    assert not residual_splits(cover, (H, H))


def test_residual_splits_respects_fr_equivariance():
    # swap-Frobenius torus: no coroot conditions, zero map always works
    torus = build_torus(2, ((0, 1), (1, 0)))
    cover = CoverSpec(torus, WeylInvariantForm(((2, 0), (0, 2))), 2, 5)
    assert residual_splits(cover, (1, 1))


def block_swap_cover():
    # two GL_2 blocks swapped by Frobenius, each with the Kazhdan-Patterson form
    roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    rd = BasedRootDatum(4, roots, roots, (0, 2), FrobeniusAction(swap_blocks))
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    return CoverSpec(rd, WeylInvariantForm(gram), 2, 5)


def test_residual_splits_matches_reference():
    # every point with denominators <= 4 in [-1, 1]^d; the SO_4 pattern adds
    # points that do not split
    values = sorted({Fraction(a, b) for b in (1, 2, 3, 4) for a in range(-b, b + 1)})
    so4 = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    covers = (glr_cover(3, 0, 1, 4, 5),
              CoverSpec(build_slr(3), WeylInvariantForm(((2, -1), (-1, 2))), 2, 5),
              CoverSpec(build_sp2r(2), WeylInvariantForm(((2, 0), (0, 2))), 4, 5),
              CoverSpec(BasedRootDatum(2, so4, so4, (0, 2)),
                        WeylInvariantForm(((0, 1), (1, 0))), 1, 5),
              block_swap_cover())
    outcomes = set()
    for cover in covers:
        for x in product(values, repeat=cover.rank):
            expected = residual_splits_reference(cover, x)
            if expected is None:
                with pytest.raises(MathConstraintError):
                    residual_splits(cover, x)
            else:
                assert residual_splits(cover, x) == expected, (cover.datum.rank, x)
            outcomes.add(expected)
    assert outcomes == {None, True, False}


# ---------------------------------------------------------------------------
# conductors

def test_conductor_shift_identity():
    c = ConductorVector((1, 1))
    assert conductor_shift(c, (0, 0)).values == (1, 1)


def test_conductor_shift_componentwise():
    assert conductor_shift(ConductorVector((1, 1)), (2, -1)).values == (3, 0)


def test_conductor_shift_length_gate():
    with pytest.raises(ValueError):
        conductor_shift(ConductorVector((1, 1)), (1,))


def test_hyperspecial_conductors():
    rd = build_glr(3)
    assert hyperspecial_conductors(rd, (0, 0, 0)).values == (1, 1)
    assert hyperspecial_conductors(rd, (1, 0, 0)).values == (2, 1)
    with pytest.raises(MathConstraintError):
        hyperspecial_conductors(rd, (Fraction(1, 3), 0, 0))


def test_relative_simple_orbits_with_frobenius():
    roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    rd = BasedRootDatum(4, roots, roots, (0, 2), FrobeniusAction(swap_blocks))
    assert relative_simple_orbits(rd) == ((0, 2),)
    assert hyperspecial_conductors(rd, (0, 0, 0, 0)).values == (1,)
