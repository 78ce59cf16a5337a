import hashlib
import random
import time
from fractions import Fraction
from itertools import cycle, permutations, product
from math import factorial, gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from whitdim import root_datum
from whitdim.cover import CoverSpec, WeylInvariantForm, central_index, glr_cover, m_qr
from whitdim.errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from whitdim.lattice import (
    MAX_COSETS,
    Sublattice,
    congruence_kernel,
    hermite_normal_form,
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
)
from whitdim.root_datum import (
    MAX_GLR_RANK,
    BasedRootDatum,
    FrobeniusAction,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    weyl_group,
)
from whitdim.whittaker import (
    MAX_ORACLE_SCAN,
    LusztigParameter,
    _GLrSolver,
    _orbit_pass,
    enumerate_glr_table,
    glr_coxeter_parameter,
    glr_table,
    is_general_position,
    squeeze_bounds,
    wh_dim_glr_closed,
    wh_dim_oracle,
    xi_of,
    y_x_rho,
)

from _oracles import (
    TABLE_CASES,
    TABLE_FORMS,
    TABLE_WINDOW_CASES,
    close_root_system_dense,
    coset_scan_reference,
    coxeter_cycle_reference,
    glr_dimension_scan,
    glr_general_position,
    lattice_contains,
    oracle_scan_fractions,
    orbit_search_reference,
    simple_reflection_matrices,
    table_blocks_by_filter,
    theta_solutions,
    twisted_centralizer_fixing,
)

KP = glr_cover(2, 0, 1, 4, 5)


# ---------------------------------------------------------------------------
# xi_of

def test_xi_vanishes_on_y_qn_members():
    cover = glr_cover(1, 1, 0, 4, 5)
    assert xi_of(cover, (2,)) == (Fraction(0),)
    assert xi_of(cover, (4,)) == (Fraction(0),)


def test_xi_kp_gl2_center():
    assert xi_of(KP, (1, 1)) == (Fraction(1, 4), Fraction(1, 4))


def test_xi_zero_for_degree_one():
    cover = glr_cover(2, 0, 1, 1, 5)
    assert xi_of(cover, (1, 1)) == (Fraction(0), Fraction(0))


def test_xi_rejects_non_invariant_vectors():
    with pytest.raises(MathConstraintError):
        xi_of(KP, (1, 0))


def test_xi_refuses_a_non_integer_cocharacter():
    # 3/2 was read as 1, and (1, 1) is invariant
    with pytest.raises(TypeError):
        xi_of(glr_cover(2, 1, 0, 4, 5), (Fraction(3, 2),) * 2)


def test_xi_additive_and_vanishing_exactly_on_the_meet():
    cover = glr_cover(2, 1, -1, 6, 7)
    for k in range(-6, 7):
        for k2 in range(-3, 4):
            y1, y2 = (k, k), (k2, k2)
            s = tuple(a + b for a, b in zip(y1, y2))
            lhs = tuple((a + b) % 1 for a, b in zip(xi_of(cover, y1), xi_of(cover, y2)))
            assert lhs == xi_of(cover, s)
    from whitdim.cover import y_qn
    from whitdim.lattice import intersect
    from whitdim.root_datum import weyl_frobenius_fixed_lattice
    meet = intersect(weyl_frobenius_fixed_lattice(cover.datum), y_qn(cover))
    for k in range(-12, 13):
        vals = xi_of(cover, (k, k))
        zero = all(v == 0 for v in vals)
        assert zero == meet.contains_vector((k, k))
        # annihilated by q - 1 since n | q - 1
        assert all((cover.q - 1) * v % 1 == 0 for v in vals)


# ---------------------------------------------------------------------------
# parameters

def test_coxeter_parameter_r2_q5_a1():
    p = glr_coxeter_parameter(2, 5, 1)
    assert p.theta == (Fraction(1, 24), Fraction(5, 24))


def test_coxeter_parameter_r1():
    assert glr_coxeter_parameter(1, 5, 2).theta == (Fraction(1, 2),)


def test_coxeter_parameter_central_exponent():
    assert glr_coxeter_parameter(2, 5, 1, 4).central_exponent == Fraction(1, 4)
    assert glr_coxeter_parameter(2, 5, 1, 1).central_exponent == Fraction(0)


def test_coxeter_parameter_refuses_a_degree_below_one():
    # 0 once dropped the 1/n pin; -4 pinned central to 18/24 = 3/4
    for n in (0, -4):
        with pytest.raises(ValueError, match="^cover degree n must be a positive integer$"):
            glr_coxeter_parameter(2, 5, 7, n)
    # the default degree 1 pins the central exponent to 0
    assert glr_coxeter_parameter(2, 5, 7).central == 0
    assert glr_coxeter_parameter(2, 5, 7) == glr_coxeter_parameter(2, 5, 7, 1)


def test_coxeter_parameter_refuses_an_exponent_or_degree_that_is_no_integer():
    for args in ((2, 5, 1.0), (2, 5, Fraction(1)), (2, 5.0, 1), (2, Fraction(5), 1),
                 (2, 5, 1, 4.0), (2, 5, 1, Fraction(4))):
        with pytest.raises(TypeError):
            glr_coxeter_parameter(*args)


def test_coxeter_parameter_range_check():
    message = r"^exponent a must lie in \[0, q\^r - 1\) = \[0, 24\)$"
    for a in (24, -1):
        with pytest.raises(ValueError, match=message):
            glr_coxeter_parameter(2, 5, a)
        for route in (wh_dim_glr_closed, wh_dim_oracle):
            with pytest.raises(ValueError, match=message):
                route(2, 5, 4, 0, 1, a)
    # with both q and a out of range, q is named first, on all three routes:
    # below 2 as well as 6 as no prime power
    with pytest.raises(MathConstraintError, match="^q must be a prime power >= 2$"):
        glr_coxeter_parameter(2, 1, -1)
    with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
        glr_coxeter_parameter(2, 6, -1, 5)
    for route in (wh_dim_glr_closed, wh_dim_oracle):
        with pytest.raises(MathConstraintError, match="^q must be a prime power >= 2$"):
            route(2, 1, 1, 0, 1, -1)
        with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
            route(2, 6, 5, 0, 1, -1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 10 ** 6), st.data())
def test_parameter_round_trips_through_its_rationals(d, denominator, data):
    numbers = st.integers(-10 ** 9, 10 ** 9)
    nums = tuple(data.draw(numbers) for _ in range(d))
    central = data.draw(numbers)
    w = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    p = LusztigParameter(w, denominator, nums, central)
    assert LusztigParameter.from_theta(w, p.theta, p.central_exponent) == p
    assert p.theta == tuple(Fraction(x, denominator) % 1 for x in nums)
    assert p.central_exponent == Fraction(central, denominator) % 1
    k = data.draw(st.integers(1, 10 ** 6))
    scaled = LusztigParameter(w, k * denominator, tuple(k * x for x in nums), k * central)
    assert scaled == p and hash(scaled) == hash(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4), st.data())
def test_constructor_normalises_like_fractions(d, denominator, k, data):
    # numerators k * x over k * denominator, with x of either sign and past
    # the denominator: unreduced entries sharing at least the factor k
    numbers = st.integers(-10 ** 12, 10 ** 12)
    w = tuple(tuple(data.draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(d))
    nums = tuple(k * data.draw(numbers) for _ in range(d))
    central = k * data.draw(numbers)
    p = LusztigParameter(w, k * denominator, nums, central)
    entries = [Fraction(x, k * denominator) % 1 for x in (*nums, central)]
    lowest = lcm(*(t.denominator for t in entries))
    *expected, expected_central = (int(t * lowest) for t in entries)
    assert (p.w, p.denominator, p.numerators, p.central) == (
        w, lowest, tuple(expected), expected_central)
    assert LusztigParameter.from_theta(w, entries[:-1], entries[-1]) == p
    # equal parameters, written with another denominator and other numerators
    j = data.draw(st.integers(1, 100))
    shifts = [data.draw(numbers) for _ in range(d + 1)]
    twin = LusztigParameter(
        [list(row) for row in w], j * k * denominator,
        [j * x + s * j * k * denominator for x, s in zip(nums, shifts)],
        j * central + shifts[-1] * j * k * denominator)
    assert twin == p and hash(twin) == hash(p)


def test_parameter_is_read_in_lowest_terms():
    # 5/10 = 1/2: the denominator 10 shares the factor 5 with q = 5, the
    # exponent does not
    w = glr_coxeter_parameter(1, 5, 0).w
    param = LusztigParameter(w, 10, (5,))
    assert (param.denominator, param.numerators, param.theta) == (2, (1,), (Fraction(1, 2),))
    assert param == LusztigParameter.from_theta(w, (Fraction(1, 2),))
    assert y_x_rho(glr_cover(1, 0, 0, 1, 5), param)[1] == 1
    with pytest.raises(ValueError, match="denominator must be a positive integer"):
        LusztigParameter(w, 0, (0,))


def test_parameter_refuses_float_exponents():
    # 0.1 was read as the binary fraction 3602879701896397/2^55
    w = ((1, 0), (0, 1))
    with pytest.raises(TypeError):
        LusztigParameter.from_theta(w, (0.1, 0.3))
    with pytest.raises(TypeError):
        LusztigParameter.from_theta(w, (0, 0), 0.5)
    assert LusztigParameter.from_theta(w, (1, Fraction(3, 10))).denominator == 10


def test_parameter_refuses_a_non_integer_twist():
    # the entries were truncated to the swap ((0, 1), (1, 0))
    with pytest.raises(TypeError):
        LusztigParameter(((0.9, 1), (1, 0.2)), 5, (1, 2))


def test_coxeter_parameter_matches_its_rational_definition():
    # every n | q - 1 at r <= 3 and at r = 4, 5 on q = 2, 3; a degree that
    # does not divide q - 1 is refused at every exponent, as on the other
    # GL_r routes, so the denominator always divides q^r - 1
    for r in (1, 2, 3):
        for n in (5, 7, 9):
            for a in range(5 ** r - 1):
                with pytest.raises(MathConstraintError,
                                   match=f"^cover degree n = {n} must divide q - 1 = 4$"):
                    glr_coxeter_parameter(r, 5, a, n)
    cases = [(r, q, _divisors(q - 1)) for q in (2, 3, 4, 5, 7) for r in (1, 2, 3)]
    cases += [(r, q, _divisors(q - 1)) for q in (2, 3) for r in (4, 5)]
    for r, q, degrees in cases:
        r_cycle = tuple(tuple(int(i == (j + 1) % r) for j in range(r)) for i in range(r))
        assert glr_coxeter_parameter(r, q, 0).w == r_cycle
        modulus = q ** r - 1
        for n in degrees:
            central = Fraction(1, n)
            for a in range(modulus):
                p = glr_coxeter_parameter(r, q, a, n)
                theta = [Fraction(a * q ** i, modulus) for i in range(r)]
                assert modulus % p.denominator == 0, (r, q, n, a)
                for expected in (LusztigParameter.from_theta(r_cycle, theta, central),
                                 LusztigParameter(p.w, p.denominator, p.numerators, p.central)):
                    assert p == expected and hash(p) == hash(expected), (r, q, n, a)
                assert type(p.w) is tuple, (r, q, n, a)
                assert all(type(row) is tuple and all(type(x) is int for x in row)
                           for row in p.w), (r, q, n, a)
                assert type(p.numerators) is tuple, (r, q, n, a)
                assert all(type(x) is int for x in (*p.numerators, p.denominator, p.central))


def test_glr_routes_refuse_a_rank_above_the_guard_quickly():
    assert glr_coxeter_parameter(16, 3, 1).denominator == 3 ** 16 - 1
    assert wh_dim_glr_closed(16, 3, 2, 0, 1, 1) == wh_dim_oracle(16, 3, 2, 0, 1, 1)
    for r in (17, 10 ** 5):
        start = time.perf_counter()
        for route in (lambda: glr_coxeter_parameter(r, 3, 1),
                      lambda: wh_dim_glr_closed(r, 3, 2, 0, 1, 1),
                      lambda: wh_dim_oracle(r, 3, 2, 0, 1, 1)):
            with pytest.raises(ResourceLimitError,
                               match=f"^GL_r with r = {r} exceeds the rank guard 16$"):
                route()
        assert time.perf_counter() - start < 1


def test_coxeter_twist_of_every_admitted_rank():
    # one twist per rank, built once: equal to the dense cycle, a member of
    # W, and the same object on every call
    for r in range(1, MAX_GLR_RANK + 1):
        w = glr_coxeter_parameter(r, 3, 1).w
        assert w == coxeter_cycle_reference(r), r
        assert w in weyl_group(build_glr(r)), r
        assert glr_coxeter_parameter(r, 5, 2, 2).w is w, r


@pytest.mark.parametrize("r, exc, message", [
    (0, ValueError, "GL_r needs r >= 1"),
    (-1, ValueError, "GL_r needs r >= 1"),
    (17, ResourceLimitError, "GL_r with r = 17 exceeds the rank guard 16"),
    (2.0, TypeError, "'float' object cannot be interpreted as an integer"),
])
def test_coxeter_parameter_refuses_r_before_reading_the_twists(r, exc, message):
    # r = 0 would read the last twist, r = -1 the one before
    with pytest.raises(exc) as info:
        glr_coxeter_parameter(r, 5, 1)
    assert type(info.value) is exc and str(info.value) == message


def test_parameter_must_satisfy_twisted_character_equation():
    bad = LusztigParameter.from_theta(((1, 0), (0, 1)), (Fraction(1, 24), Fraction(5, 24)))
    with pytest.raises(MathConstraintError):
        y_x_rho(KP, bad)


def test_parameter_denominators_must_avoid_p():
    w = glr_coxeter_parameter(1, 5, 0).w
    bad = LusztigParameter.from_theta(w, (Fraction(1, 5),))
    with pytest.raises(MathConstraintError):
        y_x_rho(glr_cover(1, 0, 0, 1, 5), bad)


def test_central_exponent_must_be_annihilated_by_q_minus_1():
    cover = glr_cover(1, 0, 0, 1, 5)
    for central in (Fraction(1, 4), Fraction(3, 2)):
        assert y_x_rho(cover, LusztigParameter.from_theta(((1,),), (0,), central))[1] == 1
    with pytest.raises(MathConstraintError,
                       match="^central exponent is not annihilated by q - 1$"):
        y_x_rho(cover, LusztigParameter.from_theta(((1,),), (0,), Fraction(1, 3)))
    # a denominator divisible by p is named first
    with pytest.raises(MathConstraintError, match="residue characteristic 5$"):
        y_x_rho(cover, LusztigParameter.from_theta(((1,),), (0,), Fraction(1, 5)))


# ---------------------------------------------------------------------------
# general position

def coxeter_general_position(r, q, a):
    return is_general_position(glr_coxeter_parameter(r, q, a), glr_cover(r, 0, 1, 1, q))


def test_gp_zero_exponent_fails_for_r_at_least_2():
    assert not coxeter_general_position(2, 5, 0)
    assert not coxeter_general_position(3, 7, 0)


def test_gp_modular_examples():
    assert not coxeter_general_position(2, 5, 6)   # 6*4 = 24 = 0 mod 24
    assert coxeter_general_position(2, 5, 1)


def test_gp_r1_always_true():
    assert all(coxeter_general_position(1, 5, a) for a in range(4))


@pytest.mark.parametrize("r,q", [(2, 5), (3, 3), (2, 7)])
def test_gp_paths_agree_on_coxeter_inputs(r, q):
    cover = glr_cover(r, 0, 1, 1, q)
    for a in range(q ** r - 1):
        reference = glr_general_position(r, q, a)
        route = is_general_position(glr_coxeter_parameter(r, q, a), cover)
        assert reference == route, a


def check_gp_against_twisted_centralizer(cover, denominator=None):
    """Compare both general-position deciders with the oracle on every valid
    theta of every twist w (only those with the given denominator, if one is
    given); returns how many parameters were checked."""
    elements = weyl_group(cover.datum).elements
    checked = 0
    for w in elements:
        for theta in theta_solutions(cover, w):
            if denominator and any((denominator * t).denominator != 1 for t in theta):
                continue
            param = LusztigParameter.from_theta(w, theta)
            expected = not twisted_centralizer_fixing(elements, w, cover.fr.matrix, theta)
            assert is_general_position(param, cover) == expected, (w, theta)
            if expected:
                y_x_rho(cover, param)
            else:
                with pytest.raises(GeneralPositionError):
                    y_x_rho(cover, param)
            checked += 1
    return checked


def test_gp_matches_the_twisted_centralizer_for_every_twist():
    covers = [
        glr_cover(2, 0, 1, 4, 13),
        glr_cover(3, 1, -1, 2, 3),
        CoverSpec(build_slr(3), WeylInvariantForm(((2, -1), (-1, 2))), 2, 3),
        CoverSpec(build_sp2r(2), WeylInvariantForm(((2, 0), (0, 2))), 2, 3),
    ]
    assert sum(check_gp_against_twisted_centralizer(c, 80) for c in covers) == 186


def test_gp_when_the_weyl_stabilizer_misses_the_twisted_centralizer():
    # with q = 2 mod 3, theta = (1/3, 1/3) on SL_3 is fixed by the rotations of
    # order 3, which commute with no reflection w: general position all the same
    cover = CoverSpec(build_slr(3), WeylInvariantForm(((2, -1), (-1, 2))), 4, 5)
    reflection = ((-1, 1), (0, 1))
    param = LusztigParameter.from_theta(reflection, (Fraction(1, 3),) * 2)
    assert is_general_position(param, cover)
    assert check_gp_against_twisted_centralizer(cover) == 150


def test_gp_on_a_torus_with_a_cyclic_frobenius():
    # q * theta = Fr^T theta has q^3 - 1 solutions, and W is trivial
    cycle = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    form = WeylInvariantForm(((2, 1, 1), (1, 2, 1), (1, 1, 2)))
    cover = CoverSpec(build_torus(3, cycle), form, 2, 3)
    assert check_gp_against_twisted_centralizer(cover) == 26


# ---------------------------------------------------------------------------
# y_x_rho

def test_y_x_rho_index_one_when_invariants_lie_in_y_qn():
    cover = glr_cover(2, 2, 4, 4, 5)  # m = 2p+(r-1)q = 8, xi(e0) = 0 mod 1
    lat, idx = y_x_rho(cover, glr_coxeter_parameter(2, 5, 1, 4))
    assert idx == 1
    assert lat.contains_vector((1, 1))


def test_y_x_rho_semisimple_is_one():
    cover = CoverSpec(build_slr(2), WeylInvariantForm(((2,),)), 4, 5)
    param = LusztigParameter.from_theta(((-1,),), (Fraction(1, 6),))
    lat, idx = y_x_rho(cover, param)
    assert idx == 1 and lat == Sublattice.zero(1)


def test_y_x_rho_kp_example():
    lat, idx = y_x_rho(KP, glr_coxeter_parameter(2, 5, 3, 4))
    assert idx == 2
    assert lat.basis == ((2, 2),)
    _, idx1 = y_x_rho(KP, glr_coxeter_parameter(2, 5, 1, 4))
    assert idx1 == 4


def test_y_x_rho_rejects_degenerate_parameters():
    with pytest.raises(GeneralPositionError):
        y_x_rho(KP, glr_coxeter_parameter(2, 5, 0, 4))


def _count_weyl_orders(monkeypatch):
    """Count the calls of root_datum.weyl_order from here on."""
    calls = []
    order = root_datum.weyl_order
    monkeypatch.setattr(root_datum, "weyl_order", lambda rd: calls.append(rd) or order(rd))
    return calls


def test_y_x_rho_looks_up_the_weyl_group_once_per_cover(monkeypatch):
    # SL_3 in its coroot basis is not block-permutation data: W is enumerated
    cover = CoverSpec(build_slr(3), WeylInvariantForm(((2, -1), (-1, 2))), 2, 3)
    coxeter = ((0, -1), (1, -1))
    params = [LusztigParameter.from_theta(coxeter, theta)
              for theta in theta_solutions(cover, coxeter)]
    calls = _count_weyl_orders(monkeypatch)
    for param in params[1:4]:
        y_x_rho(cover, param)
    assert calls == [cover.datum]
    assert weyl_group(cover.datum).blocks is None
    assert "elements" in vars(weyl_group(cover.datum))


def test_y_x_rho_on_gl_r_never_enumerates_the_weyl_group(monkeypatch):
    cover = glr_cover(3, 0, 1, 2, 3)
    calls = _count_weyl_orders(monkeypatch)
    for a in (1, 2, 5):
        y_x_rho(cover, glr_coxeter_parameter(3, 3, a, 2))
    assert calls == [cover.datum]
    group = weyl_group(cover.datum)
    assert group.blocks == ((0, 1, 2),)
    assert "elements" not in vars(group)


@pytest.mark.parametrize("r", range(9, 17))
def test_gl_r_beyond_the_weyl_guard_answers_from_the_blocks(r):
    # |W| = r! is above the guard: every answer comes from the blocks
    cover = glr_cover(r, 0, 1, 2, 3)
    param = glr_coxeter_parameter(r, 3, 1, 2)
    group = weyl_group(cover.datum)
    start = time.perf_counter()
    assert group.order == factorial(r) and group.blocks == (tuple(range(r)),)
    assert param.w in group and transpose(param.w) in group
    assert is_general_position(param, cover)
    assert y_x_rho(cover, param)[1] == wh_dim_glr_closed(r, 3, 2, 0, 1, 1)
    assert "elements" not in vars(group)
    with pytest.raises(ResourceLimitError,
                       match=f"^the Weyl group of order {factorial(r)} exceeds the guard 40320$"):
        group.elements
    assert time.perf_counter() - start < 1


def test_y_x_rho_lattice_contains_the_meet():
    from whitdim.cover import y_qn
    from whitdim.lattice import index, intersect
    from whitdim.root_datum import weyl_frobenius_fixed_lattice
    for a in (1, 2, 3, 7):
        lat, idx = y_x_rho(KP, glr_coxeter_parameter(2, 5, a, 4))
        big = weyl_frobenius_fixed_lattice(KP.datum)
        meet = intersect(big, y_qn(KP))
        assert lattice_contains(lat, meet)
        assert index(big, lat) == idx


# ---------------------------------------------------------------------------
# the orbit search on block-permutation data, against the literal reference

SWAP_BLOCKS = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))


def block_swap_cover():
    # roots +-(e_1 - e_2), +-(e_3 - e_4); Frobenius swaps the two blocks, so
    # w Fr does not preserve them
    roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    datum = BasedRootDatum(4, roots, roots, (0, 2), FrobeniusAction(SWAP_BLOCKS))
    gram = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    return CoverSpec(datum, WeylInvariantForm(gram), 4, 5)


def unitary_cover():
    # GL_3 with Frobenius y -> -w_0 y: w Fr is a signed permutation
    base = build_glr(3)
    fr = FrobeniusAction(((0, 0, -1), (0, -1, 0), (-1, 0, 0)))
    datum = BasedRootDatum(3, base.roots, base.coroots, base.simple_indices, fr)
    return CoverSpec(datum, WeylInvariantForm(((2, 1, 1), (1, 2, 1), (1, 1, 2))), 2, 3)


BLOCK_COVERS = (glr_cover(1, 1, 0, 4, 5), glr_cover(2, 0, 1, 4, 5),
                glr_cover(3, 1, -1, 2, 3), glr_cover(3, 0, 1, 3, 4), block_swap_cover(),
                unitary_cover())


def check_against_orbit_reference(cover, params, elements=None):
    """Compare general position and the y_x_rho lattice and index with the
    literal orbit search over ``elements`` (by default the library's) and
    with the scan of cosets; returns (in general position, not) counts."""
    elements = elements or weyl_group(cover.datum).elements
    counts = [0, 0]
    for param in params:
        passes = orbit_search_reference(cover, param.w, param.theta, elements)
        assert is_general_position(param, cover) == (passes is not None), param
        if passes is None:
            with pytest.raises(GeneralPositionError):
                y_x_rho(cover, param)
            counts[1] += 1
            continue
        lattice, idx = y_x_rho(cover, param)
        assert idx * sum(passes.values()) == len(passes), param
        assert all(lattice.contains_vector(y) == ok for y, ok in passes.items()), param
        assert coset_scan_reference(cover, param) == (lattice, idx), param
        counts[0] += 1
    return tuple(counts)


def test_block_membership_matches_the_weyl_group():
    # every candidate is asked, then its transpose, then the candidate twice
    # more, so that the kept twist is replaced and then hit; a member's
    # permutation gathers w^T v
    for cover in BLOCK_COVERS:
        group = weyl_group(cover.datum)
        assert group.blocks is not None
        d = cover.rank
        members = set(group.elements)
        v = tuple(random.Random(d).sample(range(100), d))
        if d <= 3:
            candidates = product((-1, 0, 1), repeat=d * d)
        else:
            candidates = (tuple(sign * int(perm[j] == i) for i, sign in enumerate(signs)
                                for j in range(d))
                          for perm in permutations(range(d))
                          for signs in product((1, -1), repeat=d))
        for flat in candidates:
            m = tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))
            for asked in (m, transpose(m), m, m):
                assert (asked in group) == (asked in members), asked
            p = group.permutation(m)
            assert p is group.permutation(m)
            assert (p is not None) == (m in members), m
            if p is not None:
                assert tuple(v[j] for j in p) == mat_vec(transpose(m), v), m


def test_block_orbit_test_compares_the_entries_of_each_block():
    # on the two blocks of block_swap_cover, and on the one block of GL_3
    for cover in (block_swap_cover(), glr_cover(3, 1, -1, 2, 3)):
        group = weyl_group(cover.datum)
        blocks = group.blocks
        params = [LusztigParameter.from_theta(w, theta, Fraction(1, cover.n))
                  for w in group.elements for theta in theta_solutions(cover, w)]
        checked = 0
        for param in params:
            _, v, in_orbit = _orbit_pass(cover, param)
            if in_orbit is None:
                continue
            for block in blocks:
                # the first entry of the block in place of the second: the
                # entries stay those of v, but the block loses one
                u = list(v)
                u[block[1]] = u[block[0]]
                assert not in_orbit(u), (param, u)
                # the block reversed stays in the orbit
                u = list(v)
                for i, j in zip(block, reversed(block)):
                    u[i] = v[j]
                assert in_orbit(u), (param, u)
            if len(blocks) > 1:
                # the first entries of two blocks exchanged: the same entries
                # overall, but not block by block
                u = list(v)
                a, b = blocks[0][0], blocks[1][0]
                u[a], u[b] = v[b], v[a]
                assert in_orbit(u) == (v[a] == v[b]), (param, u)
            checked += 1
        assert checked


def test_block_orbit_search_matches_the_reference_for_every_twist():
    counts = []
    for cover in BLOCK_COVERS:
        params = [LusztigParameter.from_theta(w, theta, Fraction(1, cover.n))
                  for w in weyl_group(cover.datum).elements
                  for theta in theta_solutions(cover, w)]
        counts.append(check_against_orbit_reference(cover, params))
    assert counts == [(4, 0), (32, 8), (84, 24), (234, 54), (2304, 96), (120, 96)]


@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_block_orbit_search_matches_the_reference_on_coxeter_parameters(r):
    rng = random.Random(r)
    gp_count = 0
    for _ in range(5):
        q = rng.choice((3, 4, 5, 7, 8, 9, 11, 13))
        n = rng.choice([d for d in range(1, q) if (q - 1) % d == 0])
        cover = glr_cover(r, rng.randint(-3, 3), rng.randint(-3, 3), n, q)
        modulus = q ** r - 1
        exponents = []
        while len(exponents) < 10:
            a = rng.randrange(1, modulus)
            if all(a * (q ** s - 1) % modulus for s in range(1, r)):
                exponents.append(a)
        # theta of period g < r repeats its entries: not in general position
        exponents.append(modulus // (q - 1) * rng.randrange(q - 1))
        params = [glr_coxeter_parameter(r, q, a, n) for a in exponents]
        gp, not_gp = check_against_orbit_reference(cover, params)
        assert not_gp == 1
        gp_count += gp
    assert gp_count == 50


def _swap_datum(d, blocks, fr=None):
    """Roots e_i - e_j for i != j in one block; the simple ones have j = i + 1."""
    roots, simple = [], []
    for block in blocks:
        for i, j in permutations(block, 2):
            if j == i + 1:
                simple.append(len(roots))
            roots.append(tuple((k == i) - (k == j) for k in range(d)))
    return BasedRootDatum(d, tuple(roots), tuple(roots), tuple(simple),
                          FrobeniusAction(fr) if fr else None)


def _negated_antidiagonal(d):
    return tuple(tuple(-int(i + j == d - 1) for j in range(d)) for i in range(d))


#: block data whose Frobenius is the identity, swaps blocks, is signed, or is
#: not a signed permutation at all
TWISTED_BLOCK_DATA = {
    "GL_4": _swap_datum(4, [(0, 1, 2, 3)]),
    "GL_3 x GL_1": _swap_datum(4, [(0, 1, 2), (3,)]),
    "GL_1 x GL_2": _swap_datum(3, [(0,), (1, 2)]),
    "GL_2 x GL_2, blocks swapped": _swap_datum(4, [(0, 1), (2, 3)], SWAP_BLOCKS),
    "GL_2 x GL_2, signed antidiagonal": _swap_datum(4, [(0, 1), (2, 3)],
                                                    _negated_antidiagonal(4)),
    "GL_3, -w_0": _swap_datum(3, [(0, 1, 2)], _negated_antidiagonal(3)),
    "GL_2 x GL_1, not a signed permutation": _swap_datum(
        3, [(0, 1), (2,)], ((1, 0, 1), (0, 1, 1), (0, 0, -1))),
    "GL_2 x GL_2 x GL_1, signed swap": _swap_datum(
        5, [(0, 1), (2, 3), (4,)],
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 0, 0), (0, 1, 0, 0, 0),
         (0, 0, 0, 0, -1))),
    "3-cycle torus": build_torus(3, ((0, 1, 0), (0, 0, 1), (1, 0, 0))),
}


def _generated_group(gens, d):
    """The group the integer d x d matrices ``gens`` generate, by closure."""
    group = [identity_matrix(d)]
    for m in group:
        group.extend(x for x in (mat_mul(g, m) for g in gens) if x not in group)
    return group


def _invariant_cover(datum, q, n, rng):
    """A cover whose form is a random even form summed over the group that W
    and Frobenius generate."""
    d = datum.rank
    group = _generated_group([*simple_reflection_matrices(datum), datum.fr.matrix], d)
    seed = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            seed[i][j] = seed[j][i] = rng.randint(-2, 2) * (1 + (i == j))
    terms = [mat_mul(transpose(m), mat_mul(seed, m)) for m in group]
    gram = [[sum(t[i][j] for t in terms) for j in range(d)] for i in range(d)]
    return CoverSpec(datum, WeylInvariantForm(gram), n, q)


@pytest.mark.parametrize("name", TWISTED_BLOCK_DATA)
def test_distinct_entries_decide_general_position_on_twisted_block_data(name):
    """General position read off the blocks, and y_x_rho, against the literal
    orbit search on every twist and a seeded sample of its characters."""
    datum = TWISTED_BLOCK_DATA[name]
    rng = random.Random(name)
    # theta_solutions enumerates about q^d characters per twist
    q, n = rng.choice([(q, n) for q, n in ((3, 2), (5, 4), (7, 3)) if q ** datum.rank < 400])
    cover = _invariant_cover(datum, q, n, rng)
    assert weyl_group(datum).blocks is not None
    elements = weyl_group(datum).elements
    gp, not_gp = check_against_orbit_reference(cover, _sampled_parameters(cover, elements, rng))
    # with W trivial every character is in general position
    assert gp and (not_gp or len(elements) == 1)


def _sampled_parameters(cover, twists, rng):
    """For every twist w, a seeded sample of at most 20 of the characters of
    T_w, with the central exponent 1/n."""
    params = []
    for w in twists:
        thetas = theta_solutions(cover, w)
        params += [LusztigParameter.from_theta(w, theta, Fraction(1, cover.n))
                   for theta in rng.sample(thetas, min(len(thetas), 20))]
    return params


_SL3 = build_slr(3)
#: data that are not block-permutation data, each with an invariant form,
#: q and n, and the (in, not in) general position counts of the sample; the
#: last two have a centre, so that Y^{W x Fr} is not zero.  The last is GL_2
#: in the basis e_1, e_1 + e_2 with the Kazhdan-Patterson form, where some
#: twists by the centre land on the other point of the orbit.  G2 is closed
#: from its Cartan matrix in the coroot basis, as SL_3 is
NON_BLOCK_COVERS = {
    "SL_3": (_SL3, ((2, -1), (-1, 2)), 5, 4, (93, 23)),
    "SU_3": (BasedRootDatum(2, _SL3.roots, _SL3.coroots, _SL3.simple_indices,
                            FrobeniusAction(((0, 1), (1, 0)))),
             ((2, -1), (-1, 2)), 5, 4, (87, 33)),
    "SL_4": (build_slr(4), ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 3, 2, (281, 163)),
    "Sp_4": (build_sp2r(2), ((2, 0), (0, 2)), 5, 4, (82, 74)),
    "G2": (BasedRootDatum(2, *close_root_system_dense([((2, -3), (1, 0)), ((-1, 2), (0, 1))])),
           ((2, -3), (-3, 6)), 5, 4, (157, 79)),
    "SL_2 x GL_1": (BasedRootDatum(2, ((2, 0), (-2, 0)), ((1, 0), (-1, 0)), (0,)),
                    ((2, 0), (0, 2)), 5, 4, (20, 16)),
    "GL_2, non-block basis": (BasedRootDatum(2, ((1, 0), (-1, 0)), ((2, -1), (-2, 1)), (0,)),
                              ((0, 1), (1, 2)), 5, 4, (28, 8)),
}


@pytest.mark.parametrize("name", NON_BLOCK_COVERS)
def test_enumerated_orbits_match_the_reference_on_every_twist(name):
    """General position and y_x_rho on data whose W is enumerated, against the
    literal orbit search over the group the simple reflections generate, on
    every twist and a seeded sample of its characters."""
    datum, gram, q, n, counts = NON_BLOCK_COVERS[name]
    cover = CoverSpec(datum, WeylInvariantForm(gram), n, q)
    assert weyl_group(datum).blocks is None
    elements = _generated_group(simple_reflection_matrices(datum), datum.rank)
    assert sorted(elements) == sorted(weyl_group(datum).elements)
    params = _sampled_parameters(cover, elements, random.Random(name))
    assert check_against_orbit_reference(cover, params, elements) == counts


#: y' = U y rebases Y = Z^3 of GL_3 to e_1 - e_2, e_2 - e_3, e_3; U^-1 below
U3 = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
U3_INVERSE = ((1, 0, 0), (-1, 1, 0), (0, -1, 1))


def _rebased_glr3_cover(cover):
    """A GL_3 cover in the basis of U3, no block data: roots U^-T alpha,
    coroots U alpha^vee and gram U^-T G U^-1."""
    u_inv_t = transpose(U3_INVERSE)
    base = cover.datum
    datum = BasedRootDatum(3, tuple(mat_vec(u_inv_t, root) for root in base.roots),
                           tuple(mat_vec(U3, coroot) for coroot in base.coroots),
                           base.simple_indices)
    gram = mat_mul(u_inv_t, mat_mul(cover.form.gram, U3_INVERSE))
    return CoverSpec(datum, WeylInvariantForm(gram), cover.n, cover.q)


#: (form, q, n, the number of characters of each index, None for those not
#: in general position)
REBASED_GL3_CASES = [((0, 1), 5, 4, {2: 504, None: 96}), ((1, 1), 5, 2, {1: 504, None: 96}),
                     ((1, -2), 7, 6, {1: 36, 3: 1512, None: 216})]


@pytest.mark.parametrize("form, q, n, counts", REBASED_GL3_CASES)
def test_the_solve_off_block_data_equals_the_block_solve_on_rebased_gl3(form, q, n, counts):
    """Parameter by parameter, w -> U w U^-1 and theta -> U^-T theta, on
    every twist and character: the same general position and index, and
    the passing lattice carried by U."""
    block = glr_cover(3, *form, n, q)
    rebased = _rebased_glr3_cover(block)
    assert weyl_group(block.datum).blocks is not None
    assert weyl_group(rebased.datum).blocks is None
    u_inv_t = transpose(U3_INVERSE)
    found = {}
    for w in weyl_group(block.datum).elements:
        moved_w = mat_mul(U3, mat_mul(w, U3_INVERSE))
        for theta in theta_solutions(block, w):
            param = LusztigParameter.from_theta(w, theta, Fraction(1, n))
            moved = LusztigParameter.from_theta(moved_w, mat_vec(u_inv_t, theta), Fraction(1, n))
            outcome = _outcome(y_x_rho, block, param)
            if type(outcome[0]) is Sublattice:
                carried = hermite_normal_form([mat_vec(U3, y) for y in outcome[0].basis], 3)
                outcome = carried, outcome[1]
            assert _outcome(y_x_rho, rebased, moved) == outcome, param
            idx = outcome[1] if type(outcome[1]) is int else None
            found[idx] = found.get(idx, 0) + 1
    assert found == counts


def test_a_large_young_stabilizer_is_not_in_general_position_at_once():
    # theta = 0 is fixed by all of S_12, of order 12! = 479001600; its equal
    # entries decide, with no element of the stabilizer formed
    cover = glr_cover(12, 0, 1, 2, 3)
    identity = tuple(tuple(int(i == j) for j in range(12)) for i in range(12))
    zero = LusztigParameter.from_theta(identity, (0,) * 12)
    start = time.perf_counter()
    assert not is_general_position(zero, cover)
    with pytest.raises(GeneralPositionError, match="not in general position"):
        y_x_rho(cover, zero)
    assert time.perf_counter() - start < 2


def test_a_permutation_that_moves_a_block_is_not_a_weyl_element():
    cover = block_swap_cover()
    param = LusztigParameter.from_theta(SWAP_BLOCKS, (0,) * 4)
    with pytest.raises(MathConstraintError, match="not an element of the Weyl group"):
        y_x_rho(cover, param)
    with pytest.raises(MathConstraintError, match="not an element of the Weyl group"):
        is_general_position(param, cover)


# ---------------------------------------------------------------------------
# passing subgroups held on the cover

#: a cover of the acceptance sweep with 6 cosets, passing sets of 1 and 3:
#: the moduli 12 and 4 of its one block
SWEEP_COVER = (3, 0, 1, 12, 13)
#: GL_2 x GL_2 with identity Frobenius: 8 cosets, and two distinct passing
#: subgroups of order 2, {0, (0, 0, 1, 1)} and {0, (2, 2, 0, 0)}
PRODUCT_DATUM = _swap_datum(4, [(0, 1), (2, 3)])
PRODUCT_GRAM = ((-4, -1, 0, 0), (-1, -4, 0, 0), (0, 0, -4, -2), (0, 0, -2, -4))


def _sweep_cover_parameters():
    r, _, _, n, q = SWEEP_COVER
    return [glr_coxeter_parameter(r, q, a, n)
            for a in range(q ** r - 1) if glr_general_position(r, q, a)]


def _product_cover():
    return CoverSpec(PRODUCT_DATUM, WeylInvariantForm(PRODUCT_GRAM), 4, 5)


def _product_cover_parameters():
    cover = _product_cover()
    params = [LusztigParameter.from_theta(w, theta, Fraction(1, 4))
              for w in weyl_group(PRODUCT_DATUM).elements
              for theta in theta_solutions(cover, w)]
    return [p for p in params if is_general_position(p, cover)]


def test_a_shared_cover_answers_like_fresh_covers():
    cases = [(lambda: glr_cover(*SWEEP_COVER), _sweep_cover_parameters()),
             (_product_cover, _product_cover_parameters())]
    for make, params in cases:
        shared = make()
        for param in params:
            assert y_x_rho(shared, param) == y_x_rho(make(), param), param
    # the product cover meets two passing subgroups of the same order, so a
    # map keyed by the order alone would answer one of them wrongly; each
    # key is the pair of moduli of the two blocks
    held = shared._passing_subgroups
    assert sorted(held) == [(2, 2), (2, 4), (4, 2), (4, 4)]
    assert sorted(idx for _, idx in held.values()) == [2, 4, 4, 8]
    assert len({lattice for lattice, _ in held.values()}) == 4
    # a cover of smaller degree on the same datum, after the map of the
    # product cover is full: other moduli, other subgroups
    smaller = CoverSpec(PRODUCT_DATUM, WeylInvariantForm(PRODUCT_GRAM), 2, 5)
    assert squeeze_bounds(smaller)[1] < squeeze_bounds(shared)[1]
    assert check_against_orbit_reference(smaller, params) == (len(params), 0)


def test_the_solve_equals_the_scan_on_every_parameter_of_the_sweep_cover():
    cover = glr_cover(*SWEEP_COVER)
    params = _sweep_cover_parameters()
    assert check_against_orbit_reference(cover, params) == (len(params), 0)


def test_the_solve_equals_the_scan_on_the_product_cover():
    params = _product_cover_parameters()
    assert check_against_orbit_reference(_product_cover(), params) == (len(params), 0)


def test_the_solve_equals_the_scan_on_sampled_acceptance_sweep_covers():
    # r <= 3, q in {3, 5, 7, 13}, n | q - 1, forms in [-2, 2]^2: two forms of
    # each (r, q, n) and at most 12 general-position exponents of each
    rng = random.Random(32)
    checked = set()
    for r, q in product((1, 2, 3), (3, 5, 7, 13)):
        exponents = [a for a in range(q ** r - 1) if glr_general_position(r, q, a)]
        for n in (n for n in range(1, q) if (q - 1) % n == 0):
            for _ in range(2):
                form = rng.randint(-2, 2), rng.randint(-2, 2)
                cover = glr_cover(r, *form, n, q)
                sample = rng.sample(exponents, min(len(exponents), 12))
                params = [glr_coxeter_parameter(r, q, a, n) for a in sample]
                assert check_against_orbit_reference(cover, params) == (len(params), 0)
                for a, param in zip(sample, params):
                    checked.add(y_x_rho(cover, param)[1])
                    assert y_x_rho(cover, param)[1] == wh_dim_glr_closed(r, q, n, *form, a)
    assert len(checked) > 5


#: tori whose Frobenius permutes the coordinates: W is trivial, every block
#: is one coordinate
PERMUTATION_TORI = {
    "swap": ((0, 1), (1, 0)),
    "3-cycle": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    "swap and a fixed line": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    "two swaps": ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
    "4-cycle": ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
}


@pytest.mark.parametrize("name", PERMUTATION_TORI)
def test_the_solve_equals_the_scan_on_tori_with_a_permutation_frobenius(name):
    fr = PERMUTATION_TORI[name]
    datum = build_torus(len(fr), fr)
    rng = random.Random(name)
    q, n = rng.choice([(q, n) for q, n in ((3, 2), (5, 4), (7, 3)) if q ** datum.rank < 400])
    cover = _invariant_cover(datum, q, n, rng)
    params = _sampled_parameters(cover, weyl_group(datum).elements, rng)
    assert check_against_orbit_reference(cover, params) == (len(params), 0)


def test_each_passing_set_is_checked_once_per_cover(monkeypatch):
    calls = []

    def counted(rows, modulus, ambient_rank):
        calls.append(modulus)
        return congruence_kernel(rows, modulus, ambient_rank)

    cover = glr_cover(*SWEEP_COVER)
    monkeypatch.setattr("whitdim.whittaker.congruence_kernel", counted)
    params = _sweep_cover_parameters()
    lattices = {y_x_rho(cover, param)[0] for param in params}
    assert len(params) > 2000
    # one congruence is solved per tuple of moduli, and here distinct moduli
    # give distinct lattices
    assert sorted(calls) == sorted(key for key, in cover._passing_subgroups) == [4, 12]
    assert len(lattices) == 2

    # a warm cover still refuses what it refused cold (exit codes 3, 3, 4)
    r, _, _, n, q = SWEEP_COVER
    coxeter = params[0]
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    not_weyl = LusztigParameter(shear, coxeter.denominator, coxeter.numerators,
                                coxeter.central)
    not_character = LusztigParameter(coxeter.w, coxeter.denominator,
                                     (1, 0, 0), coxeter.central)
    not_general = glr_coxeter_parameter(r, q, 0, n)
    for param, error, match in (
            (not_weyl, MathConstraintError, "not an element of the Weyl group"),
            (not_character, MathConstraintError, "not a character of the twisted torus"),
            (not_general, GeneralPositionError, "not in general position")):
        with pytest.raises(error, match=match) as caught:
            y_x_rho(cover, param)
        assert caught.type is error
    assert len(calls) == len(cover._passing_subgroups) == 2


def test_the_solve_checks_each_new_key(monkeypatch):
    # KP has L = Z(1, 1) and L meet Y_{Q,n} = 4L; a = 1 has the modulus 4
    param = glr_coxeter_parameter(2, 5, 1, 4)
    lat, sub = KP._invariant_lattices
    assert (lat.basis, sub.basis) == (((1, 1),), ((4, 4),))
    assert y_x_rho(glr_cover(2, 0, 1, 4, 5), param)[1] == 4
    # gram . (1, 0) = (0, 1) is not constant on the block
    not_invariant = glr_cover(2, 0, 1, 4, 5)
    not_invariant.__dict__["_invariant_lattices"] = (Sublattice.full(2), sub)
    # L itself in place of its meet with Y_{Q,n}: not in the passing lattice 4L
    not_contained = glr_cover(2, 0, 1, 4, 5)
    not_contained.__dict__["_invariant_lattices"] = (lat, lat)
    for cover, match in ((not_invariant, "not constant on a block"),
                         (not_contained, "does not contain L meet Y_{Q,n}")):
        for _ in range(2):
            with pytest.raises(RuntimeError, match=match):
                y_x_rho(cover, param)
        assert cover._passing_subgroups == {}
    # an index of the quotient, 4, that the subgroup's index, read as 3,
    # does not divide
    wrong_index = glr_cover(2, 0, 1, 4, 5)
    meet = wrong_index._invariant_lattices[1]
    monkeypatch.setattr("whitdim.whittaker.index", lambda sup, sub: 4 if sub is meet else 3)
    with pytest.raises(RuntimeError, match="subgroup size does not divide the quotient"):
        y_x_rho(wrong_index, param)
    assert wrong_index._passing_subgroups == {}


def _non_block_gl2_cover():
    """GL_2 in the basis e_1, e_1 + e_2 at q = 5, n = 4, on a datum of its
    own, so that its Weyl group is shared with no other test."""
    datum, gram, q, n, _ = NON_BLOCK_COVERS["GL_2, non-block basis"]
    datum = BasedRootDatum(2, datum.roots, datum.coroots, datum.simple_indices)
    return CoverSpec(datum, WeylInvariantForm(gram), n, q)


def test_the_solve_checks_each_new_key_off_block_data(monkeypatch):
    # L = Z(0, 1) and L meet Y_{Q,n} = 4L; theta = (1/4, 0) passes the twists
    # K = {0, (2, 0)} mod 4, so y passes exactly when it lies in 2L
    identity = identity_matrix(2)
    param = LusztigParameter.from_theta(identity, (Fraction(1, 4), 0))
    cover = _non_block_gl2_cover()
    lat, sub = cover._invariant_lattices
    assert (lat.basis, sub.basis) == (((0, 1),), ((0, 4),))
    assert y_x_rho(cover, param) == (Sublattice(2, ((0, 2),)), 2)
    assert list(cover._passing_subgroups) == [((0, 0), (2, 0))]

    def with_images(images):
        """A cover whose Weyl group maps theta onto the given images."""
        cover = _non_block_gl2_cover()
        group = weyl_group(cover.datum)
        monkeypatch.setitem(group.__dict__, "_images", lambda v, denom, w, f: images(v))
        return cover

    # every image but theta itself: the zero twist is missing from K
    real = weyl_group(cover.datum)._images(param.numerators, 4, identity, identity)
    no_zero = with_images(lambda v: [u for u in real if u != v])
    # theta and its twist by (1, 2), which is W-fixed mod 4, but not by
    # 2 (1, 2) = (2, 0) mod 4
    not_closed = with_images(lambda v: [v, ((v[0] + 1) % 4, (v[1] + 2) % 4)])
    # L itself in place of its meet with Y_{Q,n}: not in the passing lattice 2L
    not_contained = _non_block_gl2_cover()
    not_contained.__dict__["_invariant_lattices"] = (lat, lat)
    for cover, match in ((no_zero, "the zero twist does not pass"),
                         (not_closed, "not closed under addition"),
                         (not_contained, "does not contain L meet Y_{Q,n}")):
        for _ in range(2):
            with pytest.raises(RuntimeError, match=match):
                y_x_rho(cover, param)
        assert cover._passing_subgroups == {}
    # an index of the quotient, 4, that the subgroup's index, read as 3,
    # does not divide
    wrong_index = _non_block_gl2_cover()
    meet = wrong_index._invariant_lattices[1]
    monkeypatch.setattr("whitdim.whittaker.index", lambda sup, sub: 4 if sub is meet else 3)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="subgroup size does not divide the quotient"):
            y_x_rho(wrong_index, param)
    assert wrong_index._passing_subgroups == {}


def test_the_orbit_search_builds_no_coset_on_any_datum(monkeypatch):
    """y_x_rho on fresh covers of every NON_BLOCK_COVERS case and of the
    block covers, with the coset enumerator made to raise, equals the scan
    of cosets run before that."""
    specs = [(datum, WeylInvariantForm(gram), n, q)
             for datum, gram, q, n, _ in NON_BLOCK_COVERS.values()]
    specs += [(cover.datum, cover.form, cover.n, cover.q) for cover in BLOCK_COVERS]
    rng = random.Random("no coset")
    expected = []
    for spec in specs:
        cover = CoverSpec(*spec)
        params = _sampled_parameters(cover, weyl_group(cover.datum).elements, rng)
        expected.append([(p, _outcome(coset_scan_reference, cover, p)) for p in params])

    def refuse(sup, sub):
        raise AssertionError("the orbit search enumerated cosets")

    monkeypatch.setattr("whitdim.lattice.coset_representatives", refuse)
    answered = 0
    for spec, outcomes in zip(specs, expected):
        cover = CoverSpec(*spec)
        for param, outcome in outcomes:
            assert _outcome(y_x_rho, cover, param) == outcome, param
            answered += type(outcome[0]) is Sublattice
    assert answered > len(specs)


# ---------------------------------------------------------------------------
# dimension formulas

def test_dimension_one_when_n_divides_m():
    # m = 4, n = 4
    for a in (1, 2, 3):
        assert wh_dim_glr_closed(3, 5, 4, 1, 1, a) == 1


def test_torus_dimension_matches_central_index():
    assert wh_dim_glr_closed(1, 5, 4, 1, 0, 0) == 2
    assert central_index(glr_cover(1, 1, 0, 4, 5)) == 2


def test_kp_gl2_dimensions():
    assert wh_dim_glr_closed(2, 5, 4, 0, 1, 1) == 4
    assert wh_dim_glr_closed(2, 5, 4, 0, 1, 3) == 2


def test_oracle_mirrors_closed_form_on_examples():
    for args in [(2, 5, 4, 0, 1, 1), (2, 5, 4, 0, 1, 3), (1, 5, 4, 1, 0, 2),
                 (3, 5, 4, 1, 1, 1), (2, 7, 6, -1, 2, 5)]:
        assert wh_dim_oracle(*args) == wh_dim_glr_closed(*args)


def test_oracle_trivial_cases():
    assert wh_dim_oracle(2, 5, 1, 0, 1, 1) == 1          # n = 1
    assert wh_dim_oracle(2, 5, 4, 0, 0, 1) == 1          # m = 0
    assert wh_dim_glr_closed(2, 5, 4, 0, 0, 1) == 1


def test_dimension_precondition_gates():
    with pytest.raises(GeneralPositionError):
        wh_dim_glr_closed(2, 5, 4, 0, 1, 0)
    with pytest.raises(MathConstraintError):
        wh_dim_glr_closed(2, 5, 3, 0, 1, 1)
    with pytest.raises(GeneralPositionError):
        wh_dim_oracle(2, 5, 4, 0, 1, 6)


def test_both_routes_refuse_a_float_exponent_or_degree():
    # a float is refused, not carried through the arithmetic
    for route in (wh_dim_glr_closed, wh_dim_oracle):
        assert route(2, 5, 4, 0, 1, 3) == 2
        for n, a in ((4, 3.0), (4.0, 3), (4, Fraction(3))):
            with pytest.raises(TypeError):
                route(2, 5, n, 0, 1, a)


def test_both_routes_reject_a_q_that_is_not_a_prime_power():
    for route in (wh_dim_glr_closed, wh_dim_oracle):
        with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
            route(2, 6, 5, 0, 1, 1)
        # checked after r and before n | q - 1, as in the table; q below 2
        # is no prime power either
        with pytest.raises(ValueError, match="^GL_r needs r >= 1$"):
            route(0, 6, 5, 0, 1, 1)
        with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
            route(2, 6, 4, 0, 1, 1)
        for q in (0, 1, -7):
            with pytest.raises(MathConstraintError, match="^q must be a prime power >= 2$"):
                route(2, q, 1, 0, 1, 1)


def test_both_routes_reject_every_exponent_not_in_general_position():
    checked = 0
    for r in (1, 2, 3):
        for q in (2, 3, 4, 5, 7, 8, 9):
            modulus = q ** r - 1
            failing = [a for a in range(modulus)
                       if not glr_general_position(r, q, a)]
            for n in _divisors(q - 1):
                for a in failing:
                    message = f"a = {a} is not in general position mod q^r - 1 = {modulus}"
                    for route in (wh_dim_glr_closed, wh_dim_oracle):
                        with pytest.raises(GeneralPositionError) as caught:
                            route(r, q, n, 1, -1, a)
                        assert str(caught.value) == message
                    checked += 1
    assert checked == 186


def test_divisibility_bound():
    for (r, q, n, pp, qq) in [(2, 5, 4, 0, 1), (2, 13, 12, 1, -1), (3, 3, 2, -2, 1)]:
        m = m_qr(r, pp, qq)
        bound = n // gcd(n, m)
        modulus = q ** r - 1
        for a in range(modulus):
            if not glr_general_position(r, q, a):
                continue
            dim = wh_dim_glr_closed(r, q, n, pp, qq, a)
            assert bound % dim == 0


def test_dimension_constant_on_q_power_orbits():
    r, q, n, pp, qq = 2, 7, 6, 0, 1
    modulus = q ** r - 1
    for a in range(modulus):
        if not glr_general_position(r, q, a):
            continue
        partner = a * q % modulus
        assert (wh_dim_glr_closed(r, q, n, pp, qq, a)
                == wh_dim_glr_closed(r, q, n, pp, qq, partner))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _general_position_exponents(r, q):
    modulus = q ** r - 1
    return [a for a in range(modulus) if all(a * (q ** s - 1) % modulus for s in range(1, r))]


def test_closed_form_matches_the_linear_scan():
    # every general-position exponent at every n; the 49 forms take turns,
    # one per parameter, since the full product would take minutes
    forms = cycle([(pp, qq) for pp in range(-3, 4) for qq in range(-3, 4)])
    for r in range(1, 5):
        for q in (2, 3, 4, 5, 7, 8, 9, 13):
            exponents = _general_position_exponents(r, q)
            for n in _divisors(q - 1):
                for a in exponents:
                    pp, qq = next(forms)
                    assert (wh_dim_glr_closed(r, q, n, pp, qq, a)
                            == glr_dimension_scan(r, q, n, pp, qq, a)), (r, q, n, pp, qq, a)


PRIMES = [p for p in range(2, 10 ** 4) if all(p % d for d in range(2, int(p ** 0.5) + 1))]
PRIME_POWERS = sorted(p ** e for p in PRIMES for e in range(1, 14) if p ** e <= 10 ** 4)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closed_form_matches_the_oracle_up_to_q_ten_thousand(data):
    q = data.draw(st.sampled_from(PRIME_POWERS))
    r = data.draw(st.integers(1, 3))
    n = data.draw(st.sampled_from(_divisors(q - 1)))
    pp, qq = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    modulus = q ** r - 1
    a = data.draw(st.integers(0, modulus - 1))
    assume(all(a * (q ** s - 1) % modulus for s in range(1, r)))
    assert wh_dim_glr_closed(r, q, n, pp, qq, a) == wh_dim_oracle(r, q, n, pp, qq, a)


def _outcome(route, *args):
    """The route's answer, or the type and message of the error it raised."""
    try:
        return route(*args)
    except ValueError as caught:
        return type(caught), str(caught)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_oracle_equals_the_fraction_scan_up_to_q_ten_thousand(data):
    q = data.draw(st.sampled_from(PRIME_POWERS))
    r = data.draw(st.integers(1, 5))
    pp, qq = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    modulus = q ** r - 1
    # the multiples of M / (q^d - 1), d a proper divisor of r, are the
    # exponents not in general position
    d = data.draw(st.sampled_from([d for d in range(1, r) if r % d == 0] or [r]))
    a = data.draw(st.one_of(
        st.integers(0, modulus - 1),
        st.integers(0, q ** d - 2).map(lambda j: j * (modulus // (q ** d - 1)))))
    for n in _divisors(q - 1):
        args = (r, q, n, pp, qq, a)
        assert _outcome(wh_dim_oracle, *args) == _outcome(oracle_scan_fractions, *args), args


def test_oracle_equals_the_fraction_scan_at_q_near_ten_to_the_twelve():
    # q - 1 = 2 * 3 * 13 * 17 * 29 * 26005097; n = 2262 = 2 * 3 * 13 * 29
    # scans up to 2,262 steps, n = 26005097 is past the scan guard
    q = 1000000000039
    forms = cycle([(0, 1), (1, -3), (2, 2)])
    outcomes = set()
    for r in (1, 2, 3):
        modulus = q ** r - 1
        for a in (5, q + 1, modulus // (q - 1) * 7, 123456789012345678901 % modulus):
            for n in (2, 221, 2262, 26005097):
                args = (r, q, n, *next(forms), a)
                outcome = _outcome(wh_dim_oracle, *args)
                assert outcome == _outcome(oracle_scan_fractions, *args), args
                outcomes.add(outcome if isinstance(outcome, int) else outcome[0])
    assert {GeneralPositionError, ResourceLimitError, 1, 2, 2262} <= outcomes


def test_closed_form_checks_its_solution():
    # m = 1 on GL_3, q = 7, n = 3: a wrong inverse gives a k that misses
    # the congruence
    solver = _GLrSolver(3, 7, 3, 1)
    assert solver.dimension(19) == 1
    solver.inverse = 2
    with pytest.raises(RuntimeError):
        solver.dimension(19)


# ---------------------------------------------------------------------------
# squeeze bounds

def test_squeeze_semisimple():
    cover = CoverSpec(build_slr(3), WeylInvariantForm(((2, -1), (-1, 2))), 4, 5)
    assert squeeze_bounds(cover) == (1, 1)


def test_squeeze_gl1():
    assert squeeze_bounds(glr_cover(1, 1, 0, 4, 5)) == (2, 2)


def test_squeeze_kp_gl2():
    assert squeeze_bounds(KP) == (2, 4)


def test_squeeze_sandwiches_the_dimension():
    for (r, q, n, pp, qq) in [(2, 5, 4, 0, 1), (2, 13, 6, 1, 1), (3, 5, 4, -1, 2)]:
        cover = glr_cover(r, pp, qq, n, q)
        lower, upper = squeeze_bounds(cover)
        assert upper % lower == 0
        modulus = q ** r - 1
        for a in range(0, modulus, 5):
            if not glr_general_position(r, q, a):
                continue
            dim = wh_dim_glr_closed(r, q, n, pp, qq, a)
            assert dim % lower == 0 and upper % dim == 0


# ---------------------------------------------------------------------------
# tables

def test_table_kp_gl2_histogram():
    rows, hist = enumerate_glr_table(2, 5, 4, 0, 1)
    assert hist == {2: 2, 4: 8}
    assert all(size == 2 for _, size, _ in rows)
    assert [a for a, _, _ in rows] == sorted(a for a, _, _ in rows)


def test_table_degree_one_all_ones():
    _, hist = enumerate_glr_table(2, 5, 1, 0, 1)
    assert set(hist) == {1}


def test_table_determinantal_n_divides_m():
    _, hist = enumerate_glr_table(2, 5, 4, 2, 4)  # m = 8
    assert set(hist) == {1}


def test_table_respects_enumeration_bound(monkeypatch):
    monkeypatch.setattr("whitdim.whittaker.MAX_TABLE_ORDER", 10)
    with pytest.raises(ResourceLimitError,
                       match="^q\\^r - 1 = 24 exceeds the enumeration bound 10$"):
        enumerate_glr_table(2, 5, 4, 0, 1)


def test_table_requires_a_prime_power_q():
    with pytest.raises(MathConstraintError, match="q = 6 is not a prime power"):
        enumerate_glr_table(2, 6, 5, 0, 1)
    # checked after the size guard and before n | q - 1, as for a cover
    with pytest.raises(ResourceLimitError):
        enumerate_glr_table(2, 1001, 2, 0, 1)
    with pytest.raises(MathConstraintError, match="q = 6 is not a prime power"):
        enumerate_glr_table(2, 6, 4, 0, 1)


def test_table_refuses_a_q_below_2_at_any_r_without_forming_q_to_the_r():
    # the bound on q^r - 1 applies from q = 2 on; below, the prime-power test
    # refuses q before any power is formed ((-7)^(4 * 10^6) takes seconds)
    start = time.perf_counter()
    for q in (-7, 0, 1):
        with pytest.raises(MathConstraintError, match="^q must be a prime power >= 2$"):
            glr_table(4 * 10 ** 6, q, 1, 0, 1)
    assert time.perf_counter() - start < 1


def test_table_class_representatives_are_orbit_minima():
    rows, _ = enumerate_glr_table(2, 7, 2, 0, 1)
    modulus = 48
    for a, size, _ in rows:
        orbit = {a * 7 ** s % modulus for s in range(2)}
        assert a == min(orbit) and size == len(orbit)


def _reference_table(r, q, n, pp, qq):
    """Classes as literal q-power orbits, dimensions from the oracle."""
    modulus = q ** r - 1
    classes = {}
    for a in _general_position_exponents(r, q):
        orbit = {a * q ** s % modulus for s in range(r)}
        classes[min(orbit)] = len(orbit)
    rows = tuple((a, size, wh_dim_oracle(r, q, n, pp, qq, a))
                 for a, size in sorted(classes.items()))
    histogram = {}
    for _, _, dim in rows:
        histogram[dim] = histogram.get(dim, 0) + 1
    return rows, dict(sorted(histogram.items()))


def test_table_matches_the_literal_reference():
    for r, q in TABLE_CASES:
        for n in _divisors(q - 1):
            for pp, qq in TABLE_FORMS:
                assert enumerate_glr_table(r, q, n, pp, qq) == _reference_table(r, q, n, pp, qq)


def test_table_blocks_match_the_per_block_filter():
    # the reach schedule against a filter that tests every live residue at
    # every block; a row base + c with c < P names its block and residue
    for r, q in TABLE_CASES + TABLE_WINDOW_CASES:
        for n in _divisors(q - 1):
            for pp, qq in TABLE_FORMS:
                table = glr_table(r, q, n, pp, qq)
                expected = table_blocks_by_filter(table)
                rows, histogram = enumerate_glr_table(r, q, n, pp, qq)
                assert list(rows) == [(base + c, r, dim) for base, residues in expected
                                      for c, _, dim in residues]
                counted = {}
                for _, residues in expected:
                    for _, _, dim in residues:
                        counted[dim] = counted.get(dim, 0) + 1
                assert table.histogram() == histogram == dict(sorted(counted.items()))


def test_table_worst_case_q_997():
    r, q, n, pp, qq = 2, 997, 996, 0, 1
    rows, histogram = enumerate_glr_table(r, q, n, pp, qq)
    assert sum(size for _, size, _ in rows) == len(_general_position_exponents(r, q))
    assert sum(histogram.values()) == len(rows)
    for a, _, dim in random.Random(0).sample(rows, 40):
        assert dim == wh_dim_oracle(r, q, n, pp, qq, a)


def test_table_solves_each_residue_once(monkeypatch):
    # the dimension depends only on a mod P = (q^r - 1)/(q - 1) = 500, so at
    # most 500 solver calls, against one per class representative (124,251)
    calls = []
    dimension = _GLrSolver.dimension

    def counted(self, a):
        calls.append(a)
        return dimension(self, a)

    monkeypatch.setattr(_GLrSolver, "dimension", counted)
    table = enumerate_glr_table(2, 499, 498, -3, -1)
    assert len(calls) <= 500
    assert len(table[0]) == 124_251
    assert hashlib.sha256(repr(table).encode()).hexdigest() == (
        "b7331f96b62b340b53650a1026c9b1017cc62bb01b9f3f3c80ef51dd6ac435db")


# ---------------------------------------------------------------------------
# parameter enumeration cross-check (twisted-torus characters)

def test_theta_solution_count_is_twisted_torus_order():
    # for the Coxeter twist of GL_r the solutions are exactly the q^r - 1
    # characters produced by glr_coxeter_parameter
    cover = glr_cover(2, 0, 1, 1, 5)
    w = glr_coxeter_parameter(2, 5, 1).w
    sols = theta_solutions(cover, w)
    assert len(sols) == 24
    expected = {glr_coxeter_parameter(2, 5, a).theta for a in range(24)}
    assert set(sols) == expected


# ---------------------------------------------------------------------------
# size guards of the oracle's scan and of the coset enumeration

#: primes q with q - 1 divisible by 100,000 (the bound) and by 200,002
Q_AT_BOUND, Q_PAST_BOUND = 700_001, 200_003


def test_oracle_scan_guard_at_its_bound_and_one_past_it():
    assert MAX_ORACLE_SCAN == 100_000
    # m = 1, so the scan has n steps; a = 0 is not in general position, which
    # the oracle finds only once its guard has passed
    with pytest.raises(GeneralPositionError):
        wh_dim_oracle(2, Q_AT_BOUND, 100_000, 0, 1, 0)
    past = "^the oracle's scan of n/gcd\\(n, m\\) = 100001 steps exceeds the guard 100000$"
    with pytest.raises(ResourceLimitError, match=past):
        wh_dim_oracle(2, Q_PAST_BOUND, 100_001, 0, 1, 1)
    # m = 2 halves n = 200,002
    with pytest.raises(ResourceLimitError, match=past):
        wh_dim_oracle(2, Q_PAST_BOUND, 200_002, 1, 0, 1)
    # the closed form has no scan to guard
    assert wh_dim_glr_closed(2, Q_PAST_BOUND, 100_001, 0, 1, 1) > 0


def test_oracle_equals_the_fraction_scan_at_the_scan_guard():
    # m = 1 and n = 100,000 on GL_2: 1 / (q + 1) is no multiple of 1 / n, so
    # a = 1 scans all 100,000 steps; a = q + 1 and a = 0 fail general position
    outcomes = []
    for a in (1, Q_AT_BOUND + 1, 0):
        args = (2, Q_AT_BOUND, 100_000, 0, 1, a)
        outcomes.append(_outcome(wh_dim_oracle, *args))
        assert outcomes[-1] == _outcome(oracle_scan_fractions, *args)
    assert outcomes[0] == MAX_ORACLE_SCAN


def test_non_block_data_answer_at_the_coset_guard_and_one_past_it():
    assert MAX_COSETS == 100_000
    # GL_2 in the basis e_1, e_1 + e_2 is no block data: L = Z(0, 1) and
    # gram . (0, 1) = (1, 2), so L / (L meet Y_{Q,n}) has order n
    datum, gram = NON_BLOCK_COVERS["GL_2, non-block basis"][:2]
    assert weyl_group(datum).blocks is None
    identity = identity_matrix(2)
    at = CoverSpec(datum, WeylInvariantForm(gram), 100_000, Q_AT_BOUND)
    param = LusztigParameter.from_theta(identity, (Fraction(1, Q_AT_BOUND - 1), 0))
    lower, upper = squeeze_bounds(at)
    lattice, dim = y_x_rho(at, param)
    assert upper == 100_000 and upper % dim == 0 and dim % lower == 0
    assert coset_scan_reference(at, param) == (lattice, dim)
    # one past the guard the solve answers at once, where the scan refuses
    past = CoverSpec(datum, WeylInvariantForm(gram), 100_001, Q_PAST_BOUND)
    param = LusztigParameter.from_theta(identity, (Fraction(1, Q_PAST_BOUND - 1), 0))
    start = time.perf_counter()
    _, dim = y_x_rho(past, param)
    assert time.perf_counter() - start < 1
    lower, upper = squeeze_bounds(past)
    assert lower == upper == 100_001 and upper % dim == 0 and dim % lower == 0
    with pytest.raises(ResourceLimitError,
                       match="^the quotient has 100001 cosets, more than the coset guard 100000$"):
        coset_scan_reference(past, param)
    # on GL_2 with the Kazhdan-Patterson form, block data, the same orders
    # are solved as well
    for q, n in ((Q_AT_BOUND, 100_000), (Q_PAST_BOUND, 100_001)):
        cover = glr_cover(2, 0, 1, n, q)
        assert squeeze_bounds(cover)[1] == n
        _, dim = y_x_rho(cover, glr_coxeter_parameter(2, q, 1, n))
        assert dim == wh_dim_glr_closed(2, q, n, 0, 1, 1)


def test_the_solve_answers_n_equal_to_q_minus_one_at_q_near_10_12():
    # about 10^12 cosets, far past the guard of the scan
    q = 1_000_000_000_039
    start = time.perf_counter()
    for form in ((0, 1), (1, 0), (2, -1)):
        cover = glr_cover(2, *form, q - 1, q)
        assert squeeze_bounds(cover)[1] > MAX_COSETS
        for a in (1, 2, q + 2):
            _, dim = y_x_rho(cover, glr_coxeter_parameter(2, q, a, q - 1))
            assert dim == wh_dim_glr_closed(2, q, q - 1, *form, a), (form, a)
    assert time.perf_counter() - start < 1
