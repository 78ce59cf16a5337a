import hashlib
import random
import time
from fractions import Fraction
from itertools import cycle, permutations, product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from whitdim import root_datum
from whitdim.cover import CoverSpec, WeylInvariantForm, central_index, glr_cover, m_qr
from whitdim.errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from whitdim.lattice import (
    MAX_COSETS,
    Sublattice,
    hermite_normal_form,
    identity_matrix,
    mat_mul,
    transpose,
)
from whitdim.root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    PermutationBlocks,
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
    enumerate_glr_table,
    glr_coxeter_parameter,
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
    glr_dimension_scan,
    glr_general_position,
    oracle_scan_fractions,
    orbit_search_reference,
    simple_reflection_matrices,
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
        with pytest.raises(ValueError,
                           match=f"^the cover degree n must be at least 1, got n = {n}$"):
            glr_coxeter_parameter(2, 5, 7, n)
    # the default degree 1 pins the central exponent to 0
    assert glr_coxeter_parameter(2, 5, 7).central == 0
    assert glr_coxeter_parameter(2, 5, 7) == glr_coxeter_parameter(2, 5, 7, 1)


def test_coxeter_parameter_range_check():
    message = r"^exponent a must lie in \[0, q\^r - 1\) = \[0, 24\)$"
    for a in (24, -1):
        with pytest.raises(ValueError, match=message):
            glr_coxeter_parameter(2, 5, a)
        for route in (wh_dim_glr_closed, wh_dim_oracle):
            with pytest.raises(ValueError, match=message):
                route(2, 5, 4, 0, 1, a)
    # with both q and a out of range, q is named first
    with pytest.raises(ValueError, match="^need r >= 1 and q >= 2$"):
        glr_coxeter_parameter(2, 1, -1)
    for route in (wh_dim_glr_closed, wh_dim_oracle):
        with pytest.raises(ValueError, match="^need r >= 1 and q >= 2$"):
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


def test_parameter_refuses_a_non_integer_twist():
    # the entries were truncated to the swap ((0, 1), (1, 0))
    with pytest.raises(TypeError):
        LusztigParameter(((0.9, 1), (1, 0.2)), 5, (1, 2))


def test_coxeter_parameter_matches_its_rational_definition():
    for q in (2, 3, 4, 5, 7):
        for r in (1, 2, 3):
            r_cycle = tuple(tuple(int(i == (j + 1) % r) for j in range(r)) for i in range(r))
            assert glr_coxeter_parameter(r, q, 0).w == r_cycle
            modulus = q ** r - 1
            for n in _divisors(q - 1):
                central = Fraction(1, n)
                for a in range(modulus):
                    theta = [Fraction(a * q ** i, modulus) for i in range(r)]
                    expected = LusztigParameter.from_theta(
                        glr_coxeter_parameter(r, q, 0).w, theta, central)
                    assert glr_coxeter_parameter(r, q, a, n) == expected, (r, q, n, a)


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
    assert cover._weyl is weyl_group(cover.datum)


def test_y_x_rho_on_gl_r_never_looks_up_the_weyl_group(monkeypatch):
    cover = glr_cover(3, 0, 1, 2, 3)
    calls = _count_weyl_orders(monkeypatch)
    for a in (1, 2, 5):
        y_x_rho(cover, glr_coxeter_parameter(3, 3, a, 2))
    assert calls == []
    assert isinstance(cover._weyl, PermutationBlocks)


def test_y_x_rho_lattice_contains_the_meet():
    from whitdim.cover import y_qn
    from whitdim.lattice import index, intersect
    from whitdim.root_datum import weyl_frobenius_fixed_lattice
    for a in (1, 2, 3, 7):
        lat, idx = y_x_rho(KP, glr_coxeter_parameter(2, 5, a, 4))
        big = weyl_frobenius_fixed_lattice(KP.datum)
        meet = intersect(big, y_qn(KP))
        assert lat.contains_lattice(meet)
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


def check_against_orbit_reference(cover, params):
    """Compare general position and the y_x_rho lattice and index with the
    literal orbit search; returns (in general position, not) counts."""
    assert isinstance(cover._weyl, PermutationBlocks)
    elements = weyl_group(cover.datum).elements
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
        counts[0] += 1
    return tuple(counts)


def test_block_membership_matches_the_weyl_group():
    for cover in BLOCK_COVERS:
        assert isinstance(cover._weyl, PermutationBlocks)
        d = cover.rank
        members = set(weyl_group(cover.datum).elements)
        if d <= 3:
            candidates = product((-1, 0, 1), repeat=d * d)
        else:
            candidates = (tuple(sign * int(perm[j] == i) for i, sign in enumerate(signs)
                                for j in range(d))
                          for perm in permutations(range(d))
                          for signs in product((1, -1), repeat=d))
        for flat in candidates:
            m = tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))
            assert (m in cover._weyl) == (m in members), m


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


def _invariant_cover(datum, q, n, rng):
    """A cover whose form is a random even form summed over the group that W
    and Frobenius generate."""
    d = datum.rank
    gens = [*simple_reflection_matrices(datum), datum.fr.matrix]
    group = [identity_matrix(d)]
    for m in group:
        group.extend(x for x in (mat_mul(g, m) for g in gens) if x not in group)
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
    elements = weyl_group(datum).elements
    params = []
    for w in elements:
        thetas = theta_solutions(cover, w)
        params += [LusztigParameter.from_theta(w, theta, Fraction(1, n))
                   for theta in rng.sample(thetas, min(len(thetas), 20))]
    gp, not_gp = check_against_orbit_reference(cover, params)
    # with W trivial every character is in general position
    assert gp and (not_gp or len(elements) == 1)


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

#: a cover of the acceptance sweep with 6 cosets, passing sets of 1 and 3
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
    # map keyed by the order alone would answer one of them wrongly
    held = shared._passing_subgroups
    assert sorted(len(key) for key in held) == [1, 2, 2, 4]
    assert len({lattice for lattice, _ in held.values()}) == 4
    # a cover of smaller degree on the same datum, after the map of the
    # product cover is full: the same passing tuples, other subgroups
    smaller = CoverSpec(PRODUCT_DATUM, WeylInvariantForm(PRODUCT_GRAM), 2, 5)
    assert len(smaller._cosets) < len(shared._cosets)
    assert check_against_orbit_reference(smaller, params) == (len(params), 0)


def test_each_passing_set_is_checked_once_per_cover(monkeypatch):
    calls = []

    def counted(rows, ambient_rank=None):
        calls.append(len(rows))
        return hermite_normal_form(rows, ambient_rank)

    cover = glr_cover(*SWEEP_COVER)
    monkeypatch.setattr("whitdim.whittaker.hermite_normal_form", counted)
    params = _sweep_cover_parameters()
    lattices = {y_x_rho(cover, param)[0] for param in params}
    assert len(params) > 2000
    # a passing set is the set of cosets in its lattice, so distinct lattices
    # count distinct passing sets
    assert len(calls) == len(lattices) == len(cover._passing_subgroups) == 2

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


def test_passing_cosets_that_are_no_subgroup_are_refused_every_time(monkeypatch):
    # the first two of the 6 cosets pass: 2 divides 6, but (1, 1, 1) has
    # order 6 in the quotient
    cover = glr_cover(*SWEEP_COVER)

    class FirstTwoCosetsPass:
        def __contains__(self, w):
            return True

        def orbit(self, v, denom, w, f):
            calls = iter(range(len(cover._cosets)))
            return lambda u: next(calls) < 2

    monkeypatch.setitem(cover.__dict__, "_weyl", FirstTwoCosetsPass())
    param = _sweep_cover_parameters()[0]
    for _ in range(2):
        with pytest.raises(RuntimeError, match="do not form a subgroup"):
            y_x_rho(cover, param)
    assert cover._passing_subgroups == {}


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


def test_both_routes_reject_a_q_that_is_not_a_prime_power():
    for route in (wh_dim_glr_closed, wh_dim_oracle):
        with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
            route(2, 6, 5, 0, 1, 1)
        # checked after r and q >= 2 and before n | q - 1, as in the table
        with pytest.raises(ValueError, match="need r >= 1"):
            route(0, 6, 5, 0, 1, 1)
        with pytest.raises(MathConstraintError, match="^q = 6 is not a prime power$"):
            route(2, 6, 4, 0, 1, 1)


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


def test_coset_guard_at_its_bound_and_one_past_it():
    assert MAX_COSETS == 100_000
    # on GL_2 with the Kazhdan-Patterson form, L / (L meet Y_{Q,n}) has order n
    at = glr_cover(2, 0, 1, 100_000, Q_AT_BOUND)
    _, dim = y_x_rho(at, glr_coxeter_parameter(2, Q_AT_BOUND, 1, 100_000))
    assert len(at._cosets) == squeeze_bounds(at)[1] == 100_000
    assert dim == wh_dim_glr_closed(2, Q_AT_BOUND, 100_000, 0, 1, 1)
    past = glr_cover(2, 0, 1, 100_001, Q_PAST_BOUND)
    assert squeeze_bounds(past)[1] == 100_001
    with pytest.raises(ResourceLimitError,
                       match="^the quotient has 100001 cosets, more than the coset guard 100000$"):
        y_x_rho(past, glr_coxeter_parameter(2, Q_PAST_BOUND, 1, 100_001))
