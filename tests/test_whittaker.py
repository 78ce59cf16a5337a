import random
from fractions import Fraction
from itertools import cycle
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from whitdim.cover import CoverSpec, WeylInvariantForm, central_index, glr_cover, m_qr
from whitdim.errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from whitdim.lattice import Sublattice
from whitdim.root_datum import build_slr, build_sp2r, build_torus, weyl_group
from whitdim.whittaker import (
    GLrCharacter,
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

from _oracles import glr_dimension_scan, theta_solutions, twisted_centralizer_fixing

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


def test_coxeter_parameter_range_check():
    with pytest.raises(ValueError):
        glr_coxeter_parameter(2, 5, 24)
    with pytest.raises(ValueError):
        glr_coxeter_parameter(2, 5, -1)


def test_parameter_must_satisfy_twisted_character_equation():
    bad = LusztigParameter(((1, 0), (0, 1)), (Fraction(1, 24), Fraction(5, 24)))
    with pytest.raises(MathConstraintError):
        y_x_rho(KP, bad)


def test_parameter_denominators_must_avoid_p():
    w = glr_coxeter_parameter(1, 5, 0).w
    bad = LusztigParameter(w, (Fraction(1, 5),))
    with pytest.raises(MathConstraintError):
        y_x_rho(glr_cover(1, 0, 0, 1, 5), bad)


# ---------------------------------------------------------------------------
# general position

def test_gp_zero_exponent_fails_for_r_at_least_2():
    assert not is_general_position(GLrCharacter(2, 5, 0))
    assert not is_general_position(GLrCharacter(3, 7, 0))


def test_gp_modular_examples():
    assert not is_general_position(GLrCharacter(2, 5, 6))   # 6*4 = 24 = 0 mod 24
    assert is_general_position(GLrCharacter(2, 5, 1))


def test_gp_r1_always_true():
    assert all(is_general_position(GLrCharacter(1, 5, a)) for a in range(4))


@pytest.mark.parametrize("r,q", [(2, 5), (3, 3), (2, 7)])
def test_gp_paths_agree_on_coxeter_inputs(r, q):
    cover = glr_cover(r, 0, 1, 1, q)
    for a in range(q ** r - 1):
        char_path = is_general_position(GLrCharacter(r, q, a))
        param_path = is_general_position(glr_coxeter_parameter(r, q, a), cover)
        assert char_path == param_path, a


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
            param = LusztigParameter(w, theta)
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
    assert is_general_position(LusztigParameter(reflection, (Fraction(1, 3),) * 2), cover)
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
    param = LusztigParameter(((-1,),), (Fraction(1, 6),))
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


def test_y_x_rho_looks_up_the_weyl_group_once_per_cover():
    cover = glr_cover(2, 0, 1, 4, 5)
    before = weyl_group.cache_info()
    for a in (1, 3, 5):
        y_x_rho(cover, glr_coxeter_parameter(2, 5, a, 4))
    after = weyl_group.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1
    assert cover._weyl_group is weyl_group(cover.datum)


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


def test_both_routes_reject_every_exponent_not_in_general_position():
    checked = 0
    for r in (1, 2, 3):
        for q in (2, 3, 4, 5, 7, 8, 9):
            modulus = q ** r - 1
            failing = [a for a in range(modulus)
                       if not is_general_position(GLrCharacter(r, q, a))]
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
            if not is_general_position(GLrCharacter(r, q, a)):
                continue
            dim = wh_dim_glr_closed(r, q, n, pp, qq, a)
            assert bound % dim == 0


def test_dimension_constant_on_q_power_orbits():
    r, q, n, pp, qq = 2, 7, 6, 0, 1
    modulus = q ** r - 1
    for a in range(modulus):
        if not is_general_position(GLrCharacter(r, q, a)):
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
            if not is_general_position(GLrCharacter(r, q, a)):
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


def test_table_respects_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_glr_table(2, 5, 4, 0, 1, max_order=10)


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
    for r, q in [(1, 2), (2, 2), (3, 2), (4, 2), (1, 5), (2, 5), (3, 3), (4, 3),
                 (2, 4), (3, 4), (2, 7), (3, 5), (2, 9), (2, 13)]:
        for n in _divisors(q - 1):
            for pp, qq in [(0, 1), (1, 0), (-2, 3), (0, 0)]:
                assert enumerate_glr_table(r, q, n, pp, qq) == _reference_table(r, q, n, pp, qq)


def test_table_worst_case_q_997():
    r, q, n, pp, qq = 2, 997, 996, 0, 1
    rows, histogram = enumerate_glr_table(r, q, n, pp, qq)
    assert sum(size for _, size, _ in rows) == len(_general_position_exponents(r, q))
    assert sum(histogram.values()) == len(rows)
    for a, _, dim in random.Random(0).sample(rows, 40):
        assert dim == wh_dim_oracle(r, q, n, pp, qq, a)


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
