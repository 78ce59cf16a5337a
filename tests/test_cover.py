import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from whitdim import cover as cover_module
from whitdim.cover import (
    _SMALL_PRIMES,
    CoverSpec,
    _check_q_and_degree,
    _passes_miller_rabin,
    _prime_power_base,
    WeylInvariantForm,
    central_index,
    classify_glr_family,
    form_from_glr_invariants,
    glr_cover,
    glr_invariants_of,
    m_qr,
    q_of_e0,
    y_qn,
)
from whitdim.errors import MathConstraintError, ResourceLimitError
from whitdim.lattice import Sublattice, hermite_normal_form, mat_vec
from whitdim.root_datum import (
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    weyl_group,
)
from whitdim.whittaker import squeeze_bounds

from _oracles import lattice_contains, prime_power_base_trial, simple_reflection_matrices


# ---------------------------------------------------------------------------
# forms

def test_form_from_glr_invariants_kp_shape():
    assert form_from_glr_invariants(2, 0, 1).gram == ((0, 1), (1, 0))


def test_form_coroot_value_is_2p_minus_q():
    cover = glr_cover(3, 1, 2, 1, 5)
    assert [cover.coroot_q[i] for i in cover.datum.simple_indices] == [0, 0]  # 2*1 - 2


def test_form_rank_one_ignores_off_diagonal():
    assert form_from_glr_invariants(1, 1, 99).gram == ((2,),)


def test_form_validation():
    with pytest.raises(MathConstraintError):
        WeylInvariantForm(((1, 0), (0, 2)))   # odd diagonal
    with pytest.raises(MathConstraintError):
        WeylInvariantForm(((2, 1), (0, 2)))   # not symmetric


def test_form_refuses_non_integer_entries():
    # 2.9 was truncated to 2, which passed the even-diagonal check
    with pytest.raises(TypeError):
        WeylInvariantForm(((2.9, 0), (0, 2)))


def test_q_of_e0_values():
    assert q_of_e0(2, -1, -1) == -3
    assert q_of_e0(4, 0, 0) == 0
    # derived by expanding Q(e_1+e_2+e_3) through the bilinear identity
    form = form_from_glr_invariants(3, 1, 2)
    assert form.bilinear((1, 1, 1), (1, 1, 1)) // 2 == 9 == q_of_e0(3, 1, 2)


def test_classify_glr_family():
    assert classify_glr_family(1, 2) == "determinantal"
    assert classify_glr_family(-1, 0) == "savin"
    assert classify_glr_family(0, 1) == "kazhdan_patterson"
    assert classify_glr_family(-1, -1) == "kazhdan_patterson"
    assert classify_glr_family(2, 1) == "other(3)"


def test_family_depends_only_on_2p_minus_q():
    for pp, qq in product(range(-3, 4), repeat=2):
        shifted = classify_glr_family(pp + 1, qq + 2)  # same 2p - q
        assert classify_glr_family(pp, qq) == shifted


def test_glr_forms_are_weyl_invariant():
    for r, pp, qq in [(2, 0, 1), (3, -1, 2), (4, 2, -2)]:
        cover = glr_cover(r, pp, qq, 1, 5)
        g = cover.form.gram
        from whitdim.lattice import mat_mul, transpose
        for w in weyl_group(cover.datum).elements:
            assert mat_mul(transpose(w), mat_mul(g, w)) == g


# ---------------------------------------------------------------------------
# cover spec validation

def test_n_must_divide_q_minus_one():
    with pytest.raises(MathConstraintError):
        glr_cover(2, 0, 1, 3, 5)


def test_q_must_be_a_prime_power():
    with pytest.raises(MathConstraintError):
        glr_cover(2, 0, 1, 1, 12)
    assert glr_cover(1, 0, 0, 1, 49).p == 7
    assert glr_cover(1, 0, 0, 8, 9).p == 3


def _outcome(func, q):
    try:
        return func(q)
    except MathConstraintError as exc:
        return str(exc)


def test_prime_power_base_matches_trial_division_below_2e5():
    for q in range(-3, 2 * 10 ** 5):
        assert _outcome(_prime_power_base, q) == _outcome(prime_power_base_trial, q), q


def test_prime_power_base_at_the_edge_of_the_small_table():
    # 1847 is the last prime the table answers, 1849 = 43^2 the first q
    # answered by the root path
    assert _prime_power_base(1847) == 1847
    assert _prime_power_base(1849) == 43
    assert glr_cover(2, 0, 1, 1, 1849).p == 43
    for q in (1848, 1850):
        message = f"^q = {q} is not a prime power$"
        with pytest.raises(MathConstraintError, match=message):
            _check_q_and_degree(q, 1)
        with pytest.raises(MathConstraintError, match=message):
            glr_cover(2, 0, 1, 1, q)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6 - 1))
def test_prime_power_base_matches_trial_division_below_1e6(q):
    assert _outcome(_prime_power_base, q) == _outcome(prime_power_base_trial, q)


@pytest.mark.parametrize("q", [
    2047,                         # strong pseudoprime to base 2
    3215031751,                   # to bases 2, 3, 5, 7
    3825123056546413051,          # to bases 2, ..., 23
    318665857834031151167461,     # to bases 2, ..., 37
    999999999989 * 1000000000039,
])
def test_prime_power_base_rejects_pseudoprimes_and_semiprimes(q):
    with pytest.raises(MathConstraintError, match=f"^q = {q} is not a prime power$"):
        _prime_power_base(q)


@pytest.mark.parametrize("q, p", [
    (999999999989 ** 2, 999999999989),
    ((2 ** 61 - 1) ** 3, 2 ** 61 - 1),
    (2 ** 100, 2),
    (3 ** 60, 3),
    ((2 ** 31 - 1) ** 4, 2 ** 31 - 1),   # a root that is again a square
    (43 ** 9, 43),
    (10 ** 18 + 3, 10 ** 18 + 3),
])
def test_prime_power_base_of_large_prime_powers(q, p):
    assert _prime_power_base(q) == p


@pytest.mark.parametrize("q", [
    3317044064679887385961981,    # strong pseudoprime to bases 2, ..., 41
    2 ** 89 - 1,                  # a prime beyond the bound
])
def test_prime_power_base_beyond_the_miller_rabin_bound(q):
    with pytest.raises(ResourceLimitError, match="3317044064679887385961981"):
        _prime_power_base(q)


def test_prime_power_base_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    cases = []
    for _ in range(40):
        cases.append(rng.randrange(2, 10 ** 24))
        cases.append(sympy.nextprime(rng.randrange(10 ** 6, 10 ** 24)))
        e = rng.randrange(2, 7)
        b = rng.randrange(2, int(10 ** (24 / e)))
        cases.append(b ** e)
        cases.append(sympy.nextprime(b) ** e)
        cases.append(sympy.nextprime(rng.randrange(10 ** 3, 10 ** 11))
                     * sympy.nextprime(rng.randrange(10 ** 3, 10 ** 12)))
    assert len(cases) == 200 and max(cases) < 10 ** 24
    for q in cases:
        if sympy.isprime(q):
            expected = q
        else:
            power = sympy.perfect_power(q)
            expected = power[0] if power and sympy.isprime(power[0]) else None
        if expected is None:
            with pytest.raises(MathConstraintError, match="is not a prime power"):
                _prime_power_base(q)
        else:
            assert _prime_power_base(q) == expected, q


#: (psi, k): psi is the least strong pseudoprime to the first k prime
#: bases, the edge of the band that those k bases decide
MILLER_RABIN_BAND_EDGES = ((2_047, 1), (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4),
                           (2_152_302_898_747, 5), (3_474_749_660_383, 6),
                           (341_550_071_728_321, 7),
                           (3_825_123_056_546_413_051, 9),
                           (318_665_857_834_031_151_167_461, 12),
                           (3_317_044_064_679_887_385_961_981, 13))


def test_each_band_edge_is_refused_by_the_prefix_above_it():
    mr = pytest.importorskip("sympy.ntheory.primetest").mr
    for (psi, k), (_, longer) in zip(MILLER_RABIN_BAND_EDGES, MILLER_RABIN_BAND_EDGES[1:]):
        # psi fools the k bases that decide the band below it, not the next prefix
        assert mr(psi, _SMALL_PRIMES[:k]) and not mr(psi, _SMALL_PRIMES[:longer])
        assert not _passes_miller_rabin(psi)
        with pytest.raises(MathConstraintError, match=f"^q = {psi} is not a prime power$"):
            _prime_power_base(psi)


def test_miller_rabin_tests_the_shortest_proven_prefix(monkeypatch):
    sympy = pytest.importorskip("sympy")
    bases = []

    def counted(a, d, m):
        bases.append(a)
        return pow(a, d, m)

    monkeypatch.setattr(cover_module, "pow", counted, raising=False)
    rng = random.Random(70)
    lower = 43 * 43
    for psi, k in MILLER_RABIN_BAND_EDGES:
        # a prime runs every base of its band's prefix
        prime = sympy.prevprime(rng.randrange(max(lower, psi // 2), psi))
        bases.clear()
        assert _passes_miller_rabin(prime)
        assert bases == list(_SMALL_PRIMES[:k]), prime
        # the band's first 200 odd numbers (all of the band below 2,047),
        # then odd numbers, primes and semiprimes drawn from it, against sympy
        cases = [prime, *range(lower | 1, min(lower + 400, psi), 2)]
        for _ in range(40):
            cases.append(rng.randrange(lower, psi) | 1)
            cases.append(sympy.nextprime(rng.randrange(lower, psi)))
            root = sympy.nextprime(rng.randrange(42, math.isqrt(psi)))
            cases.append(root * sympy.nextprime(rng.randrange(42, psi // root)))
        for b in cases:
            if b % 2 and all(b % p for p in _SMALL_PRIMES) and lower <= b < psi:
                assert _passes_miller_rabin(b) == sympy.isprime(b), b
        lower = psi
    assert _passes_miller_rabin(999_999_999_989)
    bases.clear()
    assert _passes_miller_rabin(999_999_999_989)
    assert bases == [2, 3, 5, 7, 11]


def test_non_invariant_form_rejected():
    with pytest.raises(MathConstraintError):
        CoverSpec(build_glr(2), WeylInvariantForm(((2, 0), (0, 4))), 1, 5)


def test_frobenius_invariance_of_form_checked():
    swap = ((0, 1), (1, 0))
    torus = build_torus(2, swap)
    with pytest.raises(MathConstraintError):
        CoverSpec(torus, WeylInvariantForm(((2, 0), (0, 4))), 1, 5)
    CoverSpec(torus, WeylInvariantForm(((2, 0), (0, 2))), 1, 5)  # fine


# ---------------------------------------------------------------------------
# state held on the cover and on its datum

def held_state_covers():
    """GL_7, SL_6, Sp_8 and a torus whose Frobenius is a 5-cycle, each with
    its semisimple rank."""
    cycle = tuple(tuple(int(j == (i + 1) % 5) for j in range(5)) for i in range(5))
    slr_gram = tuple(tuple(2 if i == j else -(abs(i - j) == 1) for j in range(5))
                     for i in range(5))
    return ((glr_cover(7, -1, 2, 4, 5), 6),
            (CoverSpec(build_slr(6), WeylInvariantForm(slr_gram), 2, 5), 5),
            (CoverSpec(build_sp2r(4), WeylInvariantForm(tuple(
                tuple(6 * (i == j) for j in range(4)) for i in range(4))), 4, 5), 4),
            (CoverSpec(build_torus(5, cycle), WeylInvariantForm(tuple(
                tuple(2 if i == j else 1 for j in range(5)) for i in range(5))), 2, 5), 0))


def test_coroot_q_is_q_on_every_coroot_in_root_order():
    for cover, _ in held_state_covers():
        table = cover.coroot_q
        assert table == tuple(cover.form.bilinear(c, c) // 2 for c in cover.datum.coroots)
        assert cover.coroot_q is table


def test_held_weyl_group_and_semisimple_rank_match_fresh_computation():
    for cover, semisimple_rank in held_state_covers():
        rd, d = cover.datum, cover.rank
        group = weyl_group(rd)
        assert weyl_group(rd) is group
        # s_i y = y - <root_i, y> coroot_i, entry by entry
        assert all(s in group for s in simple_reflection_matrices(rd))
        assert rd.semisimple_rank == semisimple_rank
        if rd.roots:
            assert hermite_normal_form(rd.roots, d).rank == semisimple_rank


# ---------------------------------------------------------------------------
# Y_{Q,n}

def test_y_qn_full_for_degree_one():
    assert y_qn(glr_cover(2, 0, 1, 1, 5)) == Sublattice.full(2)


def test_y_qn_kp_gl2_by_residue_enumeration():
    cover = glr_cover(2, 0, 1, 4, 5)
    lat = y_qn(cover)
    gram = cover.form.gram
    members = {(a, b) for a in range(4) for b in range(4)
               if all(c % 4 == 0 for c in mat_vec(gram, (a, b)))}
    assert members == {(0, 0)}
    assert lat.basis == ((4, 0), (0, 4))


def test_y_qn_gl1():
    assert y_qn(glr_cover(1, 1, 0, 4, 5)).basis == ((2,),)


def test_y_qn_contains_n_times_full_lattice():
    for r, pp, qq, n, q in [(2, 0, 1, 4, 5), (3, 1, -1, 3, 7), (2, -2, 2, 6, 13)]:
        lat = y_qn(glr_cover(r, pp, qq, n, q))
        for i in range(r):
            assert lat.contains_vector(tuple(n * (k == i) for k in range(r)))


def test_y_qn_monotone_in_n():
    for n, n2 in [(2, 4), (1, 3), (2, 6), (3, 12)]:
        big = y_qn(glr_cover(2, 1, -1, n, 13))
        small = y_qn(glr_cover(2, 1, -1, n2, 13))
        assert lattice_contains(big, small)


# ---------------------------------------------------------------------------
# central index

def test_central_index_is_one_for_degree_one():
    assert central_index(glr_cover(3, 2, -1, 1, 7)) == 1


def test_central_index_gl1():
    assert central_index(glr_cover(1, 1, 0, 4, 5)) == 2


def test_central_index_kp_gl2():
    assert central_index(glr_cover(2, 0, 1, 4, 5)) == 16


def test_central_index_with_swap_frobenius():
    # torus Z^2 with swap: Y^Fr = Z(1,1); with gram 2p*I the condition is
    # 2p*k = 0 mod n on the diagonal
    torus = build_torus(2, ((0, 1), (1, 0)))
    cover = CoverSpec(torus, WeylInvariantForm(((2, 0), (0, 2))), 4, 5)
    assert central_index(cover) == 2


def test_central_index_vs_brute_force_coset_count():
    # trivial Frobenius: Y^Fr = Z^r and n*Z^r lies inside Y_{Q,n}, so the box
    # [0,n)^r contains every coset; classify its points pairwise with no
    # lattice machinery at all
    rng = random.Random(11)
    cases = [(1, 1, 0, 4, 5), (2, 0, 1, 4, 5), (2, 1, 1, 2, 5), (1, 3, 0, 12, 13),
             (2, -1, 2, 6, 7), (3, 1, 0, 2, 3)]
    for _ in range(6):
        cases.append((rng.randint(1, 2), rng.randint(-2, 2), rng.randint(-2, 2),
                      rng.choice([1, 2, 4]), 5))
    for r, pp, qq, n, q in cases:
        cover = glr_cover(r, pp, qq, n, q)
        gram = cover.form.gram

        def same_coset(u, v):
            diff = tuple(a - b for a, b in zip(u, v))
            return all(c % n == 0 for c in mat_vec(gram, diff))

        reps = []
        for pt in product(*[range(n)] * r):
            if not any(same_coset(pt, rep) for rep in reps):
                reps.append(pt)
        assert central_index(cover) == len(reps) <= 256


# ---------------------------------------------------------------------------
# m_qr and invariant detection

def test_m_qr_values():
    assert m_qr(1, 1, 12345) == 2
    assert m_qr(2, 0, 1) == 1
    assert m_qr(3, 1, 1) == 4


def test_m_qr_matches_gram_product():
    for r, pp, qq in [(2, 0, 1), (3, 1, 1), (4, -2, 3)]:
        form = form_from_glr_invariants(r, pp, qq)
        e0 = (1,) * r
        for i in range(r):
            ei = tuple(int(k == i) for k in range(r))
            assert form.bilinear(e0, ei) == m_qr(r, pp, qq)


def test_glr_invariants_detection():
    cover = glr_cover(3, 1, -2, 1, 5)
    inv = glr_invariants_of(cover.datum, cover.form)
    assert inv == (1, -2)
    assert glr_invariants_of(build_sp2r(2),
                             WeylInvariantForm(((2, 0), (0, 2)))) is None


def test_squeeze_bounds_examples():
    assert squeeze_bounds(glr_cover(2, 0, 1, 4, 5)) == (2, 4)
    assert squeeze_bounds(glr_cover(1, 1, 0, 4, 5)) == (2, 2)
    lower, upper = squeeze_bounds(glr_cover(3, 1, 1, 4, 5))
    assert upper % lower == 0
