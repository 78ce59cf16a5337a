import json
import random
from fractions import Fraction
from itertools import product

import pytest

from whitdim import lattice, parahoric
from whitdim.cli import main
from whitdim.cover import CoverSpec, WeylInvariantForm, glr_cover
from whitdim.errors import MathConstraintError
from whitdim.lattice import Sublattice, hermite_normal_form
from whitdim.parahoric import (
    ApartmentPoint,
    _integral_roots,
    is_hyperspecial,
    is_vertex,
    parse_rational,
    phi_x,
    residual_derived_simply_connected,
    residual_extension,
    residual_splits,
)
from whitdim.root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    _pairings,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
)

from _oracles import residual_extension_reference, residual_splits_reference

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
    for bad in ("1.5", "x", "1/0", "1/00", "-3/000", ""):
        with pytest.raises(ValueError):
            parse_rational(bad)
    # decimal digits of other scripts were read as their values: "١/٢"
    # (Arabic-Indic) as 1/2 and "१२/७" (Devanagari) as 12/7
    for bad in ("\u0661/\u0662", "\u0663", "\u0967\u0968/\u096d", "\uff11", "1/\u0662"):
        with pytest.raises(ValueError, match="^malformed rational"):
            parse_rational(bad)


def test_point_refuses_float_coordinates():
    # 0.1 was read as the binary fraction 3602879701896397/2^55
    for bad in ((0.1, 0), (0, 0.5), ("1/2", 0)):
        with pytest.raises(TypeError):
            ApartmentPoint(bad)
    assert ApartmentPoint((1, Fraction(1, 10))).coords == (1, Fraction(1, 10))
    with pytest.raises(TypeError):
        phi_x(build_glr(2), (0.1, 0))


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


def test_point_length_is_checked_before_frobenius_fixedness():
    # a length-3 point is not fixed by the 2 x 2 swap either
    torus = build_torus(2, ((0, 1), (1, 0)))
    cover = CoverSpec(torus, WeylInvariantForm(((2, 0), (0, 2))), 2, 5)
    for route in (lambda x: phi_x(torus, x), lambda x: residual_extension(cover, x)):
        with pytest.raises(ValueError) as info:
            route((H, 0, 0))
        assert type(info.value) is ValueError
        with pytest.raises(MathConstraintError):
            route((H, 0))


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


def assert_matches_reference(cover, x):
    """phi_x, residual_extension and residual_splits at x against the
    rational references; returns the reference split outcome (None when x
    is not fixed by Frobenius, and then every route must refuse x)."""
    reference = residual_extension_reference(cover, x)
    expected = residual_splits_reference(cover, x)
    if reference is None:
        for route in (lambda: phi_x(cover.datum, x), lambda: residual_extension(cover, x),
                      lambda: residual_splits(cover, x)):
            with pytest.raises(MathConstraintError):
                route()
        return None
    indices, iota = reference
    res = residual_extension(cover, x)
    assert phi_x(cover.datum, x) == res.phi_x == indices, x
    assert res.iota == iota, x
    assert residual_splits(cover, x) == expected, (cover.datum.rank, x)
    return expected


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
    outcomes = {assert_matches_reference(cover, x)
                for cover in covers for x in product(values, repeat=cover.rank)}
    assert outcomes == {None, True, False}


def test_residual_extension_matches_reference_on_large_data():
    # seeded points whose coordinates have their own denominators, and
    # constant points, which every permutation Frobenius fixes
    rng = random.Random(0)
    cycle = tuple(tuple(int(j == (i + 1) % 5) for j in range(5)) for i in range(5))
    slr_gram = tuple(tuple(2 if i == j else -(abs(i - j) == 1) for j in range(5))
                     for i in range(5))
    covers = (glr_cover(7, -1, 2, 4, 5),
              CoverSpec(build_slr(6), WeylInvariantForm(slr_gram), 2, 5),
              CoverSpec(build_sp2r(4), WeylInvariantForm(tuple(
                  tuple(6 * (i == j) for j in range(4)) for i in range(4))), 4, 5),
              CoverSpec(build_torus(5, cycle), WeylInvariantForm(tuple(
                  tuple(2 if i == j else 1 for j in range(5)) for i in range(5))), 2, 5))
    outcomes = set()
    for cover in covers:
        d = cover.rank
        points = [tuple(Fraction(k, 3) for k in range(d))]
        for _ in range(150):
            x = [Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4, 6, 12)))
                 for _ in range(d)]
            points.append(tuple(x) if rng.random() < 0.7 else (x[0],) * d)
        for x in points:
            outcomes.add(assert_matches_reference(cover, x))
    assert outcomes == {None, True}


# ---------------------------------------------------------------------------
# one evaluation of the roots per point

#: every function of a cover and a point, each reading the roots at the point
ROUTES = (lambda cover, x: phi_x(cover.datum, x),
          lambda cover, x: is_hyperspecial(cover.datum, x),
          lambda cover, x: is_vertex(cover.datum, x),
          residual_extension,
          residual_splits,
          residual_derived_simply_connected)


def gl3_cover():
    return glr_cover(3, 1, 1, 2, 5)


def sp4_cover():
    return CoverSpec(build_sp2r(2), WeylInvariantForm(((2, 0), (0, 2))), 4, 5)


@pytest.fixture
def evaluations(monkeypatch):
    """One entry per evaluation of the roots at a point: parahoric pairs
    every root with the point's numerators in one call."""
    calls = []

    def counting_pairings(columns, u):
        calls.append(tuple(u))
        return _pairings(columns, u)

    monkeypatch.setattr(parahoric, "_pairings", counting_pairings)
    return calls


def test_alternating_points_match_fresh_covers():
    cases = ((gl3_cover, (H, 0, -H), (Fraction(1, 3), 0, Fraction(2, 3))),
             (sp4_cover, (H, 0), (H, H)),
             (block_swap_cover, (H, 0, H, 0),
              (Fraction(1, 6), Fraction(-5, 6), Fraction(1, 6), Fraction(-5, 6))))
    for build, a, b in cases:
        cover = build()
        for route in ROUTES:
            for x in (a, b, a):
                assert route(cover, x) == route(build(), x), (cover.rank, x)


def test_ints_fractions_and_points_give_the_same_answers():
    cover = gl3_cover()
    integral = (1, 0, -2)
    half = (H, 0, -H)
    forms = ((integral, tuple(map(Fraction, integral)), ApartmentPoint(integral)),
             (half, ApartmentPoint.parse("1/2,0,-1/2")))
    for same in forms:
        for route in ROUTES:
            expected = route(gl3_cover(), same[0])
            for x in same + same:
                assert route(cover, x) == expected, x


def test_bad_points_always_raise_and_leave_the_memo_usable(evaluations):
    cover = block_swap_cover()
    good = (Fraction(1, 6), Fraction(-5, 6), Fraction(1, 6), Fraction(-5, 6))
    expected = [route(block_swap_cover(), good) for route in ROUTES]
    evaluations.clear()
    for _ in range(2):
        for route, answer in zip(ROUTES, expected):
            assert route(cover, good) == answer
            with pytest.raises(ValueError, match="^point has 3 coordinates but the rank is 4$"):
                route(cover, (H, 0, H))
            with pytest.raises(MathConstraintError):
                route(cover, (H, 0, 0, 0))
            with pytest.raises(TypeError):
                route(cover, (1 / 6, -5 / 6, 1 / 6, -5 / 6))
            assert route(cover, good) == answer
    # no bad point replaced the good one, which was evaluated once
    assert evaluations == [(1, -5, 1, -5)]


def test_the_point_memo_lets_no_float_through():
    # each float equals the Fraction of the point before it, so a memo that
    # compared coordinates would answer for it
    cover = gl3_cover()
    for route in ROUTES:
        assert route(cover, (H, 0, -H)) == route(gl3_cover(), (H, 0, -H))
        with pytest.raises(TypeError):
            route(cover, (0.5, 0, -0.5))
        point = ApartmentPoint((H, 0, -H))
        assert route(cover, point) == route(gl3_cover(), point)
        with pytest.raises(TypeError):
            route(cover, (0.5, 0.0, -0.5))


def test_cli_residual_evaluates_the_roots_once_per_point(evaluations, tmp_path, capsys):
    path = tmp_path / "gl2.json"
    path.write_text(json.dumps({"rank": 2, "roots": [[1, -1], [-1, 1]],
                                "coroots": [[1, -1], [-1, 1]], "simple": [0],
                                "bq": [[0, 1], [1, 0]], "n": 4, "q": 5}))
    for point, numerators in (("0,0", (0, 0)), ("1/2,-1/2", (1, -1)), ("1/3,0", (1, 0))):
        evaluations.clear()
        assert main(["residual", str(path), "--point", point]) == 0
        assert evaluations == [numerators], point
    capsys.readouterr()


def test_residual_functions_share_one_evaluation_per_point(evaluations):
    cover = gl3_cover()
    # the memo holds one point, so the origin is evaluated again after the
    # other; an equal point given anew is recognised by its numerators
    for x, again in (((0, 0, 0), (0, 0, 0)),
                     ((Fraction(1, 3), 0, Fraction(2, 3)), ApartmentPoint.parse("1/3,0,2/3")),
                     ((0, 0, 0), (Fraction(0), 0, 0))):
        evaluations.clear()
        residual_extension(cover, x)
        residual_splits(cover, x)
        residual_derived_simply_connected(cover, x)
        is_vertex(cover.datum, x)
        is_vertex(cover.datum, again)
        residual_splits(cover, again)
        assert len(evaluations) == 1, x


# ---------------------------------------------------------------------------
# one coroot lattice per datum and point, one residual record per cover

@pytest.fixture
def hnf_rows(monkeypatch):
    """The generator rows of every Hermite normal form built."""
    built = []

    def counting_hnf(rows, ambient_rank=None):
        built.append(tuple(map(tuple, rows)))
        return hermite_normal_form(rows, ambient_rank)

    monkeypatch.setattr(parahoric, "hermite_normal_form", counting_hnf)
    monkeypatch.setattr(lattice, "hermite_normal_form", counting_hnf)
    return built


def test_residual_calls_build_one_lambda_lattice_per_point(hnf_rows):
    # two covers on one datum, with different values of Q on the coroots, so
    # the records of one point differ between them
    datum = build_glr(3)
    forms = (((2, 1, 1), (1, 2, 1), (1, 1, 2)), ((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    covers = [CoverSpec(datum, WeylInvariantForm(gram), 2, 5) for gram in forms]
    points = ((1, 0, -1), (H, 0, -H), (Fraction(1, 3), 0, Fraction(2, 3)), (1, 0, -1))
    for x in points:
        # the first cover at its first visit to x builds Lambda_x; the datum
        # keeps it, and every cover reads its own lattice off it
        for visit in (1, 2):
            for k, (cover, gram) in enumerate(zip(covers, forms)):
                fresh = CoverSpec(build_glr(3), WeylInvariantForm(gram), 2, 5)
                hnf_rows.clear()
                ext = residual_extension(cover, x)
                answers = (ext, residual_splits(cover, x),
                           residual_derived_simply_connected(cover, x), is_vertex(datum, x))
                positive = tuple(datum.coroots[i] for i in ext.phi_x if datum.heights[i] > 0)
                assert 2 * len(positive) == len(ext.iota), x
                # where every root is integral the simple coroots span Lambda_x
                generators = (tuple(datum.coroots[i] for i in datum.simple_indices)
                              if len(ext.phi_x) == len(datum.roots) else positive)
                assert hnf_rows.count(generators) == (visit == k + 1 == 1 and len(positive) > 0), x
                # the lattice extends the rows of the datum's Lambda_x
                assert (tuple(row[:-1] for row in ext.lambda_lattice.basis)
                        == _integral_roots(datum, x).coroot_span.basis), x
                rows = [row for row, i in zip(ext.iota, ext.phi_x) if datum.heights[i] > 0]
                assert ext.lambda_lattice == (hermite_normal_form(rows, 4) if rows
                                              else Sublattice.zero(4)), x
                assert answers == (residual_extension(fresh, x), residual_splits(fresh, x),
                                   residual_derived_simply_connected(fresh, x),
                                   is_vertex(fresh.datum, x)), x
