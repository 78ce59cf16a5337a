"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact arithmetic; there are no tolerances to tune.  The
shared GL_r sweep (criteria 3, 4, 5, 8) runs once as a module fixture.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, prod

import pytest

from whitdim.cover import CoverSpec, WeylInvariantForm, central_index, glr_cover, m_qr
from whitdim.lattice import (
    Sublattice,
    hermite_normal_form,
    index,
    smith_invariants,
)
from whitdim.parahoric import (
    is_vertex,
    residual_derived_simply_connected,
    residual_extension,
)
from whitdim.root_datum import build_slr, build_sp2r, weyl_group
from whitdim.whittaker import (
    LusztigParameter,
    glr_coxeter_parameter,
    is_general_position,
    squeeze_bounds,
    wh_dim_glr_closed,
    wh_dim_oracle,
    y_x_rho,
)

from _oracles import (
    brute_force_coset_count,
    elementary_row_hnf,
    glr_general_position,
    rational_solve,
    theta_solutions,
)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        status = "PASS" if ok else "FAIL"
        elapsed = time.perf_counter() - start
        print(f"[acceptance {number}] {name}: {status} ({elapsed:.2f}s)")


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# shared GL_r sweep: r in {1,2,3}, q in {3,5,7,13}, n | q-1, (p,q) in [-2,2]^2

SWEEP_R = (1, 2, 3)
SWEEP_Q = (3, 5, 7, 13)
SWEEP_PQ = [(pp, qq) for pp in range(-2, 3) for qq in range(-2, 3)]


@pytest.fixture(scope="module")
def glr_sweep():
    start = time.perf_counter()
    configs = []
    for r in SWEEP_R:
        for q in SWEEP_Q:
            modulus = q ** r - 1
            gp = [a for a in range(modulus)
                  if glr_general_position(r, q, a)]
            for n in divisors(q - 1):
                for pp, qq in SWEEP_PQ:
                    cover = glr_cover(r, pp, qq, n, q)
                    lower, upper = squeeze_bounds(cover)
                    dims = []
                    for a in gp:
                        closed = wh_dim_glr_closed(r, q, n, pp, qq, a)
                        oracle = wh_dim_oracle(r, q, n, pp, qq, a)
                        param = glr_coxeter_parameter(r, q, a, n)
                        _, orbit = y_x_rho(cover, param)
                        dims.append((a, closed, oracle, orbit))
                    configs.append({
                        "r": r, "q": q, "n": n, "pp": pp, "qq": qq,
                        "m": m_qr(r, pp, qq), "lower": lower, "upper": upper,
                        "dims": dims,
                    })
    checks = sum(len(cfg["dims"]) for cfg in configs)
    print(f"[acceptance sweep] {checks} parameters x 3 routes "
          f"in {time.perf_counter() - start:.1f}s")
    return configs


# ---------------------------------------------------------------------------
# criterion 1

def test_criterion_1_torus_consistency():
    with criterion(1, "torus consistency: closed form = central index = n/gcd(n, 2p)"):
        for q in (5, 13):
            for pp in range(-5, 6):
                cover_cache = {}
                for n in divisors(q - 1):
                    cover = glr_cover(1, pp, 0, n, q)
                    cover_cache[n] = central_index(cover)
                    expected = n // gcd(n, 2 * pp)
                    for a in range(q - 1):
                        dim = wh_dim_glr_closed(1, q, n, pp, 0, a)
                        assert dim == cover_cache[n] == expected, (q, pp, n, a)


# ---------------------------------------------------------------------------
# criterion 2

def sl_cover(r, n, q):
    d = r - 1
    cartan = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                         for j in range(d)) for i in range(d))
    return CoverSpec(build_slr(r), WeylInvariantForm(cartan), n, q)


def test_criterion_2_semisimple_uniqueness():
    with criterion(2, "semisimple uniqueness: SL_r (r <= 4) always has index 1"):
        plans = [(2, 5), (3, 5), (4, 3)]
        checked = 0
        for r, q in plans:
            for n in divisors(q - 1):
                cover = sl_cover(r, n, q)
                zero = Sublattice.zero(r - 1)
                for w in weyl_group(cover.datum).elements:
                    for theta in theta_solutions(cover, w):
                        param = LusztigParameter.from_theta(w, theta, Fraction(1, n))
                        if not is_general_position(param, cover):
                            continue
                        lattice, idx = y_x_rho(cover, param)
                        assert idx == 1 and lattice == zero, (r, q, n, w, theta)
                        checked += 1
        assert checked > 500  # the enumeration is not vacuous


# ---------------------------------------------------------------------------
# criteria 3, 4, 5, 8 over the shared sweep

def test_criterion_3_divisibility_corollary(glr_sweep):
    with criterion(3, "n | m forces dimension exactly 1"):
        hit = 0
        for cfg in glr_sweep:
            if cfg["m"] % cfg["n"]:
                continue
            for a, closed, oracle, orbit in cfg["dims"]:
                assert closed == 1, (cfg["r"], cfg["q"], cfg["n"],
                                     cfg["pp"], cfg["qq"], a)
                hit += 1
        assert hit > 0


def test_criterion_4_three_way_oracle_agreement(glr_sweep):
    with criterion(4, "closed form = brute force = orbit search on the full sweep"):
        total = 0
        for cfg in glr_sweep:
            for a, closed, oracle, orbit in cfg["dims"]:
                assert closed == oracle == orbit, (
                    cfg["r"], cfg["q"], cfg["n"], cfg["pp"], cfg["qq"], a,
                    closed, oracle, orbit)
                total += 1
        assert total > 100000  # exhaustive sweep really ran


SAMPLED_R = range(4, 11)
SAMPLED_Q = (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 25, 27, 29, 31, 37)


def test_criterion_4_sampled_sweep_to_rank_10():
    with criterion(4, "closed form = brute force = orbit search, sampled for r = 4..10"):
        rng = random.Random(1705)
        checked = set()
        for r in SAMPLED_R:
            for _ in range(12):
                q = rng.choice(SAMPLED_Q)
                n = rng.choice(divisors(q - 1))
                pp, qq = rng.randint(-3, 3), rng.randint(-3, 3)
                cover = glr_cover(r, pp, qq, n, q)
                modulus = q ** r - 1
                for _ in range(10):
                    a = rng.randrange(1, modulus)
                    while any(a * (q ** s - 1) % modulus == 0 for s in range(1, r)):
                        a = rng.randrange(1, modulus)
                    closed = wh_dim_glr_closed(r, q, n, pp, qq, a)
                    oracle = wh_dim_oracle(r, q, n, pp, qq, a)
                    _, orbit = y_x_rho(cover, glr_coxeter_parameter(r, q, a, n))
                    assert closed == oracle == orbit, (r, q, n, pp, qq, a)
                    checked.add((r, closed))
        # every rank ran, and some dimensions are not 1
        assert {r for r, _ in checked} == set(SAMPLED_R)
        assert len({dim for _, dim in checked}) > 4


def test_criterion_5_squeeze_bounds(glr_sweep):
    with criterion(5, "lower | dimension | upper on the full sweep"):
        for cfg in glr_sweep:
            lower, upper = cfg["lower"], cfg["upper"]
            assert upper % lower == 0
            for a, closed, _, _ in cfg["dims"]:
                assert closed % lower == 0 and upper % closed == 0, (
                    cfg["r"], cfg["q"], cfg["n"], cfg["pp"], cfg["qq"], a)


def test_criterion_8_class_function(glr_sweep):
    with criterion(8, "dimension constant on q-power orbits"):
        for cfg in glr_sweep:
            modulus = cfg["q"] ** cfg["r"] - 1
            by_a = {a: closed for a, closed, _, _ in cfg["dims"]}
            for a, closed in by_a.items():
                assert by_a[a * cfg["q"] % modulus] == closed


# ---------------------------------------------------------------------------
# criterion 6

def fundamental_alcove_vertices(kind, r):
    """Vertex coordinates, derived independently of the package.

    GL_r: the integral points e_1 + ... + e_i.  SL_r: 0 and the fundamental
    coweights (all marks of the highest root are 1), solved from the simple
    roots by Gaussian elimination.  Sp_4: marks (1, 2, 1), so 0, w_1/2, w_2.
    """
    if kind == "gl":
        return [tuple(1 if k < i else 0 for k in range(r)) for i in range(r)]
    if kind == "sl":
        d = r - 1
        cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
                   for j in range(d)] for i in range(d)]
        vertices = [tuple(Fraction(0) for _ in range(d))]
        for i in range(d):
            unit = [int(k == i) for k in range(d)]
            vertices.append(rational_solve(cartan, unit))
        return vertices
    if kind == "sp4":
        return [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2))]
    raise ValueError(kind)


def test_criterion_6_residual_extension_theorem():
    with criterion(6, "residual extensions: formula, origin, alcove saturation"):
        covers = []
        for r in (2, 3, 4):
            for pp, qq in ((0, 1), (1, 1)):   # Q(coroot) = -1 and +1
                covers.append(("gl", r, glr_cover(r, pp, qq, 4, 5)))
        for r in (2, 3, 4):
            d = r - 1
            cartan = tuple(tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0)
                                 for j in range(d)) for i in range(d))
            for sign in (1, -1):
                gram = tuple(tuple(sign * x for x in row) for row in cartan)
                covers.append(("sl", r, CoverSpec(build_slr(r),
                                                  WeylInvariantForm(gram), 4, 5)))
        for sign in (1, -1):
            gram = ((2 * sign, 0), (0, 2 * sign))
            covers.append(("sp4", 2, CoverSpec(build_sp2r(2),
                                               WeylInvariantForm(gram), 4, 5)))

        for kind, r, cover in covers:
            rd = cover.datum
            # at the origin every extended coroot has last coordinate 0
            res = residual_extension(cover, (0,) * rd.rank)
            assert res.phi_x == tuple(range(len(rd.roots)))
            assert all(vec[-1] == 0 for vec in res.iota)
            # the formula at sampled rational points, recomputed independently
            sample = [tuple(Fraction(k, 2) for k in range(rd.rank)),
                      tuple(Fraction(1) for _ in range(rd.rank))]
            for x in sample:
                res = residual_extension(cover, x)
                for i, vec in zip(res.phi_x, res.iota):
                    root, coroot = rd.roots[i], rd.coroots[i]
                    value = sum(Fraction(a) * c for a, c in zip(root, x))
                    qc = sum(coroot[s] * cover.form.gram[s][t] * coroot[t]
                             for s in range(rd.rank) for t in range(rd.rank))
                    assert vec == coroot + (int(value) * (qc // 2),)
            # saturation of the extended coroot span at every alcove vertex
            for vertex in fundamental_alcove_vertices(kind, r):
                assert is_vertex(rd, vertex), (kind, r, vertex)
                assert residual_derived_simply_connected(cover, vertex), (
                    kind, r, vertex)


# ---------------------------------------------------------------------------
# criterion 7

def test_criterion_7_lattice_kernel_property_suite():
    with criterion(7, "lattice kernel: multiplicativity, canonicality, SNF vs brute force"):
        rng = random.Random(987654)

        # index multiplicativity on random chains a <= b <= c
        for _ in range(80):
            d = rng.randint(1, 3)
            def upper_triangular():
                return [[rng.randint(1, 4) if i == j
                         else (rng.randint(-3, 3) if j > i else 0)
                         for j in range(d)] for i in range(d)]
            c = Sublattice.full(d)
            b_rows = upper_triangular()
            b = hermite_normal_form(b_rows, d)
            rel = upper_triangular()
            a_rows = [[sum(rel[i][k] * b_rows[k][j] for k in range(d))
                       for j in range(d)] for i in range(d)]
            a = hermite_normal_form(a_rows, d)
            assert index(c, a) == index(c, b) * index(b, a)

        # HNF canonicality under shuffles and unimodular recombination,
        # cross-checked against the elementary-operation oracle
        for _ in range(60):
            d = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(d)]
                    for _ in range(rng.randint(1, d + 2))]
            base = hermite_normal_form(rows, d)
            assert list(base.basis) == elementary_row_hnf(rows)
            mixed = [list(r) for r in rows]
            rng.shuffle(mixed)
            for _ in range(8):
                i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
                if i == j:
                    mixed[i] = [-v for v in mixed[i]]
                else:
                    f = rng.randint(-2, 2)
                    mixed[i] = [a + f * b for a, b in zip(mixed[i], mixed[j])]
            assert hermite_normal_form(mixed, d) == base

        # SNF torsion order vs brute-force coset counting, indices <= 200
        cases = 0
        while cases < 25:
            d = rng.randint(1, 3)
            diag = [rng.randint(1, 7) for _ in range(d)]
            order = 1
            for v in diag:
                order *= v
            if order > 200:
                continue
            rel = [[diag[i] if i == j else (rng.randint(-3, 3) if j > i else 0)
                    for j in range(d)] for i in range(d)]
            sub = hermite_normal_form(rel, d)
            structure = smith_invariants(Sublattice.full(d), sub)
            counted = brute_force_coset_count(tuple(diag), rel)
            assert prod(structure.invariant_factors) == counted == order
            assert counted == index(Sublattice.full(d), sub)
            cases += 1
