"""The checks read off roots and coroots against the code they replace.

Three tests compare, on every datum the suite builds and on a few more, the
Weyl-invariance check of a cover, the detection of block-permutation data and
the recognition of GL_r-shaped data with references in ``_oracles`` that
build reflection matrices or a GL_r datum.  Four more show that the
comparisons catch a plausible slip in each check.  Four more compare what
is read off the root system with the references in ``_oracles`` for the
code it replaced: validation with the per-reflection image check and the
height walk, |W| with the raising walk, ``is_vertex`` with the rank of every
integral root, and the central index and squeeze bounds with the indices of
explicit lattice meets.  Two more compare, at seeded points, the lattice of
extended coroots and ``is_vertex`` with the way they were computed before
the datum kept Lambda_x, and Q of the coroots with the form.  Data that
validation refuses, because a root is not Weyl-conjugate to a simple one,
are checked to be refused and then fed to the checks as namespaces with the
attributes they read.
"""

import random
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

from whitdim.cover import (
    CoverSpec,
    WeylInvariantForm,
    central_index,
    form_from_glr_invariants,
    glr_invariants_of,
)
from whitdim.errors import MathConstraintError
from whitdim.lattice import congruence_index, dot, mat_mul
from whitdim.parahoric import is_vertex, residual_extension
from whitdim.root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    frobenius_fixed_lattice,
    identity_frobenius,
    permutation_blocks,
    weyl_order,
)
from whitdim.whittaker import squeeze_bounds

from _oracles import (
    close_root_system_dense,
    form_invariance_failure,
    glr_invariants_reference,
    integral_roots_reference,
    invariant_indices_by_meets,
    is_root_datum_reference,
    is_vertex_reference,
    lambda_lattice_reference,
    permutation_blocks_reference,
    raised_pairs,
    rational_rank,
    reflection_image_failure,
    weyl_order_by_raising,
)

def _refused(rank, roots, coroots, simple):
    """Data that validation refuses because a root is not Weyl-conjugate to
    a simple one, as a namespace with the attributes of a datum."""
    with pytest.raises(MathConstraintError, match="is not Weyl-conjugate to a simple root$"):
        BasedRootDatum(rank, roots, coroots, simple)
    return SimpleNamespace(rank=rank, roots=tuple(roots), coroots=tuple(coroots),
                           simple_indices=tuple(simple), fr=identity_frobenius(rank))


#: not a root datum: the simple reflection fixes the roots +-(1, 1, 0),
#: whose coroots are +-(1, 1, 1)
NOT_A_ROOT_DATUM = _refused(3, ((1, -1, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0)),
                            ((1, -1, 0), (-1, 1, 0), (1, 1, 1), (-1, -1, -1)), (0,))
NOT_A_ROOT_DATUM_GRAM = ((2, 0, 1), (0, 2, 1), (1, 1, 0))


def _cycle(d, shift):
    return tuple(tuple(int(j == (i + shift) % d) for j in range(d)) for i in range(d))


def _shuffled_glr(r, seed):
    """GL_r with its roots in another order, the simple indices following."""
    base = build_glr(r)
    order = list(range(len(base.roots)))
    random.Random(seed).shuffle(order)
    return BasedRootDatum(r, [base.roots[i] for i in order], [base.coroots[i] for i in order],
                          tuple(order.index(i) for i in base.simple_indices))


def _glr_with_one_coroot_changed():
    """GL_r (r = 3..5) with one coroot moved by a unit vector orthogonal to its
    root, and no simple roots, so validation refuses them; with the GL_r
    simple system none validates either."""
    for r in range(3, 6):
        base = build_glr(r)
        for j, k, sign in product(range(len(base.roots)), range(r), (1, -1)):
            u = tuple(sign * (m == k) for m in range(r))
            if not dot(base.roots[j], u):
                coroots = list(base.coroots)
                coroots[j] = tuple(x + y for x, y in zip(coroots[j], u))
                yield _refused(r, base.roots, coroots, ())


def suite_data():
    block_roots = ((1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1))
    swap_blocks = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
    so4 = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    return ([build_glr(r) for r in range(1, 8)] + [build_slr(r) for r in range(2, 8)]
            + [build_sp2r(r) for r in range(2, 6)]
            + [build_torus(d, _cycle(d, shift)) for d in (1, 2, 3, 4, 6) for shift in (0, 1)]
            + [build_torus(4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))]
            + [BasedRootDatum(4, block_roots, block_roots, (0, 2),
                              FrobeniusAction(swap_blocks))]
            # the adjoint SL_2, and SO_4 with roots +-e_0 +- e_1
            + [BasedRootDatum(1, ((1,), (-1,)), ((2,), (-2,)), (0,)),
               BasedRootDatum(2, so4, so4, (0, 2))]
            + [NOT_A_ROOT_DATUM, _shuffled_glr(4, 0), _shuffled_glr(5, 1)]
            # a root +-(e_0 - e_1) whose coroot leaves the plane, and a root
            # +-2(e_0 - e_1) whose coroot lies in it
            + [BasedRootDatum(3, ((1, -1, 0), (-1, 1, 0)), ((1, -1, 1), (-1, 1, -1)), (0,)),
               BasedRootDatum(2, ((2, -2), (-2, 2)), ((2, 1), (-2, -1)), (0,))]
            + list(_glr_with_one_coroot_changed()))


def _times(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _group(generators, d, limit=800):
    """The matrices generated by ``generators``, or None past ``limit``."""
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    found, seen = [identity], {identity}
    for m in found:
        for g in generators:
            new = _times(g, m)
            if new not in seen:
                if len(found) == limit:
                    return None
                seen.add(new)
                found.append(new)
    return found


def _grams(rd, seed):
    """Seeded symmetric grams with even diagonal and entries in [-3, 3], their
    sums over the group generated by W and Frobenius when it is small, which
    are invariant, and the GL_r forms."""
    d = rd.rank
    rng = random.Random(seed)
    grams = []
    for _ in range(6):
        g = [[0] * d for _ in range(d)]
        for i in range(d):
            g[i][i] = rng.choice((-2, 0, 2))
            for j in range(i + 1, d):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        grams.append(g)
    reflections = [tuple(tuple(int(j == k) - rd.coroots[i][j] * rd.roots[i][k]
                               for k in range(d)) for j in range(d))
                   for i in rd.simple_indices]
    group = _group(reflections + [rd.fr.matrix], d)
    for g in (grams[:2] if group else []):
        conjugates = [_times(tuple(zip(*m)), _times(g, m)) for m in group]
        grams.append([[sum(c[i][j] for c in conjugates) for j in range(d)] for i in range(d)])
    grams += [form_from_glr_invariants(d, p, q).gram for p, q in ((0, 1), (1, -2), (-1, 0))]
    return [tuple(map(tuple, g)) for g in grams]


CASES = [(rd, gram) for seed, rd in enumerate(suite_data()) for gram in _grams(rd, seed)]
CASES.append((NOT_A_ROOT_DATUM, NOT_A_ROOT_DATUM_GRAM))


def _cover_failure(rd, gram):
    """The message CoverSpec raises for the form over the datum, or None."""
    try:
        CoverSpec(rd, WeylInvariantForm(gram), 2, 5)
    except MathConstraintError as exc:
        return str(exc)
    return None


def _invariance_mismatches():
    for rd, gram in CASES:
        if _cover_failure(rd, gram) != form_invariance_failure(rd, gram):
            yield rd, gram


def test_invariance_check_matches_conjugation_by_reflections():
    outcomes = {form_invariance_failure(rd, gram) for rd, gram in CASES}
    assert outcomes == {None, "form is not invariant under the Weyl group",
                        "form is not invariant under Frobenius"}
    assert list(_invariance_mismatches()) == []


def test_invariance_check_with_q_of_the_wrong_coroot_is_caught(monkeypatch):
    def rotated(cover):
        values = [cover.form.bilinear(c, c) // 2 for c in cover.datum.coroots]
        return tuple(values[1:] + values[:1])

    monkeypatch.setattr(CoverSpec, "coroot_q", property(rotated))
    assert next(_invariance_mismatches(), None) is not None


def _blocks_accepting(accepts):
    """Block detection that joins the two coordinates in the support of each
    simple root when accepts(root, coroot), and gives None otherwise."""
    def blocks(rd):
        block_of = list(range(rd.rank))
        for i in rd.simple_indices:
            root, coroot = rd.roots[i], rd.coroots[i]
            if not accepts(root, coroot):
                return None
            a, b = (j for j, x in enumerate(root) if x)
            old, new = block_of[a], block_of[b]
            block_of = [new if x == old else x for x in block_of]
        grouped = {}
        for j, x in enumerate(block_of):
            grouped.setdefault(x, []).append(j)
        return tuple(sorted(tuple(block) for block in grouped.values()))
    return blocks


def _swap_shape(root):
    return sorted(root) == [-1] + [0] * (len(root) - 2) + [1]


def _blocks_mismatches(detect):
    for rd in suite_data():
        if detect(rd) != permutation_blocks_reference(rd):
            yield rd


def test_block_detection_matches_swap_matrices():
    data = suite_data()
    assert {permutation_blocks_reference(rd) is None for rd in data} == {True, False}
    assert list(_blocks_mismatches(permutation_blocks)) == []
    # the harness itself agrees when given the library's test
    exact = _blocks_accepting(lambda root, coroot: root == coroot and _swap_shape(root))
    assert list(_blocks_mismatches(exact)) == []


def test_block_detection_without_the_coroot_test_is_caught():
    loose = _blocks_accepting(lambda root, coroot: _swap_shape(root))
    assert next(_blocks_mismatches(loose), None) is not None


def test_block_detection_accepting_twice_a_swap_root_is_caught():
    # a root +-k(e_a - e_b) with its coroot in the same plane
    def accepts(root, coroot):
        support = [j for j, x in enumerate(root) if x]
        return (len(support) == 2 and sum(root) == 0
                and all(x == 0 for j, x in enumerate(coroot) if j not in support))

    assert next(_blocks_mismatches(_blocks_accepting(accepts)), None) is not None


def _glr_mismatches(recognise):
    for rd, gram in CASES:
        form = WeylInvariantForm(gram)
        if recognise(rd, form) != glr_invariants_reference(rd, form):
            yield rd, gram


def test_glr_recognition_matches_a_built_glr_datum():
    assert {glr_invariants_reference(rd, WeylInvariantForm(g)) is None
            for rd, g in CASES} == {True, False}
    assert list(_glr_mismatches(glr_invariants_of)) == []


def test_glr_recognition_without_the_coroot_comparison_is_caught():
    def roots_only(datum, form):
        r = datum.rank
        if len(datum.roots) != r * (r - 1) or not all(map(_swap_shape, datum.roots)):
            return None
        g = form.gram
        diag = {g[i][i] for i in range(r)}
        off = {g[i][j] for i in range(r) for j in range(r) if i != j}
        if len(diag) != 1 or len(off) > 1:
            return None
        return diag.pop() // 2, off.pop() if off else 0

    assert next(_glr_mismatches(roots_only), None) is not None


@pytest.mark.parametrize("r", [17, 24])
def test_glr_recognition_beyond_the_builder_rank_guard(r):
    pairs = [(i, j) for i in range(r) for j in range(r) if i != j]
    roots = [tuple((k == i) - (k == j) for k in range(r)) for i, j in pairs]
    simple = [k for k, (i, j) in enumerate(pairs) if j == i + 1]
    datum = BasedRootDatum(r, roots, roots, simple)
    assert glr_invariants_of(datum, form_from_glr_invariants(r, 1, -2)) == (1, -2)
    # without a simple system the roots are refused, and still read as GL_r
    unvalidated = _refused(r, roots, roots, ())
    assert glr_invariants_of(unvalidated, form_from_glr_invariants(r, 1, -2)) == (1, -2)
    assert glr_invariants_of(build_torus(r), form_from_glr_invariants(r, 1, -2)) is None


# ---------------------------------------------------------------------------
# invariants read off the root system, against the code they replaced

def _validated_data():
    data = [rd for rd in suite_data() if isinstance(rd, BasedRootDatum)]
    # G2 and F4 from their simple (root, coroot) pairs, on the coroot basis
    for cartan in (((2, -3), (-1, 2)),
                   ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))):
        k = len(cartan)
        pairs = [(cartan[i], tuple(int(j == i) for j in range(k))) for i in range(k)]
        data.append(BasedRootDatum(k, *close_root_system_dense(pairs)))
    return data


def _outcome(rank, roots, coroots, simple):
    """None when the data validate, else the message that refuses them."""
    try:
        BasedRootDatum(rank, roots, coroots, simple)
    except MathConstraintError as exc:
        return str(exc)
    return None


def _perturbed_data():
    """Every validated datum, as it is and with one simple root left out, and
    those of rank at most 4 with one root or one coroot moved by a unit
    vector orthogonal to its partner."""
    for rd in _validated_data():
        d, simple = rd.rank, rd.simple_indices
        yield d, rd.roots, rd.coroots, simple
        for k in range(len(simple)):
            yield d, rd.roots, rd.coroots, simple[:k] + simple[k + 1:]
        if d > 4:
            continue
        shifts = [tuple(sign * (m == k) for m in range(d)) for k in range(d) for sign in (1, -1)]
        for j, u, which in product(range(len(rd.roots)), shifts, (0, 1)):
            vectors = [list(rd.roots), list(rd.coroots)]
            if dot(vectors[1 - which][j], u) == 0:
                vectors[which][j] = tuple(x + y for x, y in zip(vectors[which][j], u))
                if len(set(vectors[0])) == len(vectors[0]):
                    yield d, *vectors, simple


def test_validation_matches_the_image_check_and_the_raising_walk():
    outcomes = set()
    for d, roots, coroots, simple in _perturbed_data():
        outcome = _outcome(d, roots, coroots, simple)
        failure = reflection_image_failure(roots, coroots, simple)
        if failure is not None:
            # a simple reflection that does not permute is named first
            assert outcome == failure, (roots, coroots, simple)
            outcomes.add("image")
        elif outcome is None or "Cartan" not in outcome and "base" not in outcome:
            assert (outcome is None) == is_root_datum_reference(roots, coroots, simple), (
                roots, coroots, simple, outcome)
            outcomes.add(outcome and "closure")
    assert outcomes == {"image", "closure", None}


def test_weyl_order_and_heights_match_the_raising_walk():
    for rd in _validated_data():
        raised = raised_pairs(rd.roots, rd.coroots, rd.simple_indices)
        assert weyl_order(rd) == weyl_order_by_raising(rd), rd.roots
        assert {root: height for root, height in zip(rd.roots, rd.heights) if height > 0} == {
            root: height for root, (_, height) in raised.items()}
        assert sorted(rd.heights) == sorted(-h for h in rd.heights)


def _points(rd, seed):
    """The origin and seeded rational points fixed by Frobenius: each seeded
    point when Frobenius fixes it, and else the mean of its Frobenius orbit."""
    rng = random.Random(seed)
    f, order = rd.fr.matrix, rd.fr.order
    yield (0,) * rd.rank
    for _ in range(12):
        den = rng.choice((1, 2, 3, 4, 6))
        x = tuple(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(rd.rank))
        if integral_roots_reference(rd, x) is None:
            orbit = [x]
            for _ in range(order - 1):
                orbit.append(tuple(sum(a * b for a, b in zip(row, orbit[-1])) for row in f))
            x = tuple(sum(column) / order for column in zip(*orbit))
        yield x


def test_is_vertex_matches_the_rank_of_every_integral_root():
    verdicts = set()
    for seed, rd in enumerate(_validated_data()):
        full = rational_rank(rd.roots)
        for x in _points(rd, seed):
            integral = [rd.roots[i] for i, _ in integral_roots_reference(rd, x)]
            verdict = rational_rank(integral) == full
            assert is_vertex(rd, x) == verdict, (rd.roots, x)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _divisors(m):
    return [k for k in range(1, m + 1) if m % k == 0]


def test_central_index_and_squeeze_bounds_match_the_indices_of_meets():
    # every validated suite datum with each seeded gram invariant under it,
    # and every n | q - 1 for q = 25
    shapes, paths = set(), set()
    for rd, gram in CASES:
        if not isinstance(rd, BasedRootDatum) or _cover_failure(rd, gram) is not None:
            continue
        for n in _divisors(24):
            cover = CoverSpec(rd, WeylInvariantForm(gram), n, 25)
            central, lower, upper = invariant_indices_by_meets(cover)
            assert (central_index(cover), *squeeze_bounds(cover)) == (central, lower, upper), (
                rd.roots, gram, n)
            # central_index reads the pivots of Y_{Q,n} when Frobenius is
            # the identity, and takes a congruence index over Y^Fr otherwise
            basis = frobenius_fixed_lattice(rd).basis
            assert central == congruence_index(mat_mul(basis, gram), n)
            shapes.add((central > 1, lower > 1, lower < upper))
            paths.add((rd.fr.order > 1, central > 1))
    assert {(True, True, True), (True, False, True), (False, False, False)} <= shapes
    assert paths == {(True, True), (True, False), (False, True), (False, False)}


def _covers():
    """Every validated suite datum with each seeded gram invariant under it,
    as a cover of degree 2 over F_5; covers of one datum share it."""
    return [CoverSpec(rd, WeylInvariantForm(gram), 2, 5) for rd, gram in CASES
            if isinstance(rd, BasedRootDatum) and _cover_failure(rd, gram) is None]


def test_lambda_and_is_vertex_match_the_references_at_seeded_points():
    # the lattice of each cover is read off the datum's Lambda_x; the
    # references rebuild it from the rows of iota and rank the integral roots
    seen = set()
    for seed, cover in enumerate(_covers()):
        rd = cover.datum
        for x in _points(rd, seed):
            lam = residual_extension(cover, x).lambda_lattice
            assert lam.basis == lambda_lattice_reference(cover, x), (rd.roots, cover.form, x)
            vertex = is_vertex(rd, x)
            assert vertex == is_vertex_reference(rd, x), (rd.roots, x)
            seen.add((rd.fr.order > 1, vertex, any(row[-1] for row in lam.basis)))
    assert {(True, True, False), (False, True, True), (False, False, True),
            (False, False, False)} <= seen


def test_coroot_q_is_q_of_every_coroot():
    for cover in _covers():
        assert cover.coroot_q == tuple(cover.form.bilinear(c, c) // 2 for c in cover.datum.coroots)

