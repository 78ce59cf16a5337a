"""The checks read off roots and coroots against the matrix code they replace.

Three tests compare, on every datum the suite builds and on a few more, the
Weyl-invariance check of a cover, the detection of block-permutation data and
the recognition of GL_r-shaped data with references in ``_oracles`` that
build reflection matrices or a GL_r datum.  Four more show that the
comparisons catch a plausible slip in each check.
"""

import random
from itertools import product

import pytest

from whitdim.cover import CoverSpec, WeylInvariantForm, form_from_glr_invariants, glr_invariants_of
from whitdim.errors import MathConstraintError
from whitdim.lattice import dot
from whitdim.root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    permutation_blocks,
)

from _oracles import (
    form_invariance_failure,
    glr_invariants_reference,
    permutation_blocks_reference,
)

#: accepted by validation though it is not a root datum: the simple
#: reflection fixes the roots +-(1, 1, 0), whose coroots are +-(1, 1, 1)
NOT_A_ROOT_DATUM = BasedRootDatum(3, ((1, -1, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0)),
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
    root, and no simple roots: with the GL_r simple system none validates."""
    for r in range(3, 6):
        base = build_glr(r)
        for j, k, sign in product(range(len(base.roots)), range(r), (1, -1)):
            u = tuple(sign * (m == k) for m in range(r))
            if not dot(base.roots[j], u):
                coroots = list(base.coroots)
                coroots[j] = tuple(x + y for x, y in zip(coroots[j], u))
                yield BasedRootDatum(r, base.roots, coroots, ())


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
        values = [cover.form.q_value(c) for c in cover.datum.coroots]
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
        blocks = detect(rd)
        blocks = getattr(blocks, "blocks", blocks)
        if blocks != permutation_blocks_reference(rd):
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
    roots = [tuple((k == i) - (k == j) for k in range(r))
             for i in range(r) for j in range(r) if i != j]
    datum = BasedRootDatum(r, roots, roots, ())
    assert glr_invariants_of(datum, form_from_glr_invariants(r, 1, -2)) == (1, -2)
    assert glr_invariants_of(build_torus(r), form_from_glr_invariants(r, 1, -2)) is None
