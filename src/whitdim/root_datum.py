"""Based root data with Frobenius actions and their Weyl groups.

Conventions: the cocharacter lattice Y and the character lattice X are both
identified with Z^d, paired by the dot product.  Roots are stored in
X-coordinates and coroots in Y-coordinates, index-paired.  Every automorphism
(simple reflection, Frobenius, Weyl element) is stored as its action on Y; the
action on X is the inverse-transpose and is derived on demand, never stored.

Validation checks the pairings, the Cartan entries, that the simple roots
are linearly independent and that Frobenius is a based automorphism, then
closes the simple (root, coroot) pairs under the simple reflections: every
image must be a given pair and every given root must be reached, so each
root is W-conjugate to a simple one with its coroot.  The closure records
the height of every root (1 on the simple roots, changed by
-<beta, alpha_i^vee> under s_i), and the datum keeps them.  The SL_r and
Sp_2r builders give only their simple pairs, and the same walk grows the
rest, so a build walks the roots once.
A datum computes on first use and then holds its Weyl group and Y^W, Y^Fr
and Y^{W x Fr}, all freed with it; with the identity Frobenius the last two
are Z^d and Y^W, with no kernel computed.  No reflection matrix is built:
W (with |W| from the heights and the blocks of block-permutation data), the
semisimple rank (the number of simple roots) and Y^W (orthogonal to the
simple roots) are read off the roots and coroots.  Only the elements of W
are enumerated, and they are refused above :data:`MAX_WEYL_ORDER`.

The builders :func:`build_glr`, :func:`build_slr` and :func:`build_sp2r`
validate the datum of a rank once per process.  :data:`_VALIDATED`, keyed
by the builder's data function and the rank, keeps the fields validation
gave: the rank, roots, coroots, simple indices, heights and the identity
Frobenius, and no Weyl element, lattice or point record.  Every call, the
first included, returns a fresh datum filled from them, so what a datum
derives is its own and is freed with it.  Nothing is validated at import.
:func:`build_torus` and the constructor validate on every call.
"""

from __future__ import annotations

import operator
from functools import cached_property

from ._frozen import Frozen
from .errors import MathConstraintError, ResourceLimitError
from .lattice import (
    Sublattice,
    _as_matrix,
    dot,
    fixed_sublattice,
    hermite_normal_form,
    identity_matrix,
    intersect,
    is_saturated,
    mat_mul,
    mat_vec,
    orthogonal_lattice,
    rank as row_rank,
    transpose,
)

#: Largest multiplicative order accepted for a Frobenius matrix.
MAX_FROBENIUS_ORDER = 24

#: Largest Weyl group enumerated element by element: |W(A_7)| = 8!.
MAX_WEYL_ORDER = 40_320

#: Largest r accepted by :func:`build_glr`; validating the datum costs about r^3.
MAX_GLR_RANK = 16


class FrobeniusAction(Frozen):
    """A finite-order integer matrix acting on the cocharacter lattice Y.

    Building it decides ``order`` (at most MAX_FROBENIUS_ORDER); the matrix
    and its order are all it keeps.
    """

    _fields = ("matrix",)

    def __init__(self, matrix):
        mat = _as_matrix(matrix)
        d = len(mat)
        if any(len(row) != d for row in mat):
            raise ValueError("Frobenius matrix must be square")
        identity = identity_matrix(d)
        # the nonzero entries of each row, so that a signed permutation
        # matrix costs O(d^2) per power rather than d^3
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in mat]
        acc = mat  # mat^order
        for order in range(1, MAX_FROBENIUS_ORDER + 1):
            if acc == identity:
                break
            acc = tuple(_row_times(row, sparse, d) for row in acc)
        else:
            raise MathConstraintError(
                f"Frobenius matrix must have finite order <= {MAX_FROBENIUS_ORDER}")
        self.__dict__.update(matrix=mat, order=order)

    @property
    def rank(self):
        return len(self.matrix)


def _row_times(row, sparse, d):
    """row * M for M given by the nonzero entries of its rows; zero entries
    of row are skipped."""
    out = [0] * d
    for x, entries in zip(row, sparse):
        if x:
            for j, y in entries:
                out[j] += x * y
    return tuple(out)


def _swaps_coordinates(root, coroot):
    """Is I - coroot root^T the swap of two coordinates, that is, is
    root = coroot = +-(e_a - e_b)?"""
    return root == coroot and sorted(root) == [-1] + [0] * (len(root) - 2) + [1]


def _maps_into(vectors, pairings, u, targets):
    """Does v -> v - k u, with k the pairing of v, send every vector into
    targets?  Only the nonzero entries of u are subtracted."""
    support = [(j, y) for j, y in enumerate(u) if y]
    for v, k in zip(vectors, pairings):
        if k:
            image = list(v)
            for j, y in support:
                image[j] -= k * y
            if tuple(image) not in targets:
                return False
    return True


def _refusal(roots, coroots, simple, message):
    """The error that refuses a datum for ``message``, unless some simple
    reflection does not map the roots or the coroots into their sets: the
    first such reflection is named instead.  A reflection is injective, so
    it permutes a finite set once it maps the set into itself."""
    root_set, coroot_set = frozenset(roots), frozenset(coroots)
    for i in simple:
        a, av = roots[i], coroots[i]
        if not _maps_into(coroots, mat_vec(coroots, a), av, coroot_set):
            return MathConstraintError(f"simple reflection {i} does not permute the coroots")
        if not _maps_into(roots, mat_vec(roots, av), a, root_set):
            return MathConstraintError(f"simple reflection {i} does not permute the roots")
    return MathConstraintError(message)


def _pairings(columns, u):
    """The pairing of u with every vector whose coordinates are ``columns``,
    over the nonzero entries of u."""
    out = [0] * len(columns[0]) if columns else []
    for j, y in enumerate(u):
        if y:
            out = [p + y * x for p, x in zip(out, columns[j])]
    return out


def _root_heights(roots, coroots, simple, grow=False):
    """The roots, the coroots and the height of every root; data whose
    closure fails are refused (see :func:`_refusal`).

    The simple (root, coroot) pairs are closed under
    s_i (beta, beta^vee) = (beta - <beta, alpha_i^vee> alpha_i,
    beta^vee - <alpha_i, beta^vee> alpha_i^vee), breadth-first in simple
    order, each pairing taken over the nonzero entries of alpha_i or
    alpha_i^vee.  On given data every image must be a given pair and every
    given root must be reached.  With ``grow`` the given pairs are the
    simple ones, and each new image is appended in the order it is found.
    A height is 1 on a simple root and changes by -<beta, alpha_i^vee> under
    s_i; the simple roots are linearly independent, so it does not depend
    on the path.
    """
    if grow:
        roots, coroots = list(roots), list(coroots)
    position = {root: k for k, root in enumerate(roots)}
    root_columns, coroot_columns = list(zip(*roots)), list(zip(*coroots))
    reflections = [(tuple((j, y) for j, y in enumerate(roots[i]) if y),
                    tuple((j, y) for j, y in enumerate(coroots[i]) if y),
                    _pairings(root_columns, coroots[i]), _pairings(coroot_columns, roots[i]))
                   for i in simple]
    heights = [None] * len(roots)
    found = list(simple)
    for i in found:
        heights[i] = 1
    for k in found:
        root, coroot = roots[k], coroots[k]
        for root_support, coroot_support, pairing, copairing in reflections:
            c, cc = pairing[k], copairing[k]
            if not (c or cc):
                continue  # the pair is fixed
            image, coimage = list(root), list(coroot)
            for j, y in root_support:
                image[j] -= c * y
            for j, y in coroot_support:
                coimage[j] -= cc * y
            image, coimage = tuple(image), tuple(coimage)
            m = position.get(image)
            if m is None and grow:
                m = position[image] = len(roots)
                roots.append(image)
                coroots.append(coimage)
                heights.append(None)
                for rs, cs, p, cp in reflections:
                    p.append(sum(image[j] * y for j, y in cs))
                    cp.append(sum(coimage[j] * y for j, y in rs))
            if m is None or coroots[m] != coimage:
                raise _refusal(roots, coroots, simple,
                               f"a simple reflection sends the root {root} with coroot "
                               f"{coroot} to {image} with {coimage}, which "
                               f"is not a (root, coroot) pair")
            if heights[m] is None:
                heights[m] = heights[k] - c
                found.append(m)
    if len(found) < len(roots):
        root = roots[heights.index(None)]
        raise _refusal(roots, coroots, simple,
                       f"the root {root} is not Weyl-conjugate to a simple root")
    return tuple(roots), tuple(coroots), tuple(heights)


def identity_frobenius(d):
    return FrobeniusAction(identity_matrix(d))


class BasedRootDatum(Frozen):
    """The sextuple (X, roots, simples, Y, coroots, simple coroots) plus Frobenius.

    ``roots[i]`` (an X-vector) is paired with ``coroots[i]`` (a Y-vector) and
    their dot pairing is 2.  ``simple_indices`` points at the simple system,
    and ``heights[i]``, recorded by validation, is the height of ``roots[i]``.
    The Weyl group and fixed lattices are computed on first use and kept on
    the datum.  With ``_grow`` (the builders' path) the given pairs are the
    simple ones, and validation's walk adds the rest in the order it finds
    them.
    """

    _fields = ("rank", "roots", "coroots", "simple_indices", "fr")

    def __init__(self, rank, roots, coroots, simple_indices, fr=None, _grow=False):
        d = operator.index(rank)
        if d < 1:
            raise ValueError("rank must be a positive integer")
        roots = _as_matrix(roots)
        coroots = _as_matrix(coroots)
        simple = tuple(map(operator.index, simple_indices))
        if fr is None:
            fr = identity_frobenius(d)

        if len(roots) != len(coroots):
            raise ValueError("roots and coroots must be index-paired")
        if any(len(v) != d for v in roots) or any(len(v) != d for v in coroots):
            raise ValueError("root/coroot vectors must have length equal to the rank")
        if len(set(roots)) != len(roots):
            raise ValueError("roots must be distinct")
        if any(i < 0 or i >= len(roots) for i in simple):
            raise ValueError("simple indices out of range")
        if fr.rank != d:
            raise ValueError("Frobenius matrix size does not match the rank")

        for a, av in zip(roots, coroots):
            if dot(a, av) != 2:
                raise MathConstraintError(
                    f"pairing of root {a} with its coroot {av} must be 2")

        for i in simple:
            for j in simple:
                c = dot(roots[i], coroots[j])
                if i == j:
                    continue
                if c not in (0, -1, -2, -3):
                    raise _refusal(roots, coroots, simple,
                                   f"Cartan entry <root {i}, coroot {j}> = {c} is out of range")
        if row_rank([roots[i] for i in simple], d) != len(simple):
            raise _refusal(roots, coroots, simple,
                           "the simple roots are not a base: they are linearly dependent")

        if fr.order != 1:  # the identity permutes everything
            f = fr.matrix
            root_set, coroot_set = frozenset(roots), frozenset(coroots)
            if coroot_set and {mat_vec(f, c) for c in coroots} != coroot_set:
                raise _refusal(roots, coroots, simple, "Frobenius does not permute the coroots")
            simple_coroots = {coroots[i] for i in simple}
            if simple_coroots and {mat_vec(f, coroots[i]) for i in simple} != simple_coroots:
                raise _refusal(roots, coroots, simple,
                               "Frobenius does not preserve the simple coroots")
            # F^T is injective, so it maps the finite root set onto itself
            # exactly when its inverse, the action on X, does
            ft = transpose(f)
            if root_set and {mat_vec(ft, r) for r in roots} != root_set:
                raise _refusal(roots, coroots, simple,
                               "the dual Frobenius does not permute the roots")

        # last, so that data the checks above refuse keep their message
        roots, coroots, heights = _root_heights(roots, coroots, simple, _grow)
        self.__dict__.update(rank=d, roots=roots, coroots=coroots, simple_indices=simple,
                             fr=fr, heights=heights)

    @property
    def semisimple_rank(self):
        """Rank of the span of all roots: every root is W-conjugate to a
        simple one, so the span is that of the independent simple roots."""
        return len(self.simple_indices)

    @cached_property
    def _root_columns(self):
        """Entry j of every root, for each coordinate j."""
        return list(zip(*self.roots))

    @cached_property
    def _weyl_fixed(self):
        """Y^W: the vectors orthogonal to every simple root."""
        return orthogonal_lattice([self.roots[i] for i in self.simple_indices], self.rank)

    @cached_property
    def _weyl_group(self):
        """W with |W| and its blocks; nothing is enumerated."""
        return WeylGroup(self.rank, tuple((self.roots[i], self.coroots[i])
                                          for i in self.simple_indices),
                         weyl_order(self), permutation_blocks(self))

    @cached_property
    def _frobenius_fixed(self):
        """Y^Fr; all of Y when Frobenius is the identity."""
        if self.fr.order == 1:
            return Sublattice.full(self.rank)
        return fixed_sublattice([self.fr.matrix], self.rank)

    @cached_property
    def _weyl_frobenius_fixed(self):
        """Y^{W x Fr} = Y^W meet Y^Fr; either one when the other is all of Y."""
        return intersect(self._weyl_fixed, self._frobenius_fixed)


class WeylGroup(Frozen):
    """The Weyl group of a rank-``rank`` datum, generated by the reflections
    of its simple (root, coroot) pairs, with |W| known from the root heights.
    On block-permutation data ``blocks`` partitions the coordinates (see
    :func:`permutation_blocks`): W is every permutation that maps each block
    to itself, acting on X as on Y.  Membership is :meth:`permutation`,
    which keeps the last twist it decided, and orbits compare the sets of
    entries in each block, which :meth:`block_entries` gives.  Otherwise
    ``blocks`` is None, and membership and orbits are answered from the
    elements, closed on first use and kept once, as their action on Y: an
    orbit reads the action on X of each element's inverse off its columns."""

    _fields = ("rank", "simple_pairs", "order", "blocks")

    @cached_property
    def elements(self):
        """Every Weyl element as an integer matrix acting on Y, the identity
        first and the rest sorted; s_i m = m - alpha_i^vee (alpha_i^T m)
        changes only the rows where alpha_i^vee is nonzero.  A group above
        :data:`MAX_WEYL_ORDER` is refused before the closure starts."""
        if self.order > MAX_WEYL_ORDER:
            raise ResourceLimitError(
                f"the Weyl group of order {self.order} exceeds the guard {MAX_WEYL_ORDER}")

        def reflect(m):
            cols = list(zip(*m))
            for root, coroot in self.simple_pairs:
                row = [dot(root, col) for col in cols]
                yield tuple(r if not c else tuple(x - c * y for x, y in zip(r, row))
                            for r, c in zip(m, coroot))

        ident, *rest = _closure([identity_matrix(self.rank)], reflect)
        if len(rest) + 1 != self.order:
            raise RuntimeError(
                f"internal consistency: closure found {len(rest) + 1} Weyl elements, "
                f"the root heights give {self.order}")
        return (ident, *sorted(rest))

    @cached_property
    def _members(self):
        return frozenset(self.elements)

    @cached_property
    def _unit_rows(self):
        return sorted(tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank))

    def __contains__(self, m):
        """Is the integer matrix m in W?  On block data: is it a permutation
        matrix that maps every block to itself?"""
        if self.blocks is None:
            return m in self._members
        return self.permutation(m) is not None

    def permutation(self, m):
        """On block data, the permutation p with (m^T v)_j = v_{p[j]} when
        the matrix m is in W, or None when it is not: m must have the unit
        vectors as rows, and p, the row of the 1 in each column, must map
        every block to itself.  The last tuple of tuples asked about and its
        answer are kept in the instance dict, as ``cached_property`` keeps
        values; the same or an equal matrix is answered from them."""
        last = self.__dict__.get("_last_twist")
        if last is not None and (last[0] is m or last[0] == m):
            return last[1]
        p = None
        if sorted(m) == self._unit_rows:
            p = [col.index(1) for col in zip(*m)]
            if len(self.blocks) > 1 and any({p[j] for j in block} != set(block)
                                            for block in self.blocks):
                p = None
        # other containers than tuples could change once kept
        if type(m) is tuple and all(type(row) is tuple for row in m):
            self.__dict__["_last_twist"] = (m, p)
        return p

    def block_entries(self, v):
        """On block data, the set of entries of v in each block, or None
        when an entry repeats within a block: then v is not in general
        position (see :meth:`orbit`)."""
        if len(self.blocks) == 1:
            entries = frozenset(v)
            return [entries] if len(entries) == len(v) else None
        sets = [frozenset([v[i] for i in block]) for block in self.blocks]
        if any(len(s) < len(block) for s, block in zip(sets, self.blocks)):
            return None
        return sets

    def orbit(self, v, denom, w, f):
        """A test for the W-orbit of the exponents v mod denom, or None when
        v is not in general position for the twist w Fr: some element other
        than the identity fixes v and commutes with w Fr.

        Other data than block data map v by every element's transpose, one
        column at a time, and search its stabilizer for an element commuting
        with w Fr.  On block data v is in general position exactly when its
        entries are distinct within each block, whatever the twist.  Then a
        list u of the same length lies in the orbit exactly when each block
        holds the same set of entries in u as in v; with one block that is
        one set.

        The stabilizer of v is the Young subgroup H of equal entries.  Let
        g = w Fr.  Fr permutes the simple coroots, so g normalizes W; and
        q v = g^T v with q invertible mod denom, so g^-1 H g fixes v and g
        normalizes H.  Conjugation phi by g sends reflections to reflections,
        so it permutes the transpositions of H and with them its factors
        S_C.  On a cycle C_1 -> ... -> C_k of factors, phi^k acts on S_{C_1}
        by an automorphism that keeps transpositions, which is conjugation
        by some tau.  Take s = tau, or any transposition if tau = 1: then
        s phi(s) ... phi^(k-1)(s) is an element of H other than the identity
        that commutes with g.  So equal entries in one block always put v
        out of general position.  That Fr normalizes W holds on every root
        datum, and validation refuses a root that is not W-conjugate to a
        simple one with its coroot.
        """
        blocks = self.blocks
        if blocks is not None:
            sets = self.block_entries(v)
            if sets is None:
                return None
            if len(blocks) == 1:
                entries = sets[0]
                return lambda u: frozenset(u) == entries
            return lambda u: [frozenset([u[i] for i in block]) for block in blocks] == sets
        orbit = self._images(v, denom, w, f)
        return None if orbit is None else lambda u: tuple(u) in orbit

    def _images(self, v, denom, w, f):
        """Off block data, the set of images of the tuple v mod denom by the
        transposes of the elements, or None when v is not in general
        position for the twist w Fr (see :meth:`orbit`)."""
        images = [tuple([sum(map(operator.mul, col, v)) % denom for col in zip(*m)])
                  for m in self.elements]
        stabilizer = [m for m, image in zip(self.elements[1:], images[1:]) if image == v]
        if stabilizer:
            wf = mat_mul(w, f)
            if any(mat_mul(wf, m) == mat_mul(m, wf) for m in stabilizer):
                return None
        return set(images)


def _closure(start, step):
    """Everything reachable from ``start`` under ``step`` (an item's
    successors), in breadth-first order: the list grows while it is read."""
    found = list(start)
    seen = set(found)
    for item in found:
        for new in step(item):
            if new not in seen:
                seen.add(new)
                found.append(new)
    return found


def weyl_group(rd):
    """The :class:`WeylGroup` of a datum, held by it.  Building it enumerates
    nothing; only its elements are refused above :data:`MAX_WEYL_ORDER`."""
    return rd._weyl_group


def weyl_order(rd):
    """|W| without enumerating W: the product of the degrees m_i + 1.

    The exponents m_i are read off the heights of the positive roots, which
    validation records: as many exponents are at least h as there are
    positive roots of height h (Kostant; Humphreys, Lie Algebras, 10.2-10.3).
    """
    heights = [h for h in rd.heights if h > 0]
    order = 1
    for h in range(1, max(heights, default=0) + 1):
        order *= (h + 1) ** (heights.count(h) - heights.count(h + 1))
    return order


def permutation_blocks(rd):
    """The blocks of block-permutation data, or None for other data.

    Block-permutation data have simple reflections that each swap two
    coordinates of Y (GL_r, tori, any datum with roots +-(e_i - e_j)).  Their
    W is the product of the symmetric groups on the blocks: the connected
    components of the graph whose edges are those swaps, each in increasing
    order, in the order of their least coordinates.
    """
    d = rd.rank
    neighbours = [[] for _ in range(d)]
    for i in rd.simple_indices:
        if not _swaps_coordinates(rd.roots[i], rd.coroots[i]):
            return None
        a, b = (j for j, x in enumerate(rd.roots[i]) if x)
        neighbours[a].append(b)
        neighbours[b].append(a)
    blocks, seen = [], set()
    for i in range(d):
        if i not in seen:
            block = _closure([i], neighbours.__getitem__)
            seen.update(block)
            blocks.append(tuple(sorted(block)))
    return tuple(blocks)


def coroot_lattice(rd):
    """Span of all coroots inside Y (the lattice of the simply-connected cover)."""
    return hermite_normal_form(rd.coroots, rd.rank)


def is_derived_simply_connected(rd):
    """True iff the coroot span is saturated, i.e. Y modulo it is free."""
    return is_saturated(coroot_lattice(rd))


# ---------------------------------------------------------------------------
# standard constructors (split groups; arbitrary Frobenii only on tori)

def check_glr_rank(r, limit=MAX_GLR_RANK):
    """Refuse a GL_r rank r that is no integer, with :class:`TypeError`, or
    below 1, with :class:`ValueError`; then one above ``limit`` with
    :class:`ResourceLimitError`, unless ``limit`` is None.  Every GL_r route
    checks r here, before anything else; ``glr_table``, which bounds
    q^r - 1 instead, and ``form_from_glr_invariants`` pass None."""
    if operator.index(r) < 1:
        raise ValueError("GL_r needs r >= 1")
    if limit is not None and r > limit:
        raise ResourceLimitError(f"GL_r with r = {r} exceeds the rank guard {limit}")


#: (builder's data, rank) -> the fields validation gave that standard datum
_VALIDATED = {}


def _standard_datum(data, r):
    """A fresh datum filled from the fields kept for (data, r).  The first
    call of a (data, rank) validates ``BasedRootDatum(*data(r))`` and keeps
    its fields; later calls run neither ``data`` nor validation.  The
    builder has refused an r out of range already, and the key
    ``operator.index(r)`` refuses a float (3.0 == 3) before any lookup."""
    key = (data, operator.index(r))
    fields = _VALIDATED.get(key)
    if fields is None:
        fields = _VALIDATED[key] = dict(vars(BasedRootDatum(*data(key[1]))))
    rd = BasedRootDatum.__new__(BasedRootDatum)
    rd.__dict__.update(fields)
    return rd


def _glr_data(r):
    """The arguments of BasedRootDatum for GL_r: every root e_i - e_j."""
    roots, coroots, simple = [], [], []
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            vec = tuple((k == i) - (k == j) for k in range(r))
            if j == i + 1:
                simple.append(len(roots))
            roots.append(vec)
            coroots.append(vec)
    return r, tuple(roots), tuple(coroots), tuple(simple)


def _slr_data(r):
    """The arguments of BasedRootDatum for SL_r: the simple pairs, grown."""
    d = r - 1
    roots = [tuple(2 if k == i else (-1 if abs(k - i) == 1 else 0) for k in range(d))
             for i in range(d)]
    return d, roots, identity_matrix(d), range(d), None, True


def _sp2r_data(r):
    """The arguments of BasedRootDatum for Sp_2r: the simple pairs, grown."""
    short = [tuple((k == i) - (k == i + 1) for k in range(r)) for i in range(r - 1)]
    last = tuple(int(k == r - 1) for k in range(r))
    return r, short + [tuple(2 * x for x in last)], short + [last], range(r), None, True


def build_glr(r):
    """Root datum of GL_r: Y = Z^r, roots e_i - e_j, W the permutation matrices.
    r is checked by :func:`check_glr_rank`; each rank is validated once per
    process, and every call returns a fresh datum."""
    check_glr_rank(r)
    return _standard_datum(_glr_data, r)


def build_slr(r):
    """Root datum of SL_r on Y = Z^{r-1}: simple coroots are the unit vectors.
    Each rank is validated once per process; every call returns a fresh datum."""
    if r < 2:
        raise ValueError("SL_r needs r >= 2")
    return _standard_datum(_slr_data, r)


def build_sp2r(r):
    """Root datum of Sp_2r (type C_r) on Y = Z^r; the last simple root is long.
    Each rank is validated once per process; every call returns a fresh datum."""
    if r < 2:
        raise ValueError("Sp_2r needs r >= 2")
    return _standard_datum(_sp2r_data, r)


def build_torus(d, fr=None):
    """Rank-d torus: no roots, with the given Frobenius action on Y."""
    if operator.index(d) < 1:
        raise ValueError("a torus needs rank >= 1")
    if fr is not None and not isinstance(fr, FrobeniusAction):
        fr = FrobeniusAction(fr)
    return BasedRootDatum(d, (), (), (), fr)


def weyl_fixed_lattice(rd):
    """Y^W as a sublattice of Y, computed once per datum."""
    return rd._weyl_fixed


def frobenius_fixed_lattice(rd):
    """Y^Fr as a sublattice of Y, computed once per datum."""
    return rd._frobenius_fixed


def weyl_frobenius_fixed_lattice(rd):
    """Y^{W x Fr}: vectors fixed by every Weyl generator and by Frobenius,
    computed once per datum."""
    return rd._weyl_frobenius_fixed
