"""Based root data with Frobenius actions and their Weyl groups.

Conventions: the cocharacter lattice Y and the character lattice X are both
identified with Z^d, paired by the dot product.  Roots are stored in
X-coordinates and coroots in Y-coordinates, index-paired.  Every automorphism
(simple reflection, Frobenius, Weyl element) is stored as its action on Y; the
action on X is the inverse-transpose and is derived on demand, never stored.

A datum computes on first use and then holds its semisimple rank, its Weyl
group and Y^W, Y^Fr and Y^{W x Fr}, all freed with it; with the identity
Frobenius the last two are Z^d and Y^W, with no kernel computed.  No
reflection matrix is built: W, |W| and Y^W (orthogonal to the simple roots)
are read off the roots and coroots.  Validation checks that the simple
roots are linearly independent, pairs each simple root and coroot with
every coroot and root once, and checks only that each reflected vector lies
in the set: a reflection is injective, so mapping a finite set into itself
permutes it.  That a root is W-conjugate to a simple one is not checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MathConstraintError, ResourceLimitError
from .lattice import (
    Sublattice,
    dot,
    fixed_sublattice,
    hermite_normal_form,
    identity_matrix,
    intersect,
    is_saturated,
    mat_mul,
    mat_vec,
    orthogonal_lattice,
    rank,
    transpose,
)

#: Largest multiplicative order accepted for a Frobenius matrix.
MAX_FROBENIUS_ORDER = 24

#: Largest Weyl group enumerated element by element: |W(A_7)| = 8!.
MAX_WEYL_ORDER = 40_320

#: Largest r accepted by :func:`build_glr`; validating the datum costs about r^4.
MAX_GLR_RANK = 16


def _as_matrix(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class FrobeniusAction:
    """A finite-order integer matrix acting on the cocharacter lattice Y.

    Building it decides ``order`` (at most MAX_FROBENIUS_ORDER) and keeps the
    power before the identity as ``inverse``.
    """

    matrix: tuple

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        d = len(mat)
        if any(len(row) != d for row in mat):
            raise ValueError("Frobenius matrix must be square")
        identity = identity_matrix(d)
        # the nonzero entries of each row, so that a signed permutation
        # matrix costs O(d^2) per power rather than d^3
        sparse = [[(j, x) for j, x in enumerate(row) if x] for row in mat]
        # acc is mat^k and inverse mat^(k-1), which is the inverse once acc
        # is the identity
        acc, inverse = mat, identity
        order = None
        for k in range(1, MAX_FROBENIUS_ORDER + 1):
            if acc == identity:
                order = k
                break
            inverse, acc = acc, tuple(_row_times(row, sparse, d) for row in acc)
        if order is None:
            raise MathConstraintError(
                f"Frobenius matrix must have finite order <= {MAX_FROBENIUS_ORDER}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "inverse", inverse)

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


def identity_frobenius(d):
    return FrobeniusAction(identity_matrix(d))


@dataclass(frozen=True)
class BasedRootDatum:
    """The sextuple (X, roots, simples, Y, coroots, simple coroots) plus Frobenius.

    ``roots[i]`` (an X-vector) is paired with ``coroots[i]`` (a Y-vector) and
    their dot pairing is 2.  ``simple_indices`` points at the simple system.
    Its semisimple rank, Weyl group and fixed lattices are computed on first
    use and kept on the datum.
    """

    rank: int
    roots: tuple
    coroots: tuple
    simple_indices: tuple
    fr: FrobeniusAction | None = None

    def __post_init__(self):
        d = self.rank
        if not isinstance(d, int) or d < 1:
            raise ValueError("rank must be a positive integer")
        roots = _as_matrix(self.roots)
        coroots = _as_matrix(self.coroots)
        simple = tuple(int(i) for i in self.simple_indices)
        fr = self.fr if self.fr is not None else identity_frobenius(d)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "simple_indices", simple)
        object.__setattr__(self, "fr", fr)

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

        # a reflection is injective, so it permutes a finite set once it maps
        # the set into itself; a vector with pairing 0 is fixed
        root_set, coroot_set = frozenset(roots), frozenset(coroots)
        for i in simple:
            a, av = roots[i], coroots[i]
            if not _maps_into(coroots, mat_vec(coroots, a), av, coroot_set):
                raise MathConstraintError(
                    f"simple reflection {i} does not permute the coroots")
            if not _maps_into(roots, mat_vec(roots, av), a, root_set):
                raise MathConstraintError(
                    f"simple reflection {i} does not permute the roots")

        for i in simple:
            for j in simple:
                c = dot(roots[i], coroots[j])
                if i == j:
                    continue
                if c not in (0, -1, -2, -3):
                    raise MathConstraintError(
                        f"Cartan entry <root {i}, coroot {j}> = {c} is out of range")
        if rank([roots[i] for i in simple], d) != len(simple):
            raise MathConstraintError(
                "the simple roots are not a base: they are linearly dependent")

        if fr.order == 1:  # the identity permutes everything
            return
        f = fr.matrix
        if coroot_set and {mat_vec(f, c) for c in coroots} != coroot_set:
            raise MathConstraintError("Frobenius does not permute the coroots")
        simple_coroots = {coroots[i] for i in simple}
        if simple_coroots and {mat_vec(f, coroots[i]) for i in simple} != simple_coroots:
            raise MathConstraintError("Frobenius does not preserve the simple coroots")
        fx = transpose(fr.inverse)
        if root_set and {mat_vec(fx, r) for r in roots} != root_set:
            raise MathConstraintError("the dual Frobenius does not permute the roots")

    @cached_property
    def semisimple_rank(self):
        """Rank of the span of all roots."""
        return rank(self.roots, self.rank)

    @cached_property
    def _weyl_fixed(self):
        """Y^W: the vectors orthogonal to every simple root."""
        return orthogonal_lattice([self.roots[i] for i in self.simple_indices], self.rank)

    @cached_property
    def _weyl_group(self):
        """W, refused above MAX_WEYL_ORDER before any closure."""
        order = weyl_order(self)
        if order > MAX_WEYL_ORDER:
            raise ResourceLimitError(
                f"the Weyl group of order {order} exceeds the guard {MAX_WEYL_ORDER}")
        return WeylGroup(self.rank, tuple((self.roots[i], self.coroots[i])
                                          for i in self.simple_indices), order)

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


@dataclass(frozen=True)
class WeylGroup:
    """The Weyl group of a rank-``rank`` datum, generated by the reflections
    of its simple (root, coroot) pairs, with |W| known from the root heights;
    its elements are closed on first use."""

    rank: int
    simple_pairs: tuple
    order: int

    @cached_property
    def elements(self):
        """Every Weyl element as an integer matrix acting on Y, the identity
        first and the rest sorted; s_i m = m - alpha_i^vee (alpha_i^T m)
        changes only the rows where alpha_i^vee is nonzero."""
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

    def __contains__(self, m):
        return m in self._members

    @cached_property
    def x_action(self):
        """The transposes of ``elements``, index-aligned: ``x_action[i]`` acts
        on X as ``elements[i]`` inverted, so the tuple runs over the group."""
        return tuple(transpose(m) for m in self.elements)

    def orbit(self, v, denom, w, f):
        """A test for the W-orbit of the exponents v mod denom, or None when
        v is not in general position for the twist w Fr: some element other
        than the identity fixes v and commutes with w Fr."""
        images = [tuple(sum(a * t for a, t in zip(row, v)) % denom for row in mt)
                  for mt in self.x_action]
        stabilizer = [m for m, image in zip(self.elements[1:], images[1:]) if image == v]
        if stabilizer:
            wf = mat_mul(w, f)
            if any(mat_mul(wf, m) == mat_mul(m, wf) for m in stabilizer):
                return None
        orbit = set(images)
        return lambda u: tuple(u) in orbit


@dataclass(frozen=True)
class PermutationBlocks:
    """The Weyl group of block-permutation data (see
    :func:`permutation_blocks`), held as its blocks: W is every permutation
    of the coordinates that maps each block to itself, and it acts on X by
    the same permutations as on Y.  ``blocks`` partitions the coordinates,
    each block in increasing order.
    """

    blocks: tuple

    @cached_property
    def _unit_rows(self):
        d = sum(map(len, self.blocks))
        return sorted(tuple(int(i == j) for j in range(d)) for i in range(d))

    def __contains__(self, m):
        """Is the integer matrix m a permutation matrix that maps every block
        to itself?"""
        # a permutation matrix is one whose rows are the unit vectors
        return sorted(m) == self._unit_rows and (
            len(self.blocks) == 1
            or all({m[i].index(1) for i in block} == set(block) for block in self.blocks))

    def key(self, v):
        """Canonical form of v under W: its entries sorted within each block.
        Two vectors lie in one W-orbit exactly when their keys are equal."""
        if len(self.blocks) == 1:
            return sorted(v)
        return [sorted([v[i] for i in block]) for block in self.blocks]

    def orbit(self, v, denom, w, f):
        """As :meth:`WeylGroup.orbit`, by keys: None exactly when two entries
        of v in one block are equal, whatever the twist.

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
        datum; it can fail only on validated data that are not root data
        (a root not W-conjugate to a simple one).
        """
        key = self.key(v)
        for block in [key] if len(self.blocks) == 1 else key:
            if any(a == b for a, b in zip(block, block[1:])):
                return None
        return lambda u: self.key(u) == key


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
    """The Weyl group of a datum, held by it: |W| is found first, and a
    group above :data:`MAX_WEYL_ORDER` is refused before any closure."""
    return rd._weyl_group


def weyl_order(rd):
    """|W| without enumerating W: the product of the degrees m_i + 1.

    The exponents m_i are read off the heights of the positive roots: as
    many exponents are at least h as there are positive roots of height h
    (Kostant).  Each positive root is reached from a simple one by the s_i
    that raise the height, s_i beta = beta - c alpha_i with
    c = <beta, alpha_i^vee> < 0 (Humphreys, Lie Algebras, 10.2); the simple
    roots are a base, as validation checks, so the walk ends.
    """
    pairs = [(rd.roots[i], rd.coroots[i]) for i in rd.simple_indices]

    def raise_height(item):
        root, height = item
        for sroot, scoroot in pairs:
            c = dot(root, scoroot)
            if c < 0:
                yield tuple(a - c * b for a, b in zip(root, sroot)), height - c

    heights = [h for _, h in _closure([(root, 1) for root, _ in pairs], raise_height)]
    order = 1
    for h in range(1, max(heights, default=0) + 1):
        order *= (h + 1) ** (heights.count(h) - heights.count(h + 1))
    return order


def permutation_blocks(rd):
    """The Weyl group of block-permutation data, or None for other data.

    Block-permutation data have simple reflections that each swap two
    coordinates of Y (GL_r, tori, any datum with roots +-(e_i - e_j)).  Their
    W is the product of the symmetric groups on the blocks: the connected
    components of the graph whose edges are those swaps.
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
    return PermutationBlocks(tuple(blocks))


def coroot_lattice(rd):
    """Span of all coroots inside Y (the lattice of the simply-connected cover)."""
    return hermite_normal_form(rd.coroots, rd.rank)


def is_derived_simply_connected(rd):
    """True iff the coroot span is saturated, i.e. Y modulo it is free."""
    return is_saturated(coroot_lattice(rd))


# ---------------------------------------------------------------------------
# standard constructors (split groups; arbitrary Frobenii only on tori)

def check_glr_rank(r):
    """Refuse GL_r with r above :data:`MAX_GLR_RANK`."""
    if r > MAX_GLR_RANK:
        raise ResourceLimitError(f"GL_r with r = {r} exceeds the rank guard {MAX_GLR_RANK}")


def build_glr(r):
    """Root datum of GL_r: Y = Z^r, roots e_i - e_j, W the permutation matrices."""
    if r < 1:
        raise ValueError("GL_r needs r >= 1")
    check_glr_rank(r)
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
    return BasedRootDatum(r, tuple(roots), tuple(coroots), tuple(simple))


def _close_root_system(simple_pairs):
    """Orbit closure of simple (root, coroot) pairs under the simple reflections."""
    def reflect(pair):
        root, coroot = pair
        for sroot, scoroot in simple_pairs:
            c, cc = dot(root, scoroot), dot(sroot, coroot)
            if c or cc:  # else the pair is fixed, and already found
                yield (tuple(a - c * b for a, b in zip(root, sroot)),
                       tuple(a - cc * b for a, b in zip(coroot, scoroot)))

    roots, coroots = zip(*_closure(simple_pairs, reflect))
    return roots, coroots, tuple(range(len(simple_pairs)))


def build_slr(r):
    """Root datum of SL_r on Y = Z^{r-1}: simple coroots are the unit vectors."""
    if r < 2:
        raise ValueError("SL_r needs r >= 2")
    d = r - 1
    simple_pairs = []
    for i in range(d):
        coroot = tuple(int(k == i) for k in range(d))
        root = tuple(2 if k == i else (-1 if abs(k - i) == 1 else 0) for k in range(d))
        simple_pairs.append((root, coroot))
    roots, coroots, simple = _close_root_system(simple_pairs)
    return BasedRootDatum(d, roots, coroots, simple)


def build_sp2r(r):
    """Root datum of Sp_2r (type C_r) on Y = Z^r; the last simple root is long."""
    if r < 2:
        raise ValueError("Sp_2r needs r >= 2")
    simple_pairs = []
    for i in range(r - 1):
        vec = tuple((k == i) - (k == i + 1) for k in range(r))
        simple_pairs.append((vec, vec))
    long_root = tuple(2 * (k == r - 1) for k in range(r))
    short_coroot = tuple(int(k == r - 1) for k in range(r))
    simple_pairs.append((long_root, short_coroot))
    roots, coroots, simple = _close_root_system(simple_pairs)
    return BasedRootDatum(r, roots, coroots, simple)


def build_torus(d, fr=None):
    """Rank-d torus: no roots, with the given Frobenius action on Y."""
    if d < 1:
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
