"""Based root data with Frobenius actions and their Weyl groups.

Conventions: the cocharacter lattice Y and the character lattice X are both
identified with Z^d, paired by the dot product.  Roots are stored in
X-coordinates and coroots in Y-coordinates, index-paired.  Every automorphism
(simple reflection, Frobenius, Weyl element) is stored as its action on Y; the
action on X is the inverse-transpose and is derived on demand, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import MathConstraintError, ResourceLimitError
from .lattice import (
    dot,
    fixed_sublattice,
    hermite_normal_form,
    identity_matrix,
    is_saturated,
    mat_mul,
    mat_pow,
    mat_vec,
    transpose,
)

#: Largest multiplicative order accepted for a Frobenius matrix.
MAX_FROBENIUS_ORDER = 24

#: Guard on the semisimple rank before enumerating a full Weyl group.
MAX_WEYL_SEMISIMPLE_RANK = 8


def _as_matrix(rows):
    return tuple(tuple(int(x) for x in row) for row in rows)


@dataclass(frozen=True)
class FrobeniusAction:
    """A finite-order integer matrix acting on the cocharacter lattice Y."""

    matrix: tuple

    def __post_init__(self):
        mat = _as_matrix(self.matrix)
        object.__setattr__(self, "matrix", mat)
        d = len(mat)
        if any(len(row) != d for row in mat):
            raise ValueError("Frobenius matrix must be square")
        acc = mat
        order = None
        for k in range(1, MAX_FROBENIUS_ORDER + 1):
            if acc == identity_matrix(d):
                order = k
                break
            acc = mat_mul(acc, mat)
        if order is None:
            raise MathConstraintError(
                f"Frobenius matrix must have finite order <= {MAX_FROBENIUS_ORDER}")
        object.__setattr__(self, "order", order)

    @cached_property
    def inverse(self):
        return mat_pow(self.matrix, self.order - 1)

    @property
    def rank(self):
        return len(self.matrix)


def identity_frobenius(d):
    return FrobeniusAction(identity_matrix(d))


@dataclass(frozen=True)
class BasedRootDatum:
    """The sextuple (X, roots, simples, Y, coroots, simple coroots) plus Frobenius.

    ``roots[i]`` (an X-vector) is paired with ``coroots[i]`` (a Y-vector) and
    their dot pairing is 2.  ``simple_indices`` points at the simple system.
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

        root_set, coroot_set = frozenset(roots), frozenset(coroots)
        for i in self.simple_indices:
            s = self._reflection(i)
            if {mat_vec(s, c) for c in coroots} != coroot_set:
                raise MathConstraintError(
                    f"simple reflection {i} does not permute the coroots")
            st = transpose(s)
            if {mat_vec(st, r) for r in roots} != root_set:
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

        f = fr.matrix
        if coroot_set and {mat_vec(f, c) for c in coroots} != coroot_set:
            raise MathConstraintError("Frobenius does not permute the coroots")
        simple_coroots = {coroots[i] for i in simple}
        if simple_coroots and {mat_vec(f, coroots[i]) for i in simple} != simple_coroots:
            raise MathConstraintError("Frobenius does not preserve the simple coroots")
        fx = transpose(fr.inverse)
        if root_set and {mat_vec(fx, r) for r in roots} != root_set:
            raise MathConstraintError("the dual Frobenius does not permute the roots")

    def _reflection(self, i):
        """Matrix of s_i on Y: y -> y - <root_i, y> coroot_i."""
        d = self.rank
        a, av = self.roots[i], self.coroots[i]
        return tuple(tuple((r == c) - av[r] * a[c] for c in range(d))
                     for r in range(d))


@dataclass(frozen=True)
class WeylGroup:
    """Complete list of Weyl elements as integer matrices acting on Y; the
    identity comes first."""

    elements: tuple

    @property
    def order(self):
        return len(self.elements)

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


def simple_reflections(rd):
    """Matrices of the simple reflections acting on Y."""
    return tuple(rd._reflection(i) for i in rd.simple_indices)


@lru_cache(maxsize=None)
def weyl_group(rd):
    """All Weyl elements, generated from the simple reflections by closure.

    Cached by the value of the datum, so equal data built separately share
    one group and its derived data.
    """
    if coroot_lattice(rd).rank > MAX_WEYL_SEMISIMPLE_RANK:
        raise ResourceLimitError(
            f"semisimple rank exceeds the guard {MAX_WEYL_SEMISIMPLE_RANK}")
    gens = simple_reflections(rd)
    ident, *rest = _closure([identity_matrix(rd.rank)],
                            lambda m: (mat_mul(g, m) for g in gens))
    return WeylGroup((ident, *sorted(rest)))


def coroot_lattice(rd):
    """Span of all coroots inside Y (the lattice of the simply-connected cover)."""
    return hermite_normal_form(rd.coroots, rd.rank)


def is_derived_simply_connected(rd):
    """True iff the coroot span is saturated, i.e. Y modulo it is free."""
    return is_saturated(coroot_lattice(rd))


# ---------------------------------------------------------------------------
# standard constructors (split groups; arbitrary Frobenii only on tori)

def build_glr(r):
    """Root datum of GL_r: Y = Z^r, roots e_i - e_j, W the permutation matrices."""
    if r < 1:
        raise ValueError("GL_r needs r >= 1")
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


def frobenius_fixed_lattice(rd):
    """Y^Fr as a sublattice of Y."""
    return fixed_sublattice([rd.fr.matrix], rd.rank)


def weyl_frobenius_fixed_lattice(rd):
    """Y^{W x Fr}: vectors fixed by every Weyl generator and by Frobenius."""
    gens = list(simple_reflections(rd)) + [rd.fr.matrix]
    return fixed_sublattice(gens, rd.rank)
