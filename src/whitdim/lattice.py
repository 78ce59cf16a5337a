"""Exact integer-lattice arithmetic on Z^d.

Every index computed by this package reduces to the primitives here: row
Hermite normal form (the canonical representation of a sublattice), Smith
invariant factors of a quotient, intersections, saturations, and joint fixed
sublattices of integer endomorphisms.  All arithmetic uses Python's unbounded
integers; Smith-form intermediates may grow, which is accepted in exchange
for exactness.

A :class:`Sublattice` always stores its basis in row Hermite normal form:
pivots are positive, strictly ordered left to right, and every entry above a
pivot lies in ``[0, pivot)``.  Equality of lattices is therefore structural
equality of the stored data.

Every elimination is one routine, ``_echelon``; the cheaper questions take
no more of it than they need.  ``rank`` is one echelon pass without the
reduction above the pivots, ``is_saturated`` reads the Smith factors of the
basis (all 1 exactly when Z^d / lat is free, and at once when every pivot is
1) instead of computing the saturation, and ``intersect`` returns the other
side when one side is Z^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from math import gcd, prod
from operator import mul

from .errors import ResourceLimitError

IntVector = tuple[int, ...]
IntMatrix = tuple[IntVector, ...]

#: Sentinel returned by :func:`index` when the subgroup has infinite index.
INFINITE = "infinite"

#: Largest quotient whose coset representatives are built; in the orbit
#: search of a cover one coset costs about 300 bytes.
MAX_COSETS = 100_000


# ---------------------------------------------------------------------------
# small integer matrix helpers

def identity_matrix(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def transpose(mat):
    rows = [tuple(r) for r in mat]
    if not rows:
        return ()
    return tuple(tuple(r[i] for r in rows) for i in range(len(rows[0])))


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(mat, vec):
    return tuple(sum(map(mul, row, vec)) for row in mat)


def dot(u, v):
    return sum(map(mul, u, v))


def _as_int_rows(rows):
    return [tuple(int(x) for x in r) for r in rows]


# ---------------------------------------------------------------------------
# row reduction over Z

def _echelon(rows, width, track=False):
    """Unimodular row reduction to echelon form with positive pivots.

    Returns ``(body, kernel)`` where ``body`` lists the nonzero echelon rows
    and ``kernel`` (only when ``track``) lists integer combinations ``u`` of
    the input rows with ``u . rows = 0``; together they span the left kernel.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
    aug = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if track else None
    pivot_row = 0
    for col in range(width):
        live = [i for i in range(pivot_row, n) if mat[i][col]]
        while len(live) > 1:
            # the first row of least absolute value in the column reduces
            # the others; a row that reaches 0 there stays 0
            base = min(live, key=lambda i: abs(mat[i][col]))
            brow, piv = mat[base], mat[base][col]
            for i in live:
                if i != base:
                    f = mat[i][col] // piv
                    mat[i] = [a - f * b for a, b in zip(mat[i], brow)]
                    if track:
                        aug[i] = [a - f * b for a, b in zip(aug[i], aug[base])]
            live = [i for i in live if mat[i][col]]
        if not live:
            continue
        i0 = live[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        if track:
            aug[pivot_row], aug[i0] = aug[i0], aug[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
            if track:
                aug[pivot_row] = [-a for a in aug[pivot_row]]
        pivot_row += 1
    body = mat[:pivot_row]
    kernel = [tuple(aug[i]) for i in range(pivot_row, n)] if track else None
    return body, kernel


def _reduce_above(body):
    """Reduce entries above each pivot into [0, pivot).  Mutates and returns."""
    for k, row in enumerate(body):
        p = next(j for j, a in enumerate(row) if a)
        piv = row[p]
        for i in range(k):
            f = body[i][p] // piv
            if f:
                body[i] = [a - f * b for a, b in zip(body[i], row)]
    return body


def _right_kernel(rows, d):
    """Basis of {x in Z^d : row . x = 0 for every row}."""
    if not rows:
        return list(identity_matrix(d))
    cols = [tuple(r[i] for r in rows) for i in range(d)]
    return _echelon(cols, len(rows), track=True)[1]


def _smith_diagonal(rows, ncols):
    """Diagonal d_1 | d_2 | ... of the Smith normal form (nonzero entries).

    Row echelon forms of the matrix and of its transpose alternate until only
    diagonal entries are nonzero.  Each pass replaces the leading pivot by a
    proper divisor or leaves it alone in its row and column, so by induction
    on the rest this ends.  Trading each pair (d_i, d_j), i < j, for its gcd
    and lcm then sorts the exponent of every prime into a divisibility chain.
    """
    body, _ = _echelon(rows, ncols)
    while any(a and i != j for i, row in enumerate(body) for j, a in enumerate(row)):
        body, _ = _echelon(transpose(body), len(body))
    diag = [row[i] for i, row in enumerate(body)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Sublattice:
    """A sublattice of Z^d, stored in canonical row Hermite normal form.

    The zero lattice has an empty basis; Z^d itself has the identity basis.
    Construct instances via :func:`hermite_normal_form` (or the ``zero`` /
    ``full`` classmethods); the constructor only accepts bases that are
    already canonical.
    """

    ambient_rank: int
    basis: IntMatrix

    def __post_init__(self):
        d = self.ambient_rank
        if not isinstance(d, int) or d < 1:
            raise ValueError("ambient rank must be a positive integer")
        basis = tuple(tuple(int(x) for x in row) for row in self.basis)
        object.__setattr__(self, "basis", basis)
        if any(len(row) != d for row in basis):
            raise ValueError("basis rows must all have the ambient length")
        last_pivot = -1
        for k, row in enumerate(basis):
            p = next((j for j, a in enumerate(row) if a), None)
            if p is None:
                raise ValueError("zero rows are not allowed in a canonical basis")
            if p <= last_pivot:
                raise ValueError("basis is not in echelon order")
            if row[p] < 0:
                raise ValueError("pivots must be positive")
            for i in range(k):
                if not 0 <= basis[i][p] < row[p]:
                    raise ValueError("entries above a pivot must be reduced")
            last_pivot = p

    @classmethod
    def zero(cls, d):
        return cls(d, ())

    @classmethod
    def full(cls, d):
        return cls(d, identity_matrix(d))

    @property
    def rank(self):
        return len(self.basis)

    def coordinates(self, vec):
        """Coefficients of ``vec`` in this basis, or None if not a member."""
        v = [int(x) for x in vec]
        if len(v) != self.ambient_rank:
            raise ValueError("vector length does not match the ambient rank")
        coords = []
        for row in self.basis:
            p = next(j for j, a in enumerate(row) if a)
            c, rem = divmod(v[p], row[p])
            if rem:
                return None
            coords.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coords)

    def contains_vector(self, vec):
        return self.coordinates(vec) is not None

    def contains_lattice(self, other):
        if other.ambient_rank != self.ambient_rank:
            raise ValueError("ambient ranks differ")
        return all(self.contains_vector(row) for row in other.basis)


@dataclass(frozen=True)
class FiniteAbelianStructure:
    """Invariant factors d_1 | d_2 | ... (each >= 2) plus a free rank."""

    invariant_factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        factors = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")

    @property
    def torsion_order(self):
        return prod(self.invariant_factors)


# ---------------------------------------------------------------------------
# operations

def hermite_normal_form(rows, ambient_rank=None):
    """Canonical sublattice spanned by the given integer row vectors.

    >>> hermite_normal_form([(4, 6), (2, 2)]).basis
    ((2, 0), (0, 2))
    """
    rows = _as_int_rows(rows)
    if ambient_rank is None:
        if not rows:
            raise ValueError("cannot infer the ambient rank from no generators")
        ambient_rank = len(rows[0])
    if any(len(r) != ambient_rank for r in rows):
        raise ValueError("generator rows have unequal lengths")
    body, _ = _echelon(rows, ambient_rank)
    body = _reduce_above(body)
    return Sublattice(ambient_rank, tuple(tuple(r) for r in body))


def _coords_matrix(sup, sub):
    if sup.ambient_rank != sub.ambient_rank:
        raise ValueError("ambient ranks differ")
    coords = []
    for row in sub.basis:
        c = sup.coordinates(row)
        if c is None:
            raise ValueError(f"containment failure: {row} is not in the larger lattice")
        coords.append(c)
    return coords


def index(sup, sub):
    """Group index [sup : sub], or the string "infinite" on a rank drop."""
    coords = _coords_matrix(sup, sub)
    if sub.rank < sup.rank:
        return INFINITE
    body, _ = _echelon(coords, sup.rank)
    return prod(row[next(j for j, a in enumerate(row) if a)] for row in body)


def smith_invariants(sup, sub):
    """Structure of the quotient sup/sub as a finite-plus-free abelian group."""
    coords = _coords_matrix(sup, sub)
    diag = _smith_diagonal(coords, sup.rank)
    factors = tuple(d for d in diag if d != 1)
    return FiniteAbelianStructure(factors, sup.rank - sub.rank)


def _is_full(lat):
    """Is lat all of Z^d?  In Hermite normal form that means d pivots of 1."""
    return lat.rank == lat.ambient_rank and all(row[i] == 1 for i, row in enumerate(lat.basis))


def intersect(a, b):
    """Exact intersection of two sublattices of the same Z^d."""
    if a.ambient_rank != b.ambient_rank:
        raise ValueError("ambient ranks differ")
    d = a.ambient_rank
    if a.rank == 0 or b.rank == 0:
        return Sublattice.zero(d)
    if _is_full(a):
        return b
    if _is_full(b):
        return a
    stacked = list(a.basis) + list(b.basis)
    _, kernel = _echelon(stacked, d, track=True)
    gens = []
    for u in kernel:
        vec = [0] * d
        for c, row in zip(u[:a.rank], a.basis):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        gens.append(tuple(vec))
    return hermite_normal_form(gens, d)


def orthogonal_lattice(rows, d):
    """The sublattice {y in Z^d : row . y = 0 for every row}."""
    return hermite_normal_form(_right_kernel(rows, d), d)


def saturation(lat):
    """Largest sublattice with the same rational span: {y : k*y in lat, k > 0}."""
    d = lat.ambient_rank
    return orthogonal_lattice(_right_kernel(lat.basis, d), d)


def is_saturated(lat):
    """Is Z^d / lat free?  Exactly when every Smith invariant factor of the
    basis is 1, as it is when every pivot is 1."""
    if all(next(filter(None, row)) == 1 for row in lat.basis):
        return True
    return all(f == 1 for f in _smith_diagonal(lat.basis, lat.ambient_rank))


def rank(rows, d):
    """Rank of the span of integer vectors of length d, by one echelon pass."""
    return len(_echelon(rows, d)[0])


def fixed_sublattice(endomorphisms, ambient_rank=None):
    """Joint fixed lattice: the intersection over M of ker(M - I) in Z^d."""
    mats = [tuple(tuple(int(x) for x in row) for row in m) for m in endomorphisms]
    if ambient_rank is None:
        if not mats:
            raise ValueError("ambient rank is required when no endomorphisms are given")
        ambient_rank = len(mats[0])
    d = ambient_rank
    conditions = []
    for m in mats:
        if len(m) != d or any(len(row) != d for row in m):
            raise ValueError("endomorphisms must be square matrices of matching size")
        for i in range(d):
            conditions.append(tuple(m[i][j] - (i == j) for j in range(d)))
    return orthogonal_lattice(conditions, d)


def congruence_kernel(rows, modulus, ambient_rank):
    """The sublattice {y in Z^d : row . y = 0 mod modulus for every row}."""
    d = ambient_rank
    if modulus < 1:
        raise ValueError("modulus must be positive")
    rows = _as_int_rows(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("condition rows must have the ambient length")
    if not rows or modulus == 1:
        return Sublattice.full(d)
    m = len(rows)
    extended = [r + tuple(modulus * (i == k) for k in range(m))
                for i, r in enumerate(rows)]
    kernel = _right_kernel(extended, d + m)
    return hermite_normal_form([v[:d] for v in kernel], d)


def quotient_hnf(sup, sub):
    """Relation matrix of sub inside sup, as a square upper-triangular HNF.

    Requires the quotient to be finite (equal ranks).  The diagonal entries
    are the box sizes of the canonical fundamental domain of sup modulo sub.
    """
    coords = _coords_matrix(sup, sub)
    if sub.rank != sup.rank:
        raise ValueError("quotient is infinite: ranks differ")
    body, _ = _echelon(coords, sup.rank)
    body = _reduce_above(body)
    return tuple(tuple(r) for r in body)


def coset_representatives(sup, sub):
    """Canonical coset representatives of the finite quotient sup/sub.

    Returned as ambient vectors; the representative of 0 comes first.  A
    quotient of order above :data:`MAX_COSETS` raises
    :class:`ResourceLimitError` before any representative is built.
    """
    h = quotient_hnf(sup, sub)
    order = prod(h[i][i] for i in range(len(h)))
    if order > MAX_COSETS:
        raise ResourceLimitError(
            f"the quotient has {order} cosets, more than the coset guard {MAX_COSETS}")
    d = sup.ambient_rank
    reps = []
    for combo in _cartesian(*[range(h[i][i]) for i in range(len(h))]):
        vec = [0] * d
        for c, row in zip(combo, sup.basis):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        reps.append(tuple(vec))
    return tuple(reps)
