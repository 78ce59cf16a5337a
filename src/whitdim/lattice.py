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

Every elimination is one routine, ``_echelon``, and it has no modes.
Kernels, meets and congruence lattices are tails of one Hermite form: a block
matrix is echelonned over all of its columns, and its echelon rows that are
zero on the leading block, reduced above their pivots, are already the
Hermite form of the answer.  The cheaper questions take no more of the
routine than they need.  ``rank`` is one echelon pass without the
reduction above the pivots, ``is_saturated`` reads the Smith factors of the
basis (all 1 exactly when Z^d / lat is free, and at once when every pivot is
1) instead of computing the saturation, ``intersect`` returns the other
side when one side is Z^d, and ``congruence_index`` reads the index of
{c : c M = 0 mod n} off the Smith diagonal of M without building it.
"""

from __future__ import annotations

import operator
from itertools import product as _cartesian
from math import gcd, prod
from operator import mul

from ._frozen import Frozen
from .errors import ResourceLimitError

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


def _as_matrix(rows):
    return tuple([tuple(map(operator.index, row)) for row in rows])


# ---------------------------------------------------------------------------
# row reduction over Z

def _echelon(rows, width):
    """Unimodular row reduction to echelon form with positive pivots.

    Returns the nonzero echelon rows; their pivots increase strictly.
    """
    mat = [list(r) for r in rows]
    n = len(mat)
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
            live = [i for i in live if mat[i][col]]
        if not live:
            continue
        i0 = live[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-a for a in mat[pivot_row]]
        pivot_row += 1
    return mat[:pivot_row]


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


def _tail(block, m, d):
    """Hermite form of {x in Z^d : (0, x) in the span of the block rows}.

    Each block row has width m + d.  In an echelon basis the vectors of the
    span whose first m entries are 0 are spanned by exactly the rows whose
    pivot lies past column m, so their last d entries, reduced above their
    pivots, are the Hermite form of the answer.
    """
    body = [row[m:] for row in _echelon(block, m + d) if not any(row[:m])]
    return Sublattice(d, tuple(map(tuple, _reduce_above(body))))


def _kernel_block(rows, d):
    """The rows (column i of R | e_i), i < d, of the block whose span is
    {(R x, x)}, with the number m of rows of R."""
    rows = _as_matrix(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("condition rows must have the ambient length")
    cols = zip(*rows) if rows else [()] * d
    return len(rows), [col + (0,) * i + (1,) + (0,) * (d - 1 - i) for i, col in enumerate(cols)]


def _smith_diagonal(rows, ncols):
    """Diagonal d_1 | d_2 | ... of the Smith normal form (nonzero entries).

    Row echelon forms of the matrix and of its transpose alternate until only
    diagonal entries are nonzero.  Each pass replaces the leading pivot by a
    proper divisor or leaves it alone in its row and column, so by induction
    on the rest this ends.  Trading each pair (d_i, d_j), i < j, for its gcd
    and lcm then sorts the exponent of every prime into a divisibility chain.
    """
    body = _echelon(rows, ncols)
    while any(a and i != j for i, row in enumerate(body) for j, a in enumerate(row)):
        body = _echelon(transpose(body), len(body))
    diag = [row[i] for i, row in enumerate(body)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


# ---------------------------------------------------------------------------
# domain types

class Sublattice(Frozen):
    """A sublattice of Z^d, stored in canonical row Hermite normal form.

    The zero lattice has an empty basis; Z^d itself has the identity basis.
    Construct instances via :func:`hermite_normal_form` (or the ``zero`` /
    ``full`` classmethods); the constructor only accepts bases that are
    already canonical.
    """

    _fields = ("ambient_rank", "basis")

    def __init__(self, ambient_rank, basis):
        d = operator.index(ambient_rank)
        if d < 1:
            raise ValueError("ambient rank must be a positive integer")
        basis = _as_matrix(basis)
        for row in basis:
            if len(row) != d:
                raise ValueError("basis rows must all have the ambient length")
        # one pass over the rows: each pivot lies right of the last one,
        # is positive, and bounds the entries above it
        last = -1
        for k, row in enumerate(basis):
            if not any(row):
                raise ValueError("zero rows are not allowed in a canonical basis")
            if any(row[:last + 1]):
                raise ValueError("basis is not in echelon order")
            last += 1
            while not row[last]:
                last += 1
            pivot = row[last]
            if pivot < 0:
                raise ValueError("pivots must be positive")
            for above in basis[:k]:
                if not 0 <= above[last] < pivot:
                    raise ValueError("entries above a pivot must be reduced")
        self.__dict__.update(ambient_rank=d, basis=basis)

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
        v = list(map(operator.index, vec))
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


class FiniteAbelianStructure(Frozen):
    """Invariant factors d_1 | d_2 | ... (each >= 2) plus a free rank."""

    _fields = ("invariant_factors", "free_rank")

    def __init__(self, invariant_factors, free_rank):
        factors = tuple(map(operator.index, invariant_factors))
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        if any(factors[i + 1] % factors[i] for i in range(len(factors) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        free_rank = operator.index(free_rank)
        if free_rank < 0:
            raise ValueError("free rank must be non-negative")
        self.__dict__.update(invariant_factors=factors, free_rank=free_rank)


# ---------------------------------------------------------------------------
# operations

def hermite_normal_form(rows, ambient_rank=None):
    """Canonical sublattice spanned by the given integer row vectors.

    >>> hermite_normal_form([(4, 6), (2, 2)]).basis
    ((2, 0), (0, 2))
    """
    rows = _as_matrix(rows)
    if ambient_rank is None:
        if not rows:
            raise ValueError("cannot infer the ambient rank from no generators")
        ambient_rank = len(rows[0])
    if any(len(r) != ambient_rank for r in rows):
        raise ValueError("generator rows have unequal lengths")
    body = _reduce_above(_echelon(rows, ambient_rank))
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
    body = _echelon(coords, sup.rank)
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
    if _is_full(a):
        return b
    if _is_full(b):
        return a
    # the combination (x + y, x) of the rows (x | x) and (y | 0) starts with
    # zeros exactly when x = -y lies in both
    d = a.ambient_rank
    block = [x + x for x in a.basis] + [y + (0,) * d for y in b.basis]
    return _tail(block, d, d)


def orthogonal_lattice(rows, d):
    """The sublattice {y in Z^d : row . y = 0 for every row}."""
    m, block = _kernel_block(rows, d)
    return _tail(block, m, d)


def saturation(lat):
    """Largest sublattice with the same rational span: {y : k*y in lat, k > 0}."""
    d = lat.ambient_rank
    return orthogonal_lattice(orthogonal_lattice(lat.basis, d).basis, d)


def is_saturated(lat):
    """Is Z^d / lat free?  Exactly when every Smith invariant factor of the
    basis is 1, as it is when every pivot is 1."""
    if all(next(filter(None, row)) == 1 for row in lat.basis):
        return True
    return all(f == 1 for f in _smith_diagonal(lat.basis, lat.ambient_rank))


def rank(rows, d):
    """Rank of the span of integer vectors of length d, by one echelon pass."""
    rows = _as_matrix(rows)
    if any(len(r) != d for r in rows):
        raise ValueError("rows must have length d")
    return len(_echelon(rows, d))


def fixed_sublattice(endomorphisms, ambient_rank=None):
    """Joint fixed lattice: the intersection over M of ker(M - I) in Z^d."""
    mats = [_as_matrix(m) for m in endomorphisms]
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


def congruence_index(rows, modulus):
    """[Z^k : {c : c . rows = 0 mod modulus}] for k integer rows.

    With rows = U D V, U and V unimodular and D the Smith form, c . rows is
    0 mod n exactly when (c U) D is, so the index is the product of
    n / gcd(n, s) over the nonzero diagonal entries s of D (Newman,
    Integral Matrices, II).
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    rows = _as_matrix(rows)
    if not rows:
        return 1
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("rows have unequal lengths")
    return prod(modulus // gcd(modulus, s) for s in _smith_diagonal(rows, len(rows[0])))


def congruence_kernel(rows, modulus, ambient_rank):
    """The sublattice {y in Z^d : row . y = 0 mod modulus for every row}."""
    d = ambient_rank
    if modulus < 1:
        raise ValueError("modulus must be positive")
    m, block = _kernel_block(rows, d)
    if not m or modulus == 1:
        return Sublattice.full(d)
    # (A x + n z, x) starts with zeros exactly when A x = 0 mod n
    block += [tuple(modulus * (i == j) for i in range(m)) + (0,) * d for j in range(m)]
    return _tail(block, m, d)


def quotient_hnf(sup, sub):
    """Relation matrix of sub inside sup, as a square upper-triangular HNF.

    Requires the quotient to be finite (equal ranks).  The diagonal entries
    are the box sizes of the canonical fundamental domain of sup modulo sub.
    """
    coords = _coords_matrix(sup, sub)
    if sub.rank != sup.rank:
        raise ValueError("quotient is infinite: ranks differ")
    return tuple(tuple(r) for r in _reduce_above(_echelon(coords, sup.rank)))


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
