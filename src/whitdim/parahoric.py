"""Apartment points and the residual extensions attached to parahoric data.

A point x of the apartment lives in Y tensor R (with the hyperspecial base
point at zero) and is represented by exact rationals.  The roots with
integral value at x cut out the root datum of the reductive quotient at x;
the cover contributes one extra coordinate, sending each such coroot to
(coroot, root(x) * Q(coroot)) inside Y + Z.  Saturation of the span of these
extended coroots detects a simply-connected derived subgroup, and an exact
integer linear solve decides whether the extended pairing is split.

Each root is evaluated at x once per point, in integers: x is read as integer
numerators over the least common denominator of its coordinates, and the
datum keeps the roots integral at the last point it was asked about, so
``phi_x``, the flags and the residual functions at one point share one
evaluation.  A repeated point is recognised before it is coerced.  Q on the
coroots is kept on the cover, and so is the :class:`ResidualRootData` of the
last point, which builds the Hermite form of its extended coroots once:
``residual_derived_simply_connected`` reads its Smith factors and
``residual_splits`` solves over its rows.  The integral roots at x are
closed under negation: (-alpha)(x) = -alpha(x), and validation makes
(-alpha, -alpha^vee) a pair.  So ``is_vertex`` ranks only the positive ones,
and the rows of the positive roots span the lattice, each in one echelon
pass.  Fractions appear only when a point is parsed and in
``ApartmentPoint.coords``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import MathConstraintError
from .lattice import (
    Sublattice,
    dot,
    hermite_normal_form,
    is_saturated,
    mat_vec,
    rank,
    transpose,
)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/(\d+))?$")


def parse_rational(text):
    """Exact rational from the textual form 'p', '+p' or 'p/q'."""
    token = text.strip()
    match = _RATIONAL_RE.match(token)
    if not match or match[1] is not None and int(match[1]) == 0:
        raise ValueError(f"malformed rational {text!r}; expected e.g. '2' or '-1/3'")
    return Fraction(token)


@dataclass(frozen=True)
class ApartmentPoint:
    """A point of the apartment, as a vector of exact rationals in Y tensor R."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if not coords:
            raise ValueError("an apartment point needs at least one coordinate")

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated list of rationals, e.g. '1/2,-1/2'."""
        return cls(tuple(parse_rational(part) for part in text.split(",")))


def _integral_roots(rd, x):
    """The point x and, for each root integral at x, the pair (index, root(x)).

    With the coordinates of x written as integer numerators over their least
    common denominator D > 0, a root is integral at x iff D divides its
    pairing with the numerators, and Frobenius fixes x iff it fixes the
    numerators.  The answer for the last point that passed both checks is
    kept in the datum's instance dict, as ``cached_property`` keeps values.
    x is compared with that point before it is coerced: equal coordinates
    coerce to that point, and a point that fails a check never equals it, so
    such a point raises on every call.
    """
    coords = x.coords if isinstance(x, ApartmentPoint) else tuple(x)
    last = rd.__dict__.get("_integral_roots")
    if last is not None and last[0].coords == coords:
        return last
    point = x if isinstance(x, ApartmentPoint) else ApartmentPoint(coords)
    if len(point.coords) != rd.rank:
        raise ValueError(
            f"point has {len(point.coords)} coordinates but the rank is {rd.rank}")
    den = lcm(*(c.denominator for c in point.coords))
    nums = tuple(c.numerator * (den // c.denominator) for c in point.coords)
    if mat_vec(rd.fr.matrix, nums) != nums:
        raise MathConstraintError(
            "point is not fixed by Frobenius, so it does not lie in the rational apartment")
    pairings = ((i, dot(root, nums)) for i, root in enumerate(rd.roots))
    last = point, tuple((i, v // den) for i, v in pairings if v % den == 0)
    rd.__dict__["_integral_roots"] = last
    return last


def phi_x(rd, x):
    """Indices of the roots taking an integral value at x."""
    return tuple(i for i, _ in _integral_roots(rd, x)[1])


@dataclass(frozen=True)
class ResidualRootData:
    """Roots integral at x, with each coroot extended into Y + Z.

    ``iota[k]`` is the image of the coroot paired with root index
    ``phi_x[k]``: its first d coordinates are the coroot itself and the last
    coordinate is root(x) * Q(coroot).  ``positive`` lists the rows of iota
    of the positive roots: iota(-alpha) = -iota(alpha), so they span what
    iota spans.
    """

    point: ApartmentPoint
    phi_x: tuple
    iota: tuple
    positive: tuple

    @cached_property
    def _lambda(self):
        ambient = len(self.point.coords) + 1
        if not self.positive:
            return Sublattice.zero(ambient)
        return hermite_normal_form(self.positive, ambient)

    def lambda_lattice(self):
        """Span of the extended coroots inside Z^(d+1), built once per record."""
        return self._lambda


def residual_extension(cover, x):
    """Extended coroot table at x: coroot -> (coroot, root(x) * Q(coroot)).

    The record of the last point asked about is kept in the cover's instance
    dict, so the residual functions at one point share it and its lattice.
    """
    point, integral = _integral_roots(cover.datum, x)
    last = cover.__dict__.get("_residual")
    if last is not None and last.point == point:
        return last
    rd, q = cover.datum, cover.coroot_q
    coroots, heights = rd.coroots, rd.heights
    iota = tuple([coroots[i] + (value * q[i],) for i, value in integral])
    positive = tuple([row for row, (i, _) in zip(iota, integral) if heights[i] > 0])
    last = ResidualRootData(point, tuple([i for i, _ in integral]), iota, positive)
    cover.__dict__["_residual"] = last
    return last


def is_hyperspecial(rd, x):
    """True iff every root is integral at x."""
    return len(phi_x(rd, x)) == len(rd.roots)


def is_vertex(rd, x):
    """True iff the roots integral at x span the full semisimple rank.  They
    are closed under negation, so the positive ones are ranked."""
    heights = rd.heights
    positive = [rd.roots[i] for i in phi_x(rd, x) if heights[i] > 0]
    return rank(positive, rd.rank) == rd.semisimple_rank


def residual_derived_simply_connected(cover, x):
    """True iff the span of the extended coroots is saturated in Z^(d+1)."""
    return is_saturated(residual_extension(cover, x).lambda_lattice())


def residual_splits(cover, x):
    """Whether coroot -> root(x) * Q(coroot) extends to a Frobenius-equivariant
    homomorphism Y -> Z (an exact integer linear solve).

    The equations coroot . k = root(x) * Q(coroot) are the rows of iota; the
    basis of the lambda lattice is those rows after unimodular row operations,
    so as equations it has the same integer solutions.
    """
    rd = cover.datum
    basis = residual_extension(cover, x).lambda_lattice().basis
    rows = [v[:-1] for v in basis]
    rhs = [v[-1] for v in basis]
    if not any(rhs):
        return True  # k = 0
    if rd.fr.order == 1:
        # rows in echelon form with every pivot 1 are solved by back
        # substitution for any right side
        if all(next(filter(None, row), 0) == 1 for row in rows):
            return True
    else:
        ft = transpose(rd.fr.matrix)
        for i in range(rd.rank):
            rows.append(tuple(ft[i][j] - (i == j) for j in range(rd.rank)))
            rhs.append(0)
    # solvability of rows . k = rhs over Z: rhs must lie in the column lattice
    columns = transpose(rows)
    return hermite_normal_form(columns, len(rows)).contains_vector(rhs)
