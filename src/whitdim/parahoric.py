"""Apartment points and the residual extensions attached to parahoric data.

A point x of the apartment lives in Y tensor R (with the hyperspecial base
point at zero) and is represented by exact rationals: its coordinates are
ints or Fractions, and any other entry, a float included, raises
TypeError.  The roots with integral value at x cut out the root datum of the
reductive quotient at x; the cover contributes one extra coordinate, sending
each such coroot to (coroot, root(x) * Q(coroot)) inside Y + Z.  Saturation
of the span of these extended coroots detects a simply-connected derived
subgroup, and an exact integer linear solve decides whether the extended
pairing is split.

Each root is evaluated at x once per point, in integers: x is read as integer
numerators over the least common denominator of its coordinates, and the
roots are paired with them by the datum's root columns.  The datum keeps a
record of the last point it was asked about: the roots integral there and
Lambda_x, the Hermite form of their coroots, built once and shared by every
cover on the datum.  A repeated point is recognised as the same object, or
by its numerators.  The integral roots at x are closed under negation, and
on validated data their coroots span a space of the same dimension, so
``is_vertex`` reads the rank of Lambda_x.  The cover keeps Q on the coroots
and the :class:`ResidualRootData` of the last point, which holds its lattice
of extended coroots: Lambda_x with B(h, x) appended to each basis row h; as
G alpha^vee = Q(alpha^vee) alpha on every root, B(alpha^vee, x) =
alpha(x) Q(alpha^vee), so no second echelon is needed.
``residual_derived_simply_connected`` reads its Smith factors and
``residual_splits`` solves over its rows.  Fractions appear only when a
point is parsed and in ``ApartmentPoint.coords``.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm

from ._frozen import Frozen
from .errors import MathConstraintError
from .lattice import (
    Sublattice,
    dot,
    hermite_normal_form,
    is_saturated,
    mat_vec,
    transpose,
)
from .root_datum import _pairings

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/(\d+))?$", re.ASCII)


def parse_rational(text):
    """Exact rational from the textual form 'p', '+p' or 'p/q'."""
    token = text.strip()
    match = _RATIONAL_RE.match(token)
    if not match or match[1] is not None and int(match[1]) == 0:
        raise ValueError(f"malformed rational {text!r}; expected e.g. '2' or '-1/3'")
    return Fraction(token)


class ApartmentPoint(Frozen):
    """A point of the apartment, as a vector of exact rationals in Y tensor R.

    Coordinates are ints or Fractions; any other entry, a float included,
    raises :class:`TypeError`.
    """

    _fields = ("coords",)

    def __init__(self, coords):
        coords = tuple(c if isinstance(c, Fraction) else Fraction(operator.index(c))
                       for c in coords)
        if not coords:
            raise ValueError("an apartment point needs at least one coordinate")
        self.__dict__.update(coords=coords)

    @classmethod
    def parse(cls, text):
        """Parse a comma-separated list of rationals, e.g. '1/2,-1/2'."""
        return cls(tuple(parse_rational(part) for part in text.split(",")))


class _PointRoots(Frozen):
    """The roots of a datum at a point x: ``x`` as the caller gave it, the
    coordinates as integer ``numerators`` over their least common
    ``denominator`` D, (index, root(x)) for each root integral at x, and
    Lambda_x, the Hermite form of the span of their coroots.  Frozen and
    hashable, like every value class."""

    _fields = ("x", "point", "denominator", "numerators", "integral", "coroot_span")


def _integral_roots(rd, x):
    """The :class:`_PointRoots` of x.

    A root is integral at x iff D divides its pairing with the numerators,
    taken by the datum's root columns over the nonzero numerators, and
    Frobenius fixes x iff it fixes the numerators (the identity is not
    checked).  The record of the last point that passed both checks is kept
    in the datum's instance dict, as ``cached_property`` keeps values.  A
    repeated point is recognised as the same :class:`ApartmentPoint` or the
    same coordinate tuple, or else by its numerators once x is coerced, so
    an entry that coercion refuses raises on every call.
    """
    last = rd.__dict__.get("_integral_roots")
    if last is not None and (x is last.point or x is last.x):
        return last
    point = x if isinstance(x, ApartmentPoint) else ApartmentPoint(tuple(x))
    if len(point.coords) != rd.rank:
        raise ValueError(
            f"point has {len(point.coords)} coordinates but the rank is {rd.rank}")
    den = lcm(*(c.denominator for c in point.coords))
    nums = tuple(c.numerator * (den // c.denominator) for c in point.coords)
    if last is not None and last.denominator == den and last.numerators == nums:
        return last
    if rd.fr.order != 1 and mat_vec(rd.fr.matrix, nums) != nums:
        raise MathConstraintError(
            "point is not fixed by Frobenius, so it does not lie in the rational apartment")
    pairings = enumerate(_pairings(rd._root_columns, nums) if rd.roots else ())
    integral = tuple((i, v // den) for i, v in pairings if v % den == 0)
    # (-alpha)^vee = -alpha^vee, so the positive integral coroots span them
    # all; when every root is integral, so do the simple coroots, of which
    # every coroot is an integer combination
    coroots, heights = rd.coroots, rd.heights
    if len(integral) == len(coroots):
        generators = [coroots[i] for i in rd.simple_indices]
    else:
        generators = [coroots[i] for i, _ in integral if heights[i] > 0]
    # a tuple is kept as the caller gave it; other containers could change
    span = hermite_normal_form(generators, rd.rank) if generators else Sublattice.zero(rd.rank)
    last = _PointRoots(x if type(x) is tuple else None, point, den, nums, integral, span)
    rd.__dict__["_integral_roots"] = last
    return last


def phi_x(rd, x):
    """Indices of the roots taking an integral value at x."""
    return tuple(i for i, _ in _integral_roots(rd, x).integral)


class ResidualRootData(Frozen):
    """Roots integral at x, with each coroot extended into Y + Z.

    ``iota[k]`` is the image of the coroot paired with root index
    ``phi_x[k]``: its first d coordinates are the coroot itself and the last
    coordinate is root(x) * Q(coroot).  ``lambda_lattice`` is the span of
    the extended coroots inside Z^(d+1).
    """

    _fields = ("point", "phi_x", "iota", "lambda_lattice")


def residual_extension(cover, x):
    """Extended coroot table at x: coroot -> (coroot, root(x) * Q(coroot)).

    The lattice is built with the table, once: y -> (y, B(y, x)) is linear,
    so the rows (h, B(h, x)) for h a basis row of Lambda_x span what the
    rows of iota span (see the module docstring), and their pivots lie in
    the first d coordinates, so they are in Hermite normal form as they
    stand.  The record of the last point asked about is kept in the cover's
    instance dict, so the residual functions at one point share it.
    """
    rd = cover.datum
    roots_at_x = _integral_roots(rd, x)
    last = cover.__dict__.get("_residual")
    if last is not None and last.point is roots_at_x.point:
        return last
    coroots, q = rd.coroots, cover.coroot_q
    integral = roots_at_x.integral
    iota = tuple([coroots[i] + (value * q[i],) for i, value in integral])
    # G (D x) for the common denominator D of x, so B(h, x) = h . G (D x) / D
    form_at_x = mat_vec(cover.form.gram, roots_at_x.numerators)
    rows = []
    for h in roots_at_x.coroot_span.basis:
        value, rest = divmod(dot(h, form_at_x), roots_at_x.denominator)
        if rest:
            raise RuntimeError(
                f"internal consistency: B({h}, x) is not an integer at {roots_at_x.point}")
        rows.append(h + (value,))
    last = ResidualRootData(roots_at_x.point, tuple([i for i, _ in integral]), iota,
                            Sublattice(rd.rank + 1, tuple(rows)))
    cover.__dict__["_residual"] = last
    return last


def is_hyperspecial(rd, x):
    """True iff every root is integral at x."""
    return len(phi_x(rd, x)) == len(rd.roots)


def is_vertex(rd, x):
    """True iff the roots integral at x span the full semisimple rank.  On
    validated data their coroots span a space of the same dimension, so this
    is the rank of Lambda_x, kept with the point."""
    return _integral_roots(rd, x).coroot_span.rank == rd.semisimple_rank


def residual_derived_simply_connected(cover, x):
    """True iff the span of the extended coroots is saturated in Z^(d+1)."""
    return is_saturated(residual_extension(cover, x).lambda_lattice)


def residual_splits(cover, x):
    """Whether coroot -> root(x) * Q(coroot) extends to a Frobenius-equivariant
    homomorphism Y -> Z (an exact integer linear solve).

    The equations coroot . k = root(x) * Q(coroot) are the rows of iota; the
    basis of the lambda lattice is those rows after unimodular row operations,
    so as equations it has the same integer solutions.
    """
    rd = cover.datum
    basis = residual_extension(cover, x).lambda_lattice.basis
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
