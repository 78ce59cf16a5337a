"""Apartment points and the residual extensions attached to parahoric data.

A point x of the apartment lives in Y tensor R (with the hyperspecial base
point at zero) and is represented by exact rationals.  The roots with
integral value at x cut out the root datum of the reductive quotient at x;
the cover contributes one extra coordinate, sending each such coroot to
(coroot, root(x) * Q(coroot)) inside Y + Z.  Saturation of the span of these
extended coroots detects a simply-connected derived subgroup, and an exact
integer linear solve decides whether the extended pairing is split.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import MathConstraintError
from .lattice import Sublattice, hermite_normal_form, is_saturated, mat_vec, transpose
from .root_datum import identity_matrix

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text):
    """Exact rational from the textual form 'p', '+p' or 'p/q'."""
    token = text.strip()
    if not _RATIONAL_RE.match(token) or token.endswith("/0"):
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

    @classmethod
    def origin(cls, d):
        return cls((Fraction(0),) * d)


def _coerce_point(x, d):
    point = x if isinstance(x, ApartmentPoint) else ApartmentPoint(tuple(x))
    if len(point.coords) != d:
        raise ValueError("point dimension does not match the root datum rank")
    return point


def _check_fr_fixed(rd, point):
    if mat_vec(rd.fr.matrix, point.coords) != point.coords:
        raise MathConstraintError(
            "point is not fixed by Frobenius, so it does not lie in the rational apartment")


def root_value(root, point):
    """Exact value of a root (an X-covector) at an apartment point."""
    return sum(Fraction(a) * c for a, c in zip(root, point.coords))


def phi_x(rd, x):
    """Indices of the roots taking an integral value at x."""
    point = _coerce_point(x, rd.rank)
    _check_fr_fixed(rd, point)
    return tuple(i for i, root in enumerate(rd.roots)
                 if root_value(root, point).denominator == 1)


@dataclass(frozen=True)
class ResidualRootData:
    """Roots integral at x, with each coroot extended into Y + Z.

    ``iota[k]`` is the image of the coroot paired with root index
    ``phi_x[k]``: its first d coordinates are the coroot itself and the last
    coordinate is root(x) * Q(coroot).
    """

    point: ApartmentPoint
    phi_x: tuple
    iota: tuple

    def lambda_lattice(self):
        """Span of the extended coroots inside Z^(d+1)."""
        ambient = len(self.point.coords) + 1
        if not self.iota:
            return Sublattice.zero(ambient)
        return hermite_normal_form(self.iota, ambient)


def residual_extension(cover, x):
    """Extended coroot table at x: coroot -> (coroot, root(x) * Q(coroot))."""
    rd = cover.datum
    point = _coerce_point(x, rd.rank)
    indices = phi_x(rd, point)
    iota = []
    for i in indices:
        value = root_value(rd.roots[i], point)
        coroot = rd.coroots[i]
        iota.append(coroot + (int(value) * cover.form.q_value(coroot),))
    return ResidualRootData(point, indices, tuple(iota))


def _span_rank(vectors, d):
    if not vectors:
        return 0
    return hermite_normal_form(vectors, d).rank


def is_hyperspecial(rd, x):
    """True iff every root is integral at x."""
    return len(phi_x(rd, x)) == len(rd.roots)


def is_vertex(rd, x):
    """True iff the roots integral at x span the full semisimple rank."""
    indices = phi_x(rd, x)
    full = _span_rank(rd.roots, rd.rank)
    return _span_rank([rd.roots[i] for i in indices], rd.rank) == full


def residual_derived_simply_connected(cover, x):
    """True iff the span of the extended coroots is saturated in Z^(d+1)."""
    return is_saturated(residual_extension(cover, x).lambda_lattice())


def residual_splits(cover, x):
    """Whether coroot -> root(x) * Q(coroot) extends to a Frobenius-equivariant
    homomorphism Y -> Z (an exact integer linear solve)."""
    rd = cover.datum
    iota = residual_extension(cover, x).iota
    rows = [v[:-1] for v in iota]
    rhs = [v[-1] for v in iota]
    f = rd.fr.matrix
    if f != identity_matrix(rd.rank):
        ft = transpose(f)
        for i in range(rd.rank):
            rows.append(tuple(ft[i][j] - (i == j) for j in range(rd.rank)))
            rhs.append(0)
    if not rows:
        return True
    # solvability of rows . k = rhs over Z: rhs must lie in the column lattice
    columns = transpose(rows)
    return hermite_normal_form(columns, len(rows)).contains_vector(rhs)


# ---------------------------------------------------------------------------
# conductors of generic characters

@dataclass(frozen=True)
class ConductorVector:
    """One integer per simple relative root (per Frobenius orbit of simples)."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))


def relative_simple_orbits(rd):
    """Frobenius orbits on the simple roots, each sorted, ordered by least member."""
    f = rd.fr.matrix
    coroot_to_simple = {rd.coroots[i]: i for i in rd.simple_indices}
    remaining = set(rd.simple_indices)
    orbits = []
    while remaining:
        start = min(remaining)
        orbit = []
        i = start
        while i in remaining:
            remaining.remove(i)
            orbit.append(i)
            i = coroot_to_simple[mat_vec(f, rd.coroots[i])]
        orbits.append(tuple(sorted(orbit)))
    return tuple(sorted(orbits))


def conductor_shift(c, t_valuations):
    """Shift a conductor vector componentwise by the valuations val(root(t))."""
    shifts = tuple(int(v) for v in t_valuations)
    if len(shifts) != len(c.values):
        raise ValueError("one valuation per simple relative root is required")
    return ConductorVector(tuple(a + b for a, b in zip(c.values, shifts)))


def hyperspecial_conductors(rd, x):
    """The unique conductor vector supported at a hyperspecial x: root(x) + 1
    on each simple relative root."""
    point = _coerce_point(x, rd.rank)
    if not is_hyperspecial(rd, point):
        raise MathConstraintError("conductor target is only defined at hyperspecial points")
    values = []
    for orbit in relative_simple_orbits(rd):
        vals = {root_value(rd.roots[i], point) for i in orbit}
        if len(vals) != 1:
            raise MathConstraintError(
                "root values are not constant on a Frobenius orbit; point is not rational")
        values.append(int(next(iter(vals))) + 1)
    return ConductorVector(tuple(values))
