"""Dual-side torus parameters and Whittaker-dimension computations.

Characters of twisted finite tori are represented entirely on the dual side,
as exact rational exponent vectors taken mod 1 (entry i is the coefficient of
the i-th dual basis covector).  A parameter carries the twisting Weyl element
w and satisfies q * theta = (w Fr)^T theta mod 1; the contribution of the
extension's central coordinate is stored but inert, since the Weyl group acts
trivially on it.

Three independent routes compute the same dimension for covers of GL_r:

* the congruence solved by one modular inverse per power of q
  (`wh_dim_glr_closed`),
* a literal root-of-unity scan in exact rationals (`wh_dim_oracle`),
* a Weyl-orbit search over coset representatives of the invariant lattice
  (`y_x_rho`), which also works for arbitrary root data.

Each route decides general position on its own, as it computes.

Internally the orbit search runs over integers modulo a common denominator;
this is an implementation detail, all comparisons stay exact.  It reads the
Weyl group (shared by every datum of equal value), the invariant lattice and
its coset representatives from the cover, which keeps them for its own
lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cover import _prime_power_base, m_qr
from .errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from .lattice import (
    congruence_kernel,
    fixed_sublattice,
    hermite_normal_form,
    index,
    intersect,
    mat_mul,
    mat_vec,
)
from .root_datum import simple_reflections


@dataclass(frozen=True)
class GLrCharacter:
    """A character of the degree-r unramified torus over F_q, as an exponent
    a against the canonical primitive (q^r - 1)-th root."""

    r: int
    q: int
    a: int

    def __post_init__(self):
        if self.r < 1 or self.q < 2:
            raise ValueError("need r >= 1 and q >= 2")
        if not 0 <= self.a < self.q ** self.r - 1:
            raise ValueError(f"exponent a must lie in [0, q^r - 1) = [0, {self.q ** self.r - 1})")


@dataclass(frozen=True)
class LusztigParameter:
    """Twisting Weyl element w (a matrix on Y) and dual exponents mod 1.

    ``central_exponent`` records the coordinate along the extension's extra
    summand; it is fixed by genuineness, the Weyl group acts trivially on it,
    and it never enters conjugacy tests.
    """

    w: tuple
    theta: tuple
    central_exponent: Fraction = Fraction(0)

    def __post_init__(self):
        w = tuple(tuple(int(x) for x in row) for row in self.w)
        theta = tuple(Fraction(t) % 1 for t in self.theta)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "central_exponent", Fraction(self.central_exponent) % 1)
        d = len(theta)
        if len(w) != d or any(len(row) != d for row in w):
            raise ValueError("w must be a square matrix matching the length of theta")


# ---------------------------------------------------------------------------
# validation and the Weyl-orbit pass

def _int_context(cover, param):
    """Validate a parameter against a cover; exponents as integers mod D."""
    datum = cover.datum
    d = datum.rank
    if len(param.theta) != d:
        raise ValueError("parameter dimension does not match the cover")
    group = cover._weyl_group
    if param.w not in group:
        raise MathConstraintError("w is not an element of the Weyl group")
    p = cover.p
    for t in param.theta + (param.central_exponent,):
        if gcd(t.denominator, p) != 1:
            raise MathConstraintError(
                f"exponent denominators must be coprime to the residue characteristic {p}")
    if (cover.q - 1) % param.central_exponent.denominator:
        raise MathConstraintError("central exponent is not annihilated by q - 1")
    denom = lcm(cover.n, *(t.denominator for t in param.theta))
    tnum = tuple(t.numerator * (denom // t.denominator) % denom for t in param.theta)
    # (w Fr)^T theta = Fr^T (w^T theta)
    w, f = param.w, datum.fr.matrix
    wt = [sum(w[j][i] * tnum[j] for j in range(d)) for i in range(d)]
    for i in range(d):
        if (cover.q * tnum[i] - sum(f[j][i] * wt[j] for j in range(d))) % denom:
            raise MathConstraintError(
                "q * theta = (w Fr)^T theta mod 1 fails: not a character of the twisted torus")
    return group, denom, tnum


def _orbit_pass(cover, param):
    """(D, theta mod D, Weyl orbit of theta mod D) for a valid parameter; the
    orbit is None when theta is not in general position, that is when a
    nonidentity Weyl element commuting with w Fr fixes it."""
    group, denom, tnum = _int_context(cover, param)
    images = [tuple(sum(a * t for a, t in zip(row, tnum)) % denom for row in mt)
              for mt in group.x_action]
    orbit = set(images)
    if len(orbit) < group.order:
        # theta has a nontrivial stabilizer in W (the identity comes first)
        wf = mat_mul(param.w, cover.fr.matrix)
        for m, image in zip(group.elements[1:], images[1:]):
            if image == tnum and mat_mul(wf, m) == mat_mul(m, wf):
                return denom, tnum, None
    return denom, tnum, orbit


# ---------------------------------------------------------------------------
# operations

def xi_of(cover, y):
    """The twisting exponent vector (gram . y) / n mod 1, for invariant y."""
    vec = tuple(int(v) for v in y)
    if not cover._invariant_lattices[0].contains_vector(vec):
        raise MathConstraintError("y is not fixed by the Weyl group and Frobenius")
    return tuple(Fraction(c, cover.n) % 1 for c in mat_vec(cover.form.gram, vec))


def glr_coxeter_parameter(r, q, a, n=None):
    """Parameter of the exponent-a character on the Coxeter torus of GL_r.

    w is the full cycle and theta_i = a * q^(i-1) / (q^r - 1) mod 1.  When the
    cover degree n is supplied, the central exponent is pinned to 1/n.
    """
    GLrCharacter(r, q, a)
    modulus = q ** r - 1
    w = tuple(tuple(1 if i == (j + 1) % r else 0 for j in range(r)) for i in range(r))
    nums = [a * pow(q, i, modulus) % modulus for i in range(r)]
    theta = tuple(Fraction(v, modulus) for v in nums)
    central = Fraction(1, n) if n else Fraction(0)
    if any((q * nums[i] - nums[(i + 1) % r]) % modulus for i in range(r)):
        raise RuntimeError("internal consistency: theta is not fixed by q times the Coxeter twist")
    return LusztigParameter(w, theta, central)


def is_general_position(param, cover=None):
    """No nontrivial twisted-Frobenius-fixed Weyl element fixes the parameter.

    For a :class:`GLrCharacter` this is the congruence test
    a * (q^s - 1) != 0 mod q^r - 1 for 0 < s < r; a :class:`LusztigParameter`
    requires the cover and runs the stabilizer test.  The two agree on
    Coxeter-torus inputs for GL_r; for twisting elements beyond those the
    stabilizer test is the definition used throughout this package.
    """
    if isinstance(param, GLrCharacter):
        modulus = param.q ** param.r - 1
        return all(param.a * (param.q ** s - 1) % modulus
                   for s in range(1, param.r))
    if cover is None:
        raise ValueError("testing a LusztigParameter requires the cover")
    return _orbit_pass(cover, param)[2] is not None


def y_x_rho(cover, param):
    """The sublattice of invariant cocharacters whose twist fixes the
    parameter's geometric conjugacy class, plus its index.

    Enumerates the finite quotient of Y^{W x Fr} by its meet with Y_{Q,n} and
    keeps the cosets y whose twisted parameter theta + xi_y stays in the Weyl
    orbit of theta.  The passing set must form a subgroup of the quotient;
    anything else signals an internal inconsistency.
    """
    denom, tnum, orbit = _orbit_pass(cover, param)
    if orbit is None:
        raise GeneralPositionError("parameter is not in general position")
    lat, sub = cover._invariant_lattices
    cosets = cover._cosets
    scale = denom // cover.n
    passing = [rep for rep, twist in cosets
               if tuple((t + scale * c) % denom for t, c in zip(tnum, twist)) in orbit]

    total = len(cosets)
    # the zero coset comes first
    if not passing or any(passing[0]):
        raise RuntimeError("internal consistency: the trivial coset did not pass")
    if total % len(passing):
        raise RuntimeError("internal consistency: subgroup size does not divide the quotient")
    idx = total // len(passing)

    # the passing cosets generate a subgroup of order total / index(lat, lattice),
    # so the index matches exactly when they already form a subgroup
    lattice = hermite_normal_form(list(sub.basis) + passing, cover.rank)
    if index(lat, lattice) != idx:
        raise RuntimeError(
            "internal consistency: passing cosets do not form a subgroup (lattice index mismatch)")
    return lattice, idx


def _check_glr_dim_args(r, q, n, a):
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    if n < 1 or (q - 1) % n:
        raise MathConstraintError(f"cover degree n = {n} must divide q - 1 = {q - 1}")
    GLrCharacter(r, q, a)


class _GLrSolver:
    """The congruence m * k * (q^r - 1)/n = b mod q^r - 1 of one GL_r cover,
    solved for the least k > 0 by a modular inverse.

    With M = q^r - 1 and g = gcd(n, m), the coefficient m * M/n has
    gcd(m * M/n, M) = (M/n) * g =: unit, so a right side b is reachable iff
    unit | b, and then k = (b / unit) * (m/g)^-1 mod n/g (0 read as n/g).
    b = 0 (s = 0) always gives k = n/g, which bounds the dimension; b = 0 at
    some s >= 1 means a is not in general position.
    """

    __slots__ = ("modulus", "bound", "unit", "inverse", "coefficient", "q_powers")

    def __init__(self, r, q, n, m):
        self.modulus = modulus = q ** r - 1
        g = gcd(n, m)
        self.bound = bound = n // g
        self.unit = modulus // n * g
        self.inverse = pow(m // g, -1, bound)
        self.coefficient = m * (modulus // n)
        #: q^s mod M for 0 < s < r
        self.q_powers = [pow(q, s, modulus) for s in range(1, r)]

    def dimension(self, a):
        """Least k over 0 <= s < r for the right sides a * (q^s - 1)."""
        modulus, unit, bound = self.modulus, self.unit, self.bound
        best, rhs = bound, 0
        for qs in self.q_powers:
            b = a * (qs - 1) % modulus
            if b == 0:
                raise GeneralPositionError(
                    f"a = {a} is not in general position mod q^r - 1 = {modulus}")
            if b % unit == 0:
                k = b // unit * self.inverse % bound or bound
                if k < best:
                    best, rhs = k, b
        if (self.coefficient * best - rhs) % modulus:
            raise RuntimeError(
                f"internal consistency: k = {best} does not solve the congruence for a = {a}")
        return best


def wh_dim_glr_closed(r, q, n, bold_p, bold_q, a):
    """Whittaker dimension for the exponent-a cuspidal datum on a GL_r cover.

    Smallest k > 0 with m * k * (q^r - 1)/n = a * (q^s - 1) mod q^r - 1 for
    some 0 <= s < r, where m = 2*bold_p + (r-1)*bold_q.  The minimum is at
    most (and divides) n / gcd(n, m); each s is solved by a modular inverse.
    Raises :class:`GeneralPositionError` if a * (q^s - 1) = 0 for some s > 0.
    """
    _check_glr_dim_args(r, q, n, a)
    return _GLrSolver(r, q, n, m_qr(r, bold_p, bold_q)).dimension(a)


def wh_dim_oracle(r, q, n, bold_p, bold_q, a):
    """Independent brute-force scan of the same minimum, in exact rationals.

    Tests e^(2 pi i m k / n) * theta_1 = theta_1^(q^s) literally, as equality
    of rationals mod 1, for k = 1, 2, ... up to a hard stop at n.  A zero
    target at some s > 0 means a is not in general position.
    """
    _check_glr_dim_args(r, q, n, a)
    m = m_qr(r, bold_p, bold_q)
    modulus = q ** r - 1
    theta1 = Fraction(a, modulus)
    targets = {(q ** s * theta1 - theta1) % 1 for s in range(1, r)}
    if 0 in targets:
        raise GeneralPositionError(
            f"a = {a} is not in general position mod q^r - 1 = {modulus}")
    targets.add(0)
    for k in range(1, n + 1):
        if Fraction(m * k, n) % 1 in targets:
            return k
    raise RuntimeError(
        "scan exhausted: no k <= n satisfied the congruence, which is impossible "
        "for a valid input and signals an implementation bug")


def squeeze_bounds(cover):
    """Divisor and multiple bounds for the dimension, as a pair (lower, upper).

    upper = [L : L meet Y_{Q,n}] and lower = [L : {y in L : B(y, y') in nZ
    for all y' in Y^W}], with L = Y^{W x Fr}; lower always divides upper.
    """
    datum = cover.datum
    d = datum.rank
    lat, meet = cover._invariant_lattices
    upper = index(lat, meet)
    weyl_fixed = fixed_sublattice(simple_reflections(datum), d)
    rows = [mat_vec(cover.form.gram, b) for b in weyl_fixed.basis]
    mid = intersect(lat, congruence_kernel(rows, cover.n, d))
    lower = index(lat, mid)
    return lower, upper


def enumerate_glr_table(r, q, n, bold_p, bold_q, max_order=10 ** 6):
    """Dimensions across all general-position classes of a GL_r cover.

    Groups exponents a by the geometric-conjugacy orbit a -> a*q mod q^r - 1
    (smallest member is the class representative) and returns
    (rows, histogram): rows are (representative, class size, dimension)
    triples in increasing representative order, histogram maps each dimension
    to its number of classes.  q must be a prime power, as for a cover.
    """
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    modulus = q ** r - 1
    if modulus > max_order:
        raise ResourceLimitError(
            f"q^r - 1 = {modulus} exceeds the enumeration bound {max_order}")
    _prime_power_base(q)
    if n < 1 or (q - 1) % n:
        raise MathConstraintError(f"cover degree n = {n} must divide q - 1 = {q - 1}")
    solver = _GLrSolver(r, q, n, m_qr(r, bold_p, bold_q))
    q_powers = solver.q_powers
    rows = []
    histogram = {}
    for a in range(modulus):
        # an image a * q^s equal to a breaks general position, a smaller one
        # means a is not the orbit minimum; otherwise the orbit has exactly
        # r members
        if any(a * qs % modulus <= a for qs in q_powers):
            continue
        dim = solver.dimension(a)
        rows.append((a, r, dim))
        histogram[dim] = histogram.get(dim, 0) + 1
    return tuple(rows), dict(sorted(histogram.items()))
