"""Dual-side torus parameters and Whittaker-dimension computations.

Characters of twisted finite tori are represented entirely on the dual side,
as exponent vectors taken mod 1 (entry i is the coefficient of the i-th dual
basis covector), held as integer numerators over one denominator D.  A
parameter carries the twisting Weyl element w and satisfies
q * theta = (w Fr)^T theta mod 1; the contribution of the extension's central
coordinate is stored but inert, since the Weyl group acts trivially on it.
Rationals appear only at the API boundary: `LusztigParameter.from_theta`
reads them and the `theta` property returns them.

Three independent routes compute the same dimension for covers of GL_r:

* the congruence solved by one modular inverse per power of q
  (`wh_dim_glr_closed`),
* a literal scan of k, each step an exact rational equality tested by
  cross-multiplication (`wh_dim_oracle`), sharing no helper with the closed
  form,
* a Weyl-orbit search over coset representatives of the invariant lattice
  (`y_x_rho`), which also works for arbitrary root data.

Each route decides general position on its own, as it computes.  Only the
orbit search touches W, through one method of the cover's Weyl group,
``orbit(v, D, w, Fr)``: a test for the W-orbit of the numerators v mod D,
or None when theta is not in general position, that is when an element
other than the identity fixes v and commutes with w Fr.  On
block-permutation data (each simple reflection swaps two coordinates: GL_r,
tori, roots +-(e_i - e_j)) W is held as its blocks: vectors share an orbit
exactly when they agree after sorting within each block, and theta is in
general position exactly when its entries are distinct within each block.
Other data map theta by every element of W, enumerated once, and search
the stabilizer for an element commuting with w Fr.  Resource guards raise
:class:`ResourceLimitError` before any enumeration: |W| above 40,320
(computed from the root heights), GL_r with r above 16, more than 100,000
cosets for the orbit search, an oracle scan of more than 100,000 steps, and
a table with q^r - 1 above 10^6.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .cover import _check_q_and_degree, m_qr
from .errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from .lattice import (
    congruence_kernel,
    hermite_normal_form,
    index,
    intersect,
    mat_vec,
)
from .root_datum import check_glr_rank, weyl_fixed_lattice

#: Longest scan of :func:`wh_dim_oracle`, n/gcd(n, m) steps of exact equality tests.
MAX_ORACLE_SCAN = 100_000
#: Largest q^r - 1 whose exponents :func:`enumerate_glr_table` runs through.
MAX_TABLE_ORDER = 10 ** 6


@dataclass(frozen=True)
class LusztigParameter:
    """Twisting Weyl element w (a matrix on Y) and dual exponents mod 1,
    theta_i = numerators[i] / denominator; central / denominator is the
    coordinate along the extension's extra summand, fixed by genuineness,
    inert under W and never in conjugacy tests.  The entries are reduced mod
    the denominator and all are divided by their gcd, so equal parameters
    compare and hash equal.
    """

    w: tuple
    denominator: int
    numerators: tuple
    central: int = 0

    def __post_init__(self):
        w = tuple([tuple(map(operator.index, row)) for row in self.w])
        denom = operator.index(self.denominator)
        if denom < 1:
            raise ValueError("the denominator must be a positive integer")
        nums = tuple([operator.index(x) % denom for x in self.numerators])
        central = operator.index(self.central) % denom
        g = gcd(denom, central, *nums)
        if g != 1:
            denom //= g
            nums = tuple([x // g for x in nums])
            central //= g
        setattr_ = object.__setattr__
        setattr_(self, "w", w)
        setattr_(self, "denominator", denom)
        setattr_(self, "numerators", nums)
        setattr_(self, "central", central)
        d = len(nums)
        if len(w) != d or any(len(row) != d for row in w):
            raise ValueError("w must be a square matrix matching the length of theta")

    @classmethod
    def from_theta(cls, w, theta, central_exponent=0):
        """The parameter with exact rational exponents, taken mod 1."""
        entries = [Fraction(t) for t in (*theta, central_exponent)]
        denom = lcm(*(t.denominator for t in entries))
        *nums, central = (int(t * denom) for t in entries)
        return cls(w, denom, tuple(nums), central)

    @property
    def theta(self):
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def central_exponent(self):
        return Fraction(self.central, self.denominator)


# ---------------------------------------------------------------------------
# validation and the Weyl-orbit pass

def _orbit_pass(cover, param):
    """Validate a parameter against a cover; (D, theta mod D, orbit test)
    with D = lcm(n, denominator).  The test tells whether a list mod D lies in
    the Weyl orbit of theta; it is None when theta is not in general
    position: a nonidentity Weyl element commuting with w Fr fixes it."""
    datum = cover.datum
    d = datum.rank
    if len(param.numerators) != d:
        raise ValueError("parameter dimension does not match the cover")
    if param.w not in cover._weyl:
        raise MathConstraintError("w is not an element of the Weyl group")
    # the reduced denominator is the lcm of the denominators of the entries
    if gcd(param.denominator, cover.p) != 1:
        raise MathConstraintError(
            f"exponent denominators must be coprime to the residue characteristic {cover.p}")
    if param.central * (cover.q - 1) % param.denominator:
        raise MathConstraintError("central exponent is not annihilated by q - 1")
    denom = lcm(cover.n, param.denominator)
    tnum = tuple(x * (denom // param.denominator) for x in param.numerators)
    # (w Fr)^T theta = Fr^T (w^T theta), by column sums; the identity
    # Frobenius (order 1) leaves w^T theta as it is
    w, f = param.w, datum.fr.matrix
    image = [sum(map(operator.mul, col, tnum)) for col in zip(*w)]
    if datum.fr.order != 1:
        image = [sum(map(operator.mul, col, image)) for col in zip(*f)]
    q = cover.q
    if any((q * t - s) % denom for t, s in zip(tnum, image)):
        raise MathConstraintError(
            "q * theta = (w Fr)^T theta mod 1 fails: not a character of the twisted torus")
    return denom, tnum, cover._weyl.orbit(tnum, denom, w, f)


# ---------------------------------------------------------------------------
# operations

def xi_of(cover, y):
    """The twisting exponent vector (gram . y) / n mod 1, for invariant y."""
    vec = tuple(map(operator.index, y))
    if not cover._invariant_lattices[0].contains_vector(vec):
        raise MathConstraintError("y is not fixed by the Weyl group and Frobenius")
    return tuple(Fraction(c, cover.n) % 1 for c in mat_vec(cover.form.gram, vec))


def glr_coxeter_parameter(r, q, a, n=1):
    """Parameter of the exponent-a character on the Coxeter torus of GL_r.

    w is the full cycle and theta_i = a * q^(i-1) / (q^r - 1) mod 1.  The
    central exponent is pinned to 1/n for the cover degree n >= 1; n = 1
    pins it to 0.
    """
    _check_glr_args(r, q)
    modulus = q ** r - 1
    if not 0 <= a < modulus:
        raise ValueError(f"exponent a must lie in [0, q^r - 1) = [0, {modulus})")
    if n < 1:
        raise ValueError(f"the cover degree n must be at least 1, got n = {n}")
    # row i of the r-cycle is the unit row e_(i-1 mod r)
    units = [(0,) * j + (1,) + (0,) * (r - 1 - j) for j in range(r)]
    w = (units[-1], *units[:-1])
    nums = [a * pow(q, i, modulus) % modulus for i in range(r)]
    if any((q * nums[i] - nums[(i + 1) % r]) % modulus for i in range(r)):
        raise RuntimeError("internal consistency: theta is not fixed by q times the Coxeter twist")
    denom = lcm(modulus, n)
    nums = tuple(x * (denom // modulus) for x in nums)
    return LusztigParameter(w, denom, nums, denom // n)


def is_general_position(param, cover):
    """No nonidentity Weyl element commuting with w Fr fixes theta."""
    return _orbit_pass(cover, param)[2] is not None


def y_x_rho(cover, param):
    """The sublattice of invariant cocharacters whose twist fixes the
    parameter's geometric conjugacy class, plus its index.

    Enumerates the finite quotient of Y^{W x Fr} by its meet with Y_{Q,n} and
    keeps the cosets y whose twisted parameter theta + xi_y stays in the Weyl
    orbit of theta.  The passing set must form a subgroup of the quotient;
    anything else signals an internal inconsistency.

    Every call scans every coset and checks that the zero coset passes and
    that the passing count divides the quotient.  The subgroup's Hermite
    normal form and its index check depend on the passing set alone, so
    they run on the first call with that set; the pair is then kept in the
    cover's ``_passing_subgroups``, keyed by the tuple of passing
    representatives in coset order, and returned by later calls.
    """
    denom, tnum, in_orbit = _orbit_pass(cover, param)
    if in_orbit is None:
        raise GeneralPositionError("parameter is not in general position")
    lat, sub = cover._invariant_lattices
    cosets = cover._cosets
    scale = denom // cover.n
    passing = [rep for rep, twist in cosets
               if in_orbit([(t + scale * c) % denom for t, c in zip(tnum, twist)])]

    total = len(cosets)
    # the zero coset comes first
    if not passing or any(passing[0]):
        raise RuntimeError("internal consistency: the trivial coset did not pass")
    if total % len(passing):
        raise RuntimeError("internal consistency: subgroup size does not divide the quotient")
    idx = total // len(passing)

    key = tuple(passing)
    held = cover._passing_subgroups
    found = held.get(key)
    if found is None:
        # the passing cosets generate a subgroup of order total / index(lat, lattice),
        # so the index matches exactly when they already form a subgroup
        lattice = hermite_normal_form(list(sub.basis) + passing, cover.rank)
        if index(lat, lattice) != idx:
            raise RuntimeError(
                "internal consistency: passing cosets do not form a subgroup "
                "(lattice index mismatch)")
        found = held[key] = (lattice, idx)
    return found


def _check_glr_args(r, q):
    # first on every GL_r route, before any q ** r
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    check_glr_rank(r)


def _check_glr_dim_args(r, q, n, a):
    _check_glr_args(r, q)
    _check_q_and_degree(q, n)
    if not 0 <= a < q ** r - 1:
        raise ValueError(f"exponent a must lie in [0, q^r - 1) = [0, {q ** r - 1})")


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
    """Independent brute-force scan of the same minimum: a literal scan of k,
    each step an exact rational equality tested by cross-multiplication.

    Tests e^(2 pi i m k / n) * theta_1 = theta_1^(q^s), theta_1 = a / M with
    M = q^r - 1, as m k / n = a (q^s - 1) / M mod 1 for k = 1, 2, ... up to
    a hard stop at n.  With representatives x / n and u / M in [0, 1), the
    two are equal exactly when x * M = u * n, so the targets are the
    integers (a (q^s - 1) mod M) * n and step k tests (m k mod n) * M.  No
    modular inverse is taken and no helper is shared with the closed form.
    A zero target at some s > 0 means a is not in general position.
    k = n/gcd(n, m) always passes, so a scan longer than
    :data:`MAX_ORACLE_SCAN` is refused before it starts.
    """
    _check_glr_dim_args(r, q, n, a)
    m = m_qr(r, bold_p, bold_q)
    steps = n // gcd(n, m)
    if steps > MAX_ORACLE_SCAN:
        raise ResourceLimitError(
            f"the oracle's scan of n/gcd(n, m) = {steps} steps exceeds the guard "
            f"{MAX_ORACLE_SCAN}")
    modulus = q ** r - 1
    targets = {a * (q ** s - 1) % modulus * n for s in range(1, r)}
    if 0 in targets:
        raise GeneralPositionError(
            f"a = {a} is not in general position mod q^r - 1 = {modulus}")
    targets.add(0)
    for k in range(1, n + 1):
        if m * k % n * modulus in targets:
            return k
    raise RuntimeError(
        "scan exhausted: no k <= n satisfied the congruence, which is impossible "
        "for a valid input and signals an implementation bug")


def squeeze_bounds(cover):
    """Divisor and multiple bounds for the dimension, as a pair (lower, upper).

    upper = [L : L meet Y_{Q,n}] and lower = [L : {y in L : B(y, y') in nZ
    for all y' in Y^W}], with L = Y^{W x Fr}; lower always divides upper.
    """
    d = cover.rank
    lat, meet = cover._invariant_lattices
    upper = index(lat, meet)
    rows = [mat_vec(cover.form.gram, b) for b in weyl_fixed_lattice(cover.datum).basis]
    mid = intersect(lat, congruence_kernel(rows, cover.n, d))
    lower = index(lat, mid)
    return lower, upper


#: Largest r * q.bit_length() for which the table guard's message forms q^r
#: to print it.  Every q^r - 1 short enough for int-to-str conversion (4,300
#: digits by default) is below 2^14,285, and r * q.bit_length() is less than
#: twice log2(q^r).
_PRINTED_POWER_BITS = 1 << 16


def _table_bound_error(q, r):
    """The error for q^r - 1 above :data:`MAX_TABLE_ORDER`, quoting q^r - 1
    when it is cheap to form and short enough to print."""
    if r * q.bit_length() <= _PRINTED_POWER_BITS:
        try:
            return ResourceLimitError(
                f"q^r - 1 = {q ** r - 1} exceeds the enumeration bound {MAX_TABLE_ORDER}")
        except ValueError:  # more digits than int-to-str conversion allows
            pass
    return ResourceLimitError(
        f"q^r - 1 with r = {r} exceeds the enumeration bound {MAX_TABLE_ORDER}")


@dataclass(frozen=True)
class GLrTable:
    """The classes of a GL_r cover's table, held per residue mod P.

    With M = q^r - 1 (``modulus``) and P = M/(q - 1) (``period``),
    ``emitting`` lists (c, limit, dimension) in increasing c for each
    residue c = a mod P whose exponents are in general position and reach
    below limit(c), the bound under which an exponent is the least member
    of its orbit; every orbit has r members.  The rows are the exponents
    a = base + c < limit(c), base = 0, P, 2P, ..., read off by
    :meth:`blocks`.
    """

    r: int
    modulus: int
    period: int
    emitting: tuple

    def blocks(self):
        """Yield (base, residues) for base = 0, P, 2P, ...: the entries of
        ``emitting`` whose exponent base + c is a row, in increasing c, so
        the rows come out in increasing order.  No block is empty: at
        r = 1 every exponent is a row, and at r >= 2 every base has
        base + 1 < limit(1) = M - (q^(r-1) - 1)."""
        residues = self.emitting
        for base in range(0, self.modulus, self.period):
            # base only grows, so a residue past its limit stays past it
            residues = [entry for entry in residues if base + entry[0] < entry[1]]
            yield base, residues

    def histogram(self):
        """The number of classes of each dimension, in increasing dimension."""
        histogram = {}
        for c, limit, dim in self.emitting:
            # ceil((limit - c) / P) rows, one per block
            histogram[dim] = histogram.get(dim, 0) - (c - limit) // self.period
        return dict(sorted(histogram.items()))


def glr_table(r, q, n, bold_p, bold_q):
    """The :class:`GLrTable` of a GL_r cover; see :func:`enumerate_glr_table`."""
    if r < 1 or q < 2:
        raise ValueError("need r >= 1 and q >= 2")
    # q >= 2, so an r beyond the bound's bit length puts q^r - 1 past it
    # without forming the power
    if r > MAX_TABLE_ORDER.bit_length() or q ** r - 1 > MAX_TABLE_ORDER:
        raise _table_bound_error(q, r)
    modulus = q ** r - 1
    _check_q_and_degree(q, n)
    solver = _GLrSolver(r, q, n, m_qr(r, bold_p, bold_q))
    period = modulus // (q - 1)
    shifts = [(q ** s - 1) // (q - 1) for s in range(1, r)]
    emitting = []
    for c in range(period):
        # t = 0 breaks general position; t >= cap means c >= M - (q - 1) * t,
        # past its limit, so no exponent of the residue is an orbit minimum
        cap = (modulus - c + q - 2) // (q - 1)
        top = 0
        for g in shifts:
            t = c * g % period
            if not 0 < t < cap:
                break
            if t > top:
                top = t
        else:
            emitting.append((c, modulus - (q - 1) * top, solver.dimension(c)))
    return GLrTable(r, modulus, period, tuple(emitting))


def enumerate_glr_table(r, q, n, bold_p, bold_q):
    """Dimensions across all general-position classes of a GL_r cover.

    Groups exponents a by the geometric-conjugacy orbit a -> a*q mod q^r - 1
    (smallest member is the class representative) and returns
    (rows, histogram): rows are (representative, class size, dimension)
    triples in increasing representative order, histogram maps each dimension
    to its number of classes.  q must be a prime power, as for a cover.

    With M = q^r - 1, P = M/(q - 1) and g_s = (q^s - 1)/(q - 1), q - 1
    divides q^s - 1, so a * q^s = a + (q - 1) * t_s mod M with
    t_s = a * g_s mod P.  Each t_s, and so all the following, depends only on
    the residue c = a mod P:

    * a is in general position exactly when t_s != 0 for every 0 < s < r;
    * each right side a * (q^s - 1) = (q - 1) * t_s mod M of the congruence
      is that of c, so a and c have the same dimension;
    * a is the least member of its orbit (which then has r members) exactly
      when a < limit(c) = M - (q - 1) * max_s t_s.

    So each residue is solved once, and the solver's consistency check, run
    once per residue, still covers every row, because the rows of one
    residue share its right sides.  :func:`glr_table` holds the result per
    residue as a :class:`GLrTable`; the rows are then read off block by
    block, a = base + c for base = 0, P, 2P, ..., at one comparison with
    limit(c) per exponent.  ``whitdim table`` renders the same object per
    residue without building these triples: the class size and dimension
    that end a row are formatted once per dimension, and per row only the
    representative.
    """
    table = glr_table(r, q, n, bold_p, bold_q)
    rows = []
    for base, residues in table.blocks():
        rows.extend([(base + c, r, dim) for c, _, dim in residues])
    return tuple(rows), table.histogram()
