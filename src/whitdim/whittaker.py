"""Dual-side torus parameters and Whittaker-dimension computations.

Characters of twisted finite tori are represented entirely on the dual side,
as exponent vectors taken mod 1 (entry i is the coefficient of the i-th dual
basis covector), held as integer numerators over one denominator D.  A
parameter carries the twisting Weyl element w and satisfies
q * theta = (w Fr)^T theta mod 1; the contribution of the extension's central
coordinate is stored but inert, since the Weyl group acts trivially on it.
Rationals appear only at the API boundary: `LusztigParameter.from_theta`
reads them and the `theta` property returns them.  A parameter is normalised
once, by one private path that divides the entries by their gcd: the
constructor ends in it after coercing and checking its arguments, and
`glr_coxeter_parameter`, whose entries are exact integers reduced mod D
already, builds its parameter in lowest terms through it directly.  Its
twist, the r-cycle, comes from a tuple of the Coxeter twists of every rank
the rank guard admits, built once when the module is imported, so the
parameters of one rank share one w and the Weyl group's membership test
recognises a twist it has just answered by identity.

Three independent routes compute the same dimension for covers of GL_r:

* the congruence solved by one modular inverse per power of q
  (`wh_dim_glr_closed`),
* a literal scan of k, each step an exact rational equality tested by
  cross-multiplication (`wh_dim_oracle`), sharing no helper with the closed
  form,
* a Weyl-orbit search for the invariant cocharacters whose twist keeps
  theta in its orbit (`y_x_rho`), which also works for arbitrary root data.

Each route decides general position on its own, as it computes.  Only the
orbit search touches W, through the datum's one Weyl group: a membership
test for w, and ``orbit(v, D, w, Fr)``, a test for the W-orbit of the
numerators v mod D, or None when theta is not in general position, that is
when an element other than the identity fixes v and commutes with w Fr.  On
block-permutation data (each simple reflection swaps two coordinates: GL_r,
tori, roots +-(e_i - e_j)) W permutes coordinates: membership returns the
permutation that w^T applies, decided once for the twist every parameter of
a cover carries, and w^T theta is gathered with no matrix arithmetic; theta
is in general position exactly when its entries are distinct within each
block, and then shares its orbit with the vectors whose blocks hold the
same sets of entries.  There the twisting cocharacters that pass are
solved for, as one congruence on the invariant lattice whose moduli come
from the shifts that keep each block's set of entries, and no coset is
built.  Other data take column sums of w, map theta by every element of W,
enumerated once, search the stabilizer for an element commuting with w Fr,
and test every coset of the invariant lattice mod its meet with Y_{Q,n}.
Resource guards raise :class:`ResourceLimitError` before any enumeration:
|W| above 40,320 (computed from the root heights), GL_r with r above 16,
more than 100,000 cosets for the orbit search on data that are not block
data, an oracle scan of more than 100,000 steps, and a table with q^r - 1
above 10^6.

Every GL_r route (the closed form, the oracle, the Coxeter parameter, the
table and ``glr_cover``) refuses its inputs in one order: r >= 1, then its
size guard (the rank guard, or the table's bound on q^r - 1, which applies
once q >= 2), then n >= 1, then q a prime power, then n | q - 1, then a in
[0, q^r - 1).  ``check_glr_rank`` is the one check of r and
``_check_q_and_degree`` the one check of n and q, so each fault raises the
same exception with the same message on every route.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._frozen import Frozen
from .cover import _check_q_and_degree, m_qr
from .errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from .lattice import (
    _as_matrix,
    congruence_index,
    congruence_kernel,
    hermite_normal_form,
    index,
    intersect,
    mat_mul,
    mat_vec,
)
from .root_datum import (
    MAX_GLR_RANK,
    check_glr_rank,
    weyl_fixed_lattice,
    weyl_frobenius_fixed_lattice,
)

#: Longest scan of :func:`wh_dim_oracle`, n/gcd(n, m) steps of exact equality tests.
MAX_ORACLE_SCAN = 100_000
#: Largest q^r - 1 whose exponents :func:`enumerate_glr_table` runs through.
MAX_TABLE_ORDER = 10 ** 6


class LusztigParameter(Frozen):
    """Twisting Weyl element w (a matrix on Y) and dual exponents mod 1,
    theta_i = numerators[i] / denominator; central / denominator is the
    coordinate along the extension's extra summand, fixed by genuineness,
    inert under W and never in conjugacy tests.  The entries are reduced mod
    the denominator and all are divided by their gcd, so equal parameters
    compare and hash equal.
    """

    _fields = ("w", "denominator", "numerators", "central")

    def __init__(self, w, denominator, numerators, central=0):
        w = _as_matrix(w)
        denom = operator.index(denominator)
        if denom < 1:
            raise ValueError("the denominator must be a positive integer")
        nums = tuple([operator.index(x) % denom for x in numerators])
        d = len(nums)
        if len(w) != d or any(len(row) != d for row in w):
            raise ValueError("w must be a square matrix matching the length of theta")
        self._set_lowest_terms(w, denom, nums, operator.index(central) % denom)

    def _set_lowest_terms(self, w, denom, nums, central):
        # the one normalisation: w a tuple of tuples of int matching the
        # tuple nums, whose entries and central are ints in [0, denom)
        g = gcd(denom, central, *nums)
        if g != 1:
            denom //= g
            nums = tuple([x // g for x in nums])
            central //= g
        self.__dict__.update(w=w, denominator=denom, numerators=nums, central=central)

    @classmethod
    def from_theta(cls, w, theta, central_exponent=0):
        """The parameter with exact rational exponents, taken mod 1.  Each
        entry is an int or a Fraction; any other, a float included, raises
        :class:`TypeError`."""
        entries = [t if isinstance(t, Fraction) else Fraction(operator.index(t))
                   for t in (*theta, central_exponent)]
        denom = lcm(*(t.denominator for t in entries))
        *nums, central = (int(t * denom) for t in entries)
        # exact integers now; the constructor checks w and ends in the one
        # normalisation
        return cls(w, denom, nums, central)

    @property
    def theta(self):
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @property
    def central_exponent(self):
        return Fraction(self.central, self.denominator)


# ---------------------------------------------------------------------------
# validation and the Weyl-orbit pass

def _checked_theta(cover, param):
    """Validate a parameter against a cover; (D, theta mod D) with
    D = lcm(n, denominator).  On block-permutation data membership gives
    the permutation p that w^T applies, and w^T theta is gathered as
    theta_{p[j]}."""
    datum = cover.datum
    d = datum.rank
    if len(param.numerators) != d:
        raise ValueError("parameter dimension does not match the cover")
    group = datum._weyl_group  # read directly: a traced weyl_group opens a span per call
    w = param.w
    perm = None if group.blocks is None else group.permutation(w)
    if perm is None and w not in group:
        raise MathConstraintError("w is not an element of the Weyl group")
    # the reduced denominator is the lcm of the denominators of the entries
    if gcd(param.denominator, cover.p) != 1:
        raise MathConstraintError(
            f"exponent denominators must be coprime to the residue characteristic {cover.p}")
    if param.central * (cover.q - 1) % param.denominator:
        raise MathConstraintError("central exponent is not annihilated by q - 1")
    tnum = param.numerators
    scale = cover.n // gcd(cover.n, param.denominator)
    denom = param.denominator * scale
    if scale != 1:
        tnum = tuple([x * scale for x in tnum])
    # (w Fr)^T theta = Fr^T (w^T theta) mod D; the identity Frobenius
    # (order 1) leaves w^T theta as it is, and a gathered theta, whose
    # entries lie in [0, D), needs no reduction
    f = datum.fr.matrix
    if perm is not None:
        image = [tnum[j] for j in perm]
    else:
        image = [sum(map(operator.mul, col, tnum)) % denom for col in zip(*w)]
    if datum.fr.order != 1:
        image = [sum(map(operator.mul, col, image)) % denom for col in zip(*f)]
    q = cover.q
    if [q * t % denom for t in tnum] != image:
        raise MathConstraintError(
            "q * theta = (w Fr)^T theta mod 1 fails: not a character of the twisted torus")
    return denom, tnum


def _orbit_pass(cover, param):
    """(D, theta mod D, orbit test) for a parameter that passes
    :func:`_checked_theta`.  The test tells whether a list mod D lies in the
    Weyl orbit of theta; it is None when theta is not in general position: a
    nonidentity Weyl element commuting with w Fr fixes it."""
    denom, tnum = _checked_theta(cover, param)
    datum = cover.datum
    return denom, tnum, datum._weyl_group.orbit(tnum, denom, param.w, datum.fr.matrix)


# ---------------------------------------------------------------------------
# operations

def xi_of(cover, y):
    """The twisting exponent vector (gram . y) / n mod 1, for invariant y."""
    vec = tuple(map(operator.index, y))
    if not cover._invariant_lattices[0].contains_vector(vec):
        raise MathConstraintError("y is not fixed by the Weyl group and Frobenius")
    return tuple(Fraction(c, cover.n) % 1 for c in mat_vec(cover.form.gram, vec))


def _coxeter_twist(r):
    """The r-cycle i -> i - 1 mod r: row 0 is the unit row e_(r-1) and row
    i >= 1 is e_(i-1), each a slice of one strip."""
    strip = (0,) * (r - 1) + (1,) + (0,) * (r - 1)
    return (strip[:r], *[strip[r - i:2 * r - i] for i in range(1, r)])


#: entry r - 1 is the Coxeter twist of GL_r, for r = 1, ..., MAX_GLR_RANK
_COXETER_TWISTS = tuple(map(_coxeter_twist, range(1, MAX_GLR_RANK + 1)))


def glr_coxeter_parameter(r, q, a, n=1):
    """Parameter of the exponent-a character on the Coxeter torus of GL_r.

    w is the full cycle and theta_i = a * q^(i-1) / (q^r - 1) mod 1.  The
    central exponent is pinned to 1/n for the cover degree n; n = 1 pins it
    to 0.  r, q, n and a are refused as by the other GL_r routes, in the
    same order, so n divides q - 1 and hence q^r - 1, the denominator.  w is
    read from a table of the twists for every admitted rank, built when the
    module is imported, so every parameter of rank r holds the same w.  The
    parameter is built in lowest terms, with no second pass through the
    constructor.
    """
    modulus = _check_glr_dim_args(r, q, n, a)
    # r is refused outside 1..MAX_GLR_RANK above, before it indexes the table
    w = _COXETER_TWISTS[r - 1]
    nums = [operator.index(a)]
    for _ in range(r - 1):
        nums.append(nums[-1] * q % modulus)
    # w^T theta is theta rotated one place to the left
    if [q * x % modulus for x in nums] != nums[1:] + nums[:1]:
        raise RuntimeError("internal consistency: theta is not fixed by q times the Coxeter twist")
    param = LusztigParameter.__new__(LusztigParameter)
    param._set_lowest_terms(w, modulus, tuple(nums), modulus // n % modulus)
    return param


def is_general_position(param, cover):
    """No nonidentity Weyl element commuting with w Fr fixes theta."""
    return _orbit_pass(cover, param)[2] is not None


def y_x_rho(cover, param):
    """The sublattice of invariant cocharacters whose twist fixes the
    parameter's geometric conjugacy class, plus its index.

    The twist by y in L = Y^{W x Fr} sends theta to theta + xi_y; y passes
    when that stays in the Weyl orbit of theta.  The passing set is a
    subgroup of L containing L meet Y_{Q,n}, and the index is taken in L.

    On block-permutation data it is solved, with no coset built.  For y in
    L, gram . y is W-fixed in X, so constant on each block B, and the twist
    shifts the entries of B by D/n times its value c_B there.  The shifts s
    mod D that map the block's set of entries onto itself form the subgroup
    generated by g_B, the least such s among the differences
    theta_j - theta_first (those with |B| s = 0 mod D, as |B| is a multiple
    of the subgroup's order), or D when none is.  So y passes exactly when
    c_B = 0 mod m_B = g_B / gcd(g_B, D/n) on every block: one congruence
    on L, whose lattice and index depend on the moduli m_B alone.  The
    first parameter with a given tuple of moduli solves it, checking that
    gram . y is constant on the blocks for a basis of L, that the lattice
    contains L meet Y_{Q,n}, and that the index divides the quotient's
    order.

    Other data scan the cosets of L / (L meet Y_{Q,n}), at most
    :data:`whitdim.lattice.MAX_COSETS` of them, on every call: the zero
    coset must pass and the passing count divide the quotient.  The
    subgroup's Hermite normal form and its index check depend on the
    passing set alone and run on the first call with that set.

    Either result is kept in the cover's ``_passing_subgroups``, keyed by
    the tuple of moduli or of passing representatives, and returned by
    later calls with the same key.
    """
    group = cover.datum._weyl_group
    blocks = group.blocks
    if blocks is None:
        return _scanned_subgroup(cover, param)
    denom, tnum = _checked_theta(cover, param)
    sets = group.block_entries(tnum)
    if sets is None:
        raise GeneralPositionError("parameter is not in general position")
    scale = denom // cover.n
    moduli = []
    for block, entries in zip(blocks, sets):
        first, size, step = tnum[block[0]], len(block), denom
        for t in entries:
            s = (t - first) % denom
            if 0 < s < step and size * s % denom == 0 and {
                    (x + s) % denom for x in entries} == entries:
                step = s
        moduli.append(step // gcd(step, scale))
    key = tuple(moduli)
    held = cover._passing_subgroups
    found = held.get(key)
    if found is None:
        found = held[key] = _solved_subgroup(cover, blocks, key)
    return found


def _solved_subgroup(cover, blocks, moduli):
    """(lattice, index) of {y in L : (gram . y)_first(B) = 0 mod m_B for
    every block B}, the moduli m_B dividing n; see :func:`y_x_rho`."""
    lat, sub = cover._invariant_lattices
    gram = cover.form.gram
    for y in lat.basis:
        twist = mat_vec(gram, y)
        if any(twist[i] != twist[block[0]] for block in blocks for i in block):
            raise RuntimeError(
                "internal consistency: gram . y is not constant on a block for invariant y")
    modulus = lcm(*moduli)
    rows = [tuple(modulus // m * x for x in gram[block[0]])
            for m, block in zip(moduli, blocks)]
    lattice = intersect(lat, congruence_kernel(rows, modulus, cover.rank))
    if not all(map(lattice.contains_vector, sub.basis)):
        raise RuntimeError(
            "internal consistency: the passing lattice does not contain L meet Y_{Q,n}")
    idx = index(lat, lattice)
    if index(lat, sub) % idx:
        raise RuntimeError("internal consistency: subgroup size does not divide the quotient")
    return lattice, idx


def _scanned_subgroup(cover, param):
    """(lattice, index) of the passing cosets, found by testing each one;
    see :func:`y_x_rho`."""
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


def _check_glr_dim_args(r, q, n, a):
    """q^r - 1, once r, n and q pass their checks and a lies in
    [0, q^r - 1): the contract of every GL_r route that takes an exponent.
    A float or Fraction a raises :class:`TypeError`."""
    check_glr_rank(r)
    _check_q_and_degree(q, n)
    modulus = q ** r - 1
    if not 0 <= operator.index(a) < modulus:
        raise ValueError(f"exponent a must lie in [0, q^r - 1) = [0, {modulus})")
    return modulus


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
    modulus = _check_glr_dim_args(r, q, n, a)
    m = m_qr(r, bold_p, bold_q)
    steps = n // gcd(n, m)
    if steps > MAX_ORACLE_SCAN:
        raise ResourceLimitError(
            f"the oracle's scan of n/gcd(n, m) = {steps} steps exceeds the guard "
            f"{MAX_ORACLE_SCAN}")
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
    With B a basis of L, B_W one of Y^W and G the gram matrix, y = c B meets
    the first condition exactly when c (B G) = 0 mod n and the second when
    c (B G B_W^T) = 0 mod n, so both are ``congruence_index`` of those
    products: no lattice meet is built.
    """
    basis = weyl_frobenius_fixed_lattice(cover.datum).basis
    if not basis:
        return 1, 1
    twists = mat_mul(basis, cover.form.gram)
    weyl_basis = weyl_fixed_lattice(cover.datum).basis
    pairings = [mat_vec(weyl_basis, t) for t in twists]
    return congruence_index(pairings, cover.n), congruence_index(twists, cover.n)


#: Largest r * q.bit_length() for which the table guard's message quotes
#: q^r - 1: then q^r < 2^2,000 has at most 603 digits, below 640, the least
#: int-to-str limit Python accepts.
_PRINTED_POWER_BITS = 2_000


def _table_bound_error(q, r):
    """The error for q^r - 1 above :data:`MAX_TABLE_ORDER`, quoting q^r - 1
    for an int q when it is short enough to print, naming r otherwise."""
    if isinstance(q, int) and r * q.bit_length() <= _PRINTED_POWER_BITS:
        return ResourceLimitError(
            f"q^r - 1 = {q ** r - 1} exceeds the enumeration bound {MAX_TABLE_ORDER}")
    return ResourceLimitError(
        f"q^r - 1 with r = {r} exceeds the enumeration bound {MAX_TABLE_ORDER}")


class GLrTable(Frozen):
    """The classes of a GL_r cover's table, held per residue mod P.

    With M = q^r - 1 (``modulus``) and P = M/(q - 1) (``period``),
    ``emitting`` lists (c, limit, dimension) in increasing c for each
    residue c = a mod P whose exponents are in general position and reach
    below limit(c), the bound under which an exponent is the least member
    of its orbit; every orbit has r members.  The rows are the exponents
    a = base + c < limit(c), base = 0, P, 2P, ...: residue c has a row in
    the first ceil((limit(c) - c)/P) blocks, its reach, and in no later
    one.  :attr:`schedule` groups the residues by reach, once;
    :meth:`histogram` and :meth:`runs` read it.
    """

    _fields = ("r", "modulus", "period", "emitting")

    @cached_property
    def schedule(self):
        """[(reach, entries)] in increasing reach: the entries of
        ``emitting`` whose residue has a row in exactly the first reach
        blocks."""
        period, ending = self.period, {}
        for entry in self.emitting:
            # ceil((limit - c) / P) bases 0, P, 2P, ... have base + c < limit
            ending.setdefault(-((entry[0] - entry[1]) // period), []).append(entry)
        return sorted(ending.items())

    def runs(self, values):
        """Yield (bases, residues, live) for each run of consecutive blocks
        that have the same rows: the range of their bases, the residues c
        of the rows in increasing order, and the entries of ``values``
        (one per entry of ``emitting``, in its order) of those residues.
        A residue is dropped where its reach runs out; nothing else is
        tested per block.  A yielded list is never changed: when the
        residues that end are the last ones (always at r <= 2, where the
        reach falls as c grows) the next lists are cut by one slice, and
        otherwise read off a map of the live residues."""
        residues, live = [c for c, _, _ in self.emitting], list(values)
        alive = dict(zip(residues, live))
        start, period = 0, self.period
        for reach, ending in self.schedule:
            stop = reach * period
            yield range(start, stop, period), residues, live
            for c, _, _ in ending:
                del alive[c]
            # the ending residues, in increasing order, are the last ones
            # exactly when the least of them comes after the k live ones
            k = len(alive)
            if residues[k] == ending[0][0]:
                residues, live = residues[:k], live[:k]
            else:
                residues, live = list(alive), list(alive.values())
            start = stop

    def histogram(self):
        """The number of classes of each dimension, in increasing dimension."""
        histogram = {}
        for reach, ending in self.schedule:
            for _, _, dim in ending:
                histogram[dim] = histogram.get(dim, 0) + reach
        return dict(sorted(histogram.items()))


def glr_table(r, q, n, bold_p, bold_q):
    """The :class:`GLrTable` of a GL_r cover; see :func:`enumerate_glr_table`."""
    check_glr_rank(r, None)
    # the bound is on q^r - 1, no size for a q below 2, which the prime-power
    # test refuses next; at q >= 2 an r beyond the bound's bit length puts
    # q^r - 1 past it without forming the power
    if q >= 2 and (r > MAX_TABLE_ORDER.bit_length() or q ** r - 1 > MAX_TABLE_ORDER):
        raise _table_bound_error(q, r)
    _check_q_and_degree(q, n)
    modulus = q ** r - 1
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
    block, a = base + c for base = 0, P, 2P, ...  Residue c has a row in
    the first ceil((limit(c) - c)/P) blocks, its reach, counted once per
    residue: the histogram adds up the reaches, and a residue leaves the
    live set where its reach runs out, so no exponent is compared with its
    limit.  ``whitdim table`` renders the same object without building
    these triples: the class size and dimension that end a row are
    formatted once per dimension, and the representative is pieced
    together from tables of digit strings, one window of 1,000
    representatives at a time.
    """
    table = glr_table(r, q, n, bold_p, bold_q)
    rows = []
    for bases, _, residues in table.runs(table.emitting):
        for base in bases:
            rows.extend([(base + c, r, dim) for c, _, dim in residues])
    return tuple(rows), table.histogram()
