"""Invariant quadratic forms and the arithmetic of n-fold torus covers.

A cover is specified by a Weyl- and Frobenius-invariant even symmetric
bilinear form B on Y (the quadratic form is Q(y) = B(y, y)/2), a degree n
dividing q - 1, and the residue cardinality q.  The two lattices that drive
everything downstream are Y_{Q,n} = {y : B(y, y') in nZ for all y'} and the
Frobenius-fixed lattice Y^Fr; their relative index is the common dimension of
the genuine irreducible representations of the covered torus.

For GL_r the form is pinned by two integers: bold_p = Q(e_i) on the diagonal
and bold_q = B(e_i, e_j) off it.  The combination 2*bold_p - bold_q = Q of a
simple coroot classifies the family (determinantal, Kazhdan-Patterson,
Savin), and m = 2*bold_p + (r-1)*bold_q = B(e_0, e_i) controls dimensions.

Weyl invariance is read off the simple roots: as <alpha, alpha^vee> = 2,
s_alpha preserves B exactly when gram . alpha^vee = Q(alpha^vee) alpha.  A
datum is GL_r-shaped when its r(r - 1) roots are e_i - e_j = their coroots.

Data derived from a cover (Q on the coroots, each summed over the support
of its coroot and read first by validation, Y_{Q,n}, the meet of the
invariant lattice Y^{W x Fr} with it, the residual record of the last
apartment point, and the map from the key of each passing set of the orbit
search, its per-block moduli on block-permutation data and its group of
twists mod n on other data, to its solved and checked subgroup and index)
are computed on first use and kept on the cover, so they live exactly as
long as it does.  With the identity Frobenius the central index is read
off the Hermite form of the kept Y_{Q,n}.  The invariant lattice itself
and the Weyl group, with its blocks on block-permutation data, are held on
the datum and shared by every cover on it.  No coset of the invariant
lattice is built for a cover: only ``lattice.coset_representatives``
refuses more than 100,000 cosets, and no cover reads it.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import comb, prod

from ._frozen import Frozen
from .errors import MathConstraintError, ResourceLimitError
from .lattice import (
    _as_matrix,
    congruence_index,
    congruence_kernel,
    dot,
    intersect,
    mat_mul,
    mat_vec,
    transpose,
)
from .root_datum import (
    _swaps_coordinates,
    build_glr,
    check_glr_rank,
    frobenius_fixed_lattice,
    weyl_frobenius_fixed_lattice,
)

#: the first 13 primes: trial divisors and Miller-Rabin bases
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: least strong pseudoprime to all of _SMALL_PRIMES (Sorenson and Webster)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
#: (psi, bases): the least strong pseudoprime psi to a shorter prefix of
#: _SMALL_PRIMES, so that the prefix decides every m < psi (OEIS A014233:
#: Pomerance, Selfridge and Wagstaff for 2 to 2..7, Jaeschke for 2..11 to
#: 2..17, Jiang and Deng for 2..23, Sorenson and Webster for 2..37)
_MILLER_RABIN_PREFIXES = tuple(
    (psi, _SMALL_PRIMES[:k]) for psi, k in ((2_047, 1),
                                             (1_373_653, 2),
                                             (25_326_001, 3),
                                             (3_215_031_751, 4),
                                             (2_152_302_898_747, 5),
                                             (3_474_749_660_383, 6),
                                             (341_550_071_728_321, 7),
                                             (3_825_123_056_546_413_051, 9),
                                             (318_665_857_834_031_151_167_461, 12)))
#: every q below it is looked up in _SMALL_PRIME_POWER_BASES
_SMALL_Q_BOUND = 43 * 43


def _sieve_prime_power_bases(bound):
    """The tuple whose entry q < bound is the prime p with q = p^e, or 0
    when q is not a prime power: a sieve of Eratosthenes."""
    sieve = bytearray([1]) * bound
    bases = [0] * bound
    for p in range(2, bound):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, bound, p)))
            power = p
            while power < bound:
                bases[power] = p
                power *= p
    return tuple(bases)


#: entry q < 43^2 is the prime below q, or 0 when q is not a prime power
_SMALL_PRIME_POWER_BASES = _sieve_prime_power_bases(_SMALL_Q_BOUND)


def _prime_power_base(q):
    """The unique prime p with q = p^e, or raise.

    Every q < 43^2 is looked up in a table built once, by a sieve, when the
    module is imported.  A larger q is divided by the primes up to 41, which
    decides every q with such a factor.  Otherwise each prime factor of q is
    at least 43, so q = b^e needs 43^e <= q: for each such e (2 and the odd
    numbers, a superset of the primes) an integer Newton e-th root is tried,
    and the search goes on from an exact root.
    The base b that remains is tested by Miller-Rabin with the 13 prime
    bases 2, 3, ..., 41.  A failed base proves b composite at any size;
    passing all 13 proves b prime when b < 3,317,044,064,679,887,385,961,981
    (J. Sorenson and J. Webster, "Strong pseudoprimes to twelve prime
    bases", Math. Comp. 86 (2017)).  Beyond that bound a passing b cannot be
    decided, and :class:`ResourceLimitError` is raised.  Below it only the
    shortest prefix of the bases proven for b's size is tested (OEIS
    A014233): 2 below 2,047, 2..3 below 1,373,653, 2..5 below 25,326,001
    and 2..7 below 3,215,031,751 (C. Pomerance, J. L. Selfridge and S. S.
    Wagstaff, "The pseudoprimes to 25 * 10^9", Math. Comp. 35 (1980));
    2..11 below 2,152,302,898,747, 2..13 below 3,474,749,660,383 and 2..17
    below 341,550,071,728,321 (G. Jaeschke, "On strong pseudoprimes to
    several bases", Math. Comp. 61 (1993)); 2..23 below
    3,825,123,056,546,413,051 (Y. Jiang and Y. Deng, Math. Comp. 83 (2014));
    and 2..37 below 318,665,857,834,031,151,167,461 (Sorenson and Webster).
    """
    if q < 2:
        raise MathConstraintError("q must be a prime power >= 2")
    if q < _SMALL_Q_BOUND:
        p = _SMALL_PRIME_POWER_BASES[q]
        if not p:
            raise MathConstraintError(f"q = {q} is not a prime power")
        return p
    for p in _SMALL_PRIMES:
        if q % p == 0:
            m = q // p
            while m % p == 0:
                m //= p
            if m != 1:
                raise MathConstraintError(f"q = {q} is not a prime power")
            return p
    base = _perfect_power_base(q)
    # free of prime factors below 43, a base below 43^2 is prime
    if base < _SMALL_Q_BOUND:
        return base
    if not _passes_miller_rabin(base):
        raise MathConstraintError(f"q = {q} is not a prime power")
    if base >= _MILLER_RABIN_BOUND:
        raise ResourceLimitError(
            f"cannot decide whether q = {q} is a prime power: {base} passes "
            f"Miller-Rabin to the prime bases 2..41, which proves primality "
            f"only below {_MILLER_RABIN_BOUND}")
    return base


def _perfect_power_base(m):
    """The b with m = b^e and e maximal, for m free of prime factors < 43."""
    # e runs through 2 and the odd numbers; an exact root keeps e, because
    # its exponents have no prime factor below e either
    e = 2
    while 43 ** e <= m:
        root = _integer_root(m, e)
        if root ** e == m:
            m = root
        else:
            e = 3 if e == 2 else e + 2
    return m


def _integer_root(m, e):
    """floor(m^(1/e)) by Newton's iteration from above."""
    x = 1 << -(-m.bit_length() // e)
    while True:
        y = ((e - 1) * x + m // x ** (e - 1)) // e
        if y >= x:
            return x
        x = y


def _passes_miller_rabin(m):
    """Is odd m > 41 a strong probable prime to every base in the shortest
    prefix of _SMALL_PRIMES that decides m's size, or to all of them past
    the last prefix?"""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    bases = next((bases for psi, bases in _MILLER_RABIN_PREFIXES if m < psi), _SMALL_PRIMES)
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class WeylInvariantForm(Frozen):
    """Symmetric integer gram matrix with even diagonal; Q(y) = B(y, y)/2.

    Invariance under the Weyl group and Frobenius of a root datum is checked
    when the form is bound into a :class:`CoverSpec`.
    """

    _fields = ("gram",)

    def __init__(self, gram):
        g = _as_matrix(gram)
        d = len(g)
        if d < 1 or any(len(row) != d for row in g):
            raise ValueError("gram matrix must be square and non-empty")
        if g != transpose(g):
            raise MathConstraintError("gram matrix must be symmetric")
        if any(g[i][i] % 2 for i in range(d)):
            raise MathConstraintError(
                "gram diagonal must be even so that Q is integer-valued")
        self.__dict__.update(gram=g)

    @property
    def rank(self):
        return len(self.gram)

    def bilinear(self, y1, y2):
        return dot(mat_vec(self.gram, y1), tuple(y2))


def _check_q_and_degree(q, n):
    """The prime below q, once n >= 1, q is a prime power and n divides
    q - 1, tested in that order.  An n or a q that is no integer raises
    :class:`TypeError` where it is reached, n below 1 :class:`ValueError`,
    and a q that is not a prime power, q < 2 included,
    :class:`MathConstraintError`.  :class:`CoverSpec` and every GL_r route
    check n and q here alone, after r and the route's size guard."""
    if operator.index(n) < 1:
        raise ValueError("cover degree n must be a positive integer")
    p = _prime_power_base(operator.index(q))
    if (q - 1) % n:
        raise MathConstraintError(f"cover degree n = {n} must divide q - 1 = {q - 1}")
    return p


class CoverSpec(Frozen):
    """A root datum together with (Q, n, q); validates n | q - 1 and invariance.

    Validation keeps the residue characteristic, the prime below q, as
    ``p``.  ``__init__`` calls ``__post_init__`` through the class, so the
    validation is one method that a caller can wrap.
    """

    _fields = ("datum", "form", "n", "q")

    def __init__(self, datum, form, n, q):
        self.__dict__.update(datum=datum, form=form, n=n, q=q)
        self.__post_init__()

    def __post_init__(self):
        if self.form.rank != self.datum.rank:
            raise ValueError("form size does not match the root datum rank")
        self.__dict__["p"] = _check_q_and_degree(self.q, self.n)
        # s_i^T G s_i = G exactly when G coroot_i = Q(coroot_i) root_i
        g, rd, qs = self.form.gram, self.datum, self.coroot_q
        for i in rd.simple_indices:
            if mat_vec(g, rd.coroots[i]) != tuple(qs[i] * x for x in rd.roots[i]):
                raise MathConstraintError(
                    "form is not invariant under the Weyl group")
        # the identity Frobenius (order 1) leaves every form invariant
        f = rd.fr.matrix
        if rd.fr.order != 1 and mat_mul(transpose(f), mat_mul(g, f)) != g:
            raise MathConstraintError("form is not invariant under Frobenius")

    @property
    def rank(self):
        return self.datum.rank

    @property
    def fr(self):
        return self.datum.fr

    @cached_property
    def coroot_q(self):
        """Q of every coroot, in root order: half the sum of g_ab v_a v_b over
        the support of the coroot v."""
        g, out = self.form.gram, []
        for v in self.datum.coroots:
            support = [(a, x) for a, x in enumerate(v) if x]
            out.append(sum(g[a][b] * x * y for a, x in support for b, y in support) // 2)
        return tuple(out)

    @cached_property
    def _y_qn(self):
        return congruence_kernel(self.form.gram, self.n, self.rank)

    @cached_property
    def _invariant_lattices(self):
        """L = Y^{W x Fr} and its meet with Y_{Q,n}."""
        lat = weyl_frobenius_fixed_lattice(self.datum)
        return lat, intersect(lat, self._y_qn)

    @cached_property
    def _passing_subgroups(self):
        """The subgroups ``y_x_rho`` has solved and checked, as a map to
        (lattice, index) from the tuple of moduli m_B, one per block, on
        block-permutation data, and from the sorted tuple of the passing
        twists mod n on other data; empty until the first orbit search."""
        return {}


def form_from_glr_invariants(r, bold_p, bold_q):
    """Gram matrix with diagonal 2*bold_p and off-diagonal bold_q (unused if r=1)."""
    check_glr_rank(r, None)
    gram = tuple(tuple(2 * bold_p if i == j else bold_q for j in range(r))
                 for i in range(r))
    return WeylInvariantForm(gram)


def glr_cover(r, bold_p, bold_q, n, q):
    """Degree-n cover of split GL_r (identity Frobenius) over F_q."""
    return CoverSpec(build_glr(r), form_from_glr_invariants(r, bold_p, bold_q), n, q)


def glr_invariants_of(datum, form):
    """Recover (bold_p, bold_q) when the datum/form pair is GL_r-shaped, else None."""
    # the roots are distinct, so r(r - 1) of the form e_i - e_j are all of them
    r = datum.rank
    if len(datum.roots) != r * (r - 1) or not all(
            map(_swaps_coordinates, datum.roots, datum.coroots)):
        return None
    g = form.gram
    diag = {g[i][i] for i in range(r)}
    off = {g[i][j] for i in range(r) for j in range(r) if i != j}
    if len(diag) != 1 or len(off) > 1:
        return None
    return next(iter(diag)) // 2, next(iter(off)) if off else 0


def q_of_e0(r, bold_p, bold_q):
    """Q of the sum-of-basis cocharacter e_0 for GL_r: r*p + C(r,2)*q."""
    return r * bold_p + comb(r, 2) * bold_q


def m_qr(r, bold_p, bold_q):
    """The integer 2*bold_p + (r-1)*bold_q = B(e_0, e_i) for GL_r."""
    return 2 * bold_p + (r - 1) * bold_q


def classify_glr_family(bold_p, bold_q):
    """Family tag of a GL_r cover; depends only on 2*bold_p - bold_q."""
    value = 2 * bold_p - bold_q
    if value == 0:
        return "determinantal"
    if value == -1:
        return "kazhdan_patterson"
    if value == -2:
        return "savin"
    return f"other({value})"


def y_qn(cover):
    """Y_{Q,n} = {y : gram . y = 0 mod n componentwise}; contains n * Z^d."""
    return cover._y_qn


def central_index(cover):
    """#(Y^Fr / Y^Fr_{Q,n}): the dimension of every genuine irrep of the covered torus.

    With the identity Frobenius Y^Fr = Y, and Y_{Q,n}, kept on the cover,
    contains nY, so the index is the product of the pivots of its Hermite
    form.  Otherwise, with F a basis of Y^Fr, y = c F lies in Y_{Q,n}
    exactly when c (F G) = 0 mod n, G the gram matrix, so the index is
    ``congruence_index(F G, n)``: a product over the Smith diagonal of F G.

    >>> central_index(glr_cover(2, 0, 1, 4, 5))
    16
    """
    if cover.fr.order == 1:
        return prod(row[i] for i, row in enumerate(cover._y_qn.basis))
    basis = frobenius_fixed_lattice(cover.datum).basis
    return congruence_index(mat_mul(basis, cover.form.gram), cover.n)
