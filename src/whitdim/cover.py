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

Lattices derived from a cover (Y_{Q,n}, the invariant lattice and its coset
representatives) are computed on first use and kept on the cover, so they
live exactly as long as it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb

from .errors import MathConstraintError
from .lattice import (
    congruence_kernel,
    coset_representatives,
    dot,
    index,
    intersect,
    mat_mul,
    mat_vec,
    transpose,
)
from .root_datum import (
    BasedRootDatum,
    build_glr,
    frobenius_fixed_lattice,
    simple_reflections,
    weyl_frobenius_fixed_lattice,
    weyl_group,
)


def _prime_power_base(q):
    """The unique prime p with q = p^e, or raise."""
    if not isinstance(q, int) or q < 2:
        raise MathConstraintError("q must be a prime power >= 2")
    m, p = q, None
    for cand in range(2, q + 1):
        if cand * cand > m:
            p = m if p is None else p
            break
        if m % cand == 0:
            p = cand
            break
    while m % p == 0:
        m //= p
    if m != 1:
        raise MathConstraintError(f"q = {q} is not a prime power")
    return p


@dataclass(frozen=True)
class WeylInvariantForm:
    """Symmetric integer gram matrix with even diagonal; Q(y) = B(y, y)/2.

    Invariance under the Weyl group and Frobenius of a root datum is checked
    when the form is bound into a :class:`CoverSpec`.
    """

    gram: tuple

    def __post_init__(self):
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        d = len(g)
        if d < 1 or any(len(row) != d for row in g):
            raise ValueError("gram matrix must be square and non-empty")
        if g != transpose(g):
            raise MathConstraintError("gram matrix must be symmetric")
        if any(g[i][i] % 2 for i in range(d)):
            raise MathConstraintError(
                "gram diagonal must be even so that Q is integer-valued")

    @property
    def rank(self):
        return len(self.gram)

    def bilinear(self, y1, y2):
        return dot(mat_vec(self.gram, y1), tuple(y2))

    def q_value(self, y):
        return self.bilinear(y, y) // 2


@dataclass(frozen=True)
class CoverSpec:
    """A root datum together with (Q, n, q); validates n | q - 1 and invariance."""

    datum: BasedRootDatum
    form: WeylInvariantForm
    n: int
    q: int

    def __post_init__(self):
        if self.form.rank != self.datum.rank:
            raise ValueError("form size does not match the root datum rank")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("cover degree n must be a positive integer")
        p = _prime_power_base(self.q)
        object.__setattr__(self, "_p", p)
        if (self.q - 1) % self.n:
            raise MathConstraintError(
                f"cover degree n = {self.n} must divide q - 1 = {self.q - 1}")
        g = self.form.gram
        for s in simple_reflections(self.datum):
            if mat_mul(transpose(s), mat_mul(g, s)) != g:
                raise MathConstraintError(
                    "form is not invariant under the Weyl group")
        f = self.datum.fr.matrix
        if mat_mul(transpose(f), mat_mul(g, f)) != g:
            raise MathConstraintError("form is not invariant under Frobenius")

    @property
    def rank(self):
        return self.datum.rank

    @property
    def p(self):
        """Residue characteristic: the prime below q."""
        return self._p

    @property
    def fr(self):
        return self.datum.fr

    @cached_property
    def _weyl_group(self):
        return weyl_group(self.datum)

    @cached_property
    def _y_qn(self):
        return congruence_kernel(self.form.gram, self.n, self.rank)

    @cached_property
    def _invariant_lattices(self):
        """L = Y^{W x Fr} and its meet with Y_{Q,n}."""
        lat = weyl_frobenius_fixed_lattice(self.datum)
        return lat, intersect(lat, self._y_qn)

    @cached_property
    def _cosets(self):
        """Canonical representatives y of L / (L meet Y_{Q,n}), the zero
        coset first, each paired with its twist covector gram . y."""
        reps = coset_representatives(*self._invariant_lattices)
        return tuple((rep, mat_vec(self.form.gram, rep)) for rep in reps)


@dataclass(frozen=True)
class GLrCoverInvariants:
    """The pair (bold_p, bold_q) pinning a Weyl-invariant form on GL_r."""

    bold_p: int
    bold_q: int


def form_from_glr_invariants(r, bold_p, bold_q):
    """Gram matrix with diagonal 2*bold_p and off-diagonal bold_q (unused if r=1)."""
    if r < 1:
        raise ValueError("GL_r needs r >= 1")
    gram = tuple(tuple(2 * bold_p if i == j else bold_q for j in range(r))
                 for i in range(r))
    return WeylInvariantForm(gram)


def glr_cover(r, bold_p, bold_q, n, q):
    """Degree-n cover of split GL_r (identity Frobenius) over F_q."""
    return CoverSpec(build_glr(r), form_from_glr_invariants(r, bold_p, bold_q), n, q)


def glr_invariants_of(datum, form):
    """Recover (bold_p, bold_q) when the datum/form pair is GL_r-shaped, else None."""
    r = datum.rank
    glr = build_glr(r)
    if (frozenset(datum.roots) != frozenset(glr.roots)
            or dict(zip(datum.roots, datum.coroots)) != dict(zip(glr.roots, glr.coroots))):
        return None
    g = form.gram
    diag = {g[i][i] for i in range(r)}
    off = {g[i][j] for i in range(r) for j in range(r) if i != j}
    if len(diag) != 1 or len(off) > 1:
        return None
    return GLrCoverInvariants(next(iter(diag)) // 2, next(iter(off)) if off else 0)


def q_of_coroot(form, rd):
    """Q of each simple coroot, in the order of the simple system."""
    return tuple(form.q_value(rd.coroots[i]) for i in rd.simple_indices)


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
    """#(Y^Fr / Y^Fr_{Q,n}): the dimension of every genuine irrep of the covered torus."""
    fixed = frobenius_fixed_lattice(cover.datum)
    return index(fixed, intersect(fixed, y_qn(cover)))
