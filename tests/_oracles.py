"""Slow-but-obvious reference implementations used as independent oracles.

Nothing in here calls the package's normal-form machinery: membership is
decided by textbook Gaussian elimination over exact rationals, and coset
counting classifies the points of an explicit box by pairwise differences.
"""

from fractions import Fraction
from itertools import product
from math import gcd


def transpose(rows):
    rows = [tuple(r) for r in rows]
    if not rows:
        return []
    return [tuple(r[i] for r in rows) for i in range(len(rows[0]))]


def rational_solve(matrix_rows, rhs):
    """One solution of A x = b over Q (free variables set to 0), or None."""
    m = len(matrix_rows)
    k = len(matrix_rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b)]
           for row, b in zip(matrix_rows, rhs)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                factor = aug[i][c]
                aug[i] = [a - factor * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][k] != 0:
            return None
    x = [Fraction(0)] * k
    for row_i, c in enumerate(pivots):
        x[c] = aug[row_i][k]
    return tuple(x)


def in_span_z(vec, basis_rows):
    """Is vec an integer combination of the (independent) basis rows?"""
    if not basis_rows:
        return all(v == 0 for v in vec)
    sol = rational_solve(transpose(basis_rows), vec)
    if sol is None:
        return False
    return all(c.denominator == 1 for c in sol)


def brute_force_coset_count(box, relation_rows):
    """Number of classes of the integer points of prod [0, box_i) modulo the
    lattice spanned by relation_rows, classified by pairwise differences."""
    reps = []
    for pt in product(*[range(b) for b in box]):
        diff_known = any(
            in_span_z([a - b for a, b in zip(pt, rep)], relation_rows)
            for rep in reps)
        if not diff_known:
            reps.append(pt)
    return len(reps)


def brute_force_saturation_member(vec, basis_rows, k_max=24):
    """Does some positive multiple k * vec (k <= k_max) land in the lattice?"""
    return any(in_span_z([k * v for v in vec], basis_rows)
               for k in range(1, k_max + 1))


def naive_determinant(rows):
    """Cofactor-expansion determinant over exact rationals."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        total += (-1) ** j * Fraction(rows[0][j]) * naive_determinant(minor)
    return total


def elementary_row_hnf(rows):
    """Row Hermite form by literal elementary operations; returns sorted
    nonzero rows reduced above pivots.  Written independently of the package
    (repeated gcd steps, explicit loops)."""
    mat = [list(map(int, r)) for r in rows]
    if not mat:
        return []
    width = len(mat[0])
    done = []
    col = 0
    while mat and col < width:
        mat = [r for r in mat if any(r)]
        with_col = [r for r in mat if r[col] != 0]
        without = [r for r in mat if r[col] == 0]
        if not with_col:
            col += 1
            continue
        while len(with_col) > 1:
            with_col.sort(key=lambda r: abs(r[col]))
            base = with_col[0]
            new = [base]
            for r in with_col[1:]:
                f = r[col] // base[col]
                reduced = [a - f * b for a, b in zip(r, base)]
                if reduced[col] != 0:
                    new.append(reduced)
                elif any(reduced):
                    without.append(reduced)
            with_col = new
        lead = with_col[0]
        if lead[col] < 0:
            lead = [-a for a in lead]
        done.append(lead)
        mat = without
        col += 1
    # reduce above pivots
    for i in range(len(done)):
        p = next(j for j, a in enumerate(done[i]) if a)
        for k in range(i):
            f = done[k][p] // done[i][p]
            if f:
                done[k] = [a - f * b for a, b in zip(done[k], done[i])]
    return [tuple(r) for r in done]


def theta_solutions(cover, w):
    """All exponent vectors theta in (Q/Z)^d with q*theta = (w Fr)^T theta.

    Enumerated by solving (q I - (w Fr)^T) theta = z over Q for integer
    vectors z ranging over cosets of the column lattice of that matrix.
    """
    from whitdim.lattice import Sublattice, coset_representatives, hermite_normal_form
    from whitdim.lattice import mat_mul, transpose as ttranspose

    d = cover.rank
    wf_t = ttranspose(mat_mul(w, cover.datum.fr.matrix))
    a_mat = [[cover.q * (i == j) - wf_t[i][j] for j in range(d)] for i in range(d)]
    column_lattice = hermite_normal_form(transpose(a_mat), d)
    seen = set()
    out = []
    for z in coset_representatives(Sublattice.full(d), column_lattice):
        sol = rational_solve(a_mat, z)
        theta = tuple(Fraction(c) % 1 for c in sol)
        if theta not in seen:
            seen.add(theta)
            out.append(theta)
    return out


def twisted_centralizer_fixing(weyl_elements, w, frobenius, theta):
    """Nonidentity Weyl elements m with m (w Fr) = (w Fr) m and m^T theta =
    theta mod 1, by a literal scan with explicit matrix products over the
    integers and exponents as exact rationals."""
    d = len(theta)

    def times(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
                     for i in range(d))

    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    wf = times(w, frobenius)
    found = []
    for m in weyl_elements:
        if m == identity or times(m, wf) != times(wf, m):
            continue
        image = tuple(sum(m[j][i] * theta[j] for j in range(d)) for i in range(d))
        if all((a - b) % 1 == 0 for a, b in zip(image, theta)):
            found.append(m)
    return found


def glr_dimension_scan(r, q, n, bold_p, bold_q, a):
    """Least k > 0 with m k (q^r - 1)/n = a (q^s - 1) mod q^r - 1 for some
    0 <= s < r, m = 2 bold_p + (r - 1) bold_q, by trying k = 1, 2, ... up to
    n / gcd(n, m), where s = 0 always holds."""
    m = 2 * bold_p + (r - 1) * bold_q
    modulus = q ** r - 1
    step = modulus // n
    bound = n // gcd(n, m)
    targets = {a * (pow(q, s, modulus) - 1) % modulus for s in range(r)}
    for k in range(1, bound + 1):
        if m * k * step % modulus in targets:
            return k
    raise RuntimeError("scan exhausted below the divisibility bound")


def residual_splits_reference(cover, x):
    """Whether coroot -> root(x) Q(coroot) extends to a Frobenius-equivariant
    homomorphism Y -> Z, with the rows and right sides derived directly from
    the roots integral at x (explicit rational root values, Q read off the
    gram matrix), not from the extended-coroot table.  None when x is not
    fixed by Frobenius."""
    from whitdim.lattice import hermite_normal_form

    rd = cover.datum
    d = rd.rank
    f = rd.fr.matrix
    point = tuple(Fraction(c) for c in x)
    if any(sum(f[i][j] * point[j] for j in range(d)) != point[i] for i in range(d)):
        return None
    gram = cover.form.gram
    rows, rhs = [], []
    for root, coroot in zip(rd.roots, rd.coroots):
        value = sum(a * c for a, c in zip(root, point))
        if value.denominator != 1:
            continue
        q_coroot = sum(coroot[i] * gram[i][j] * coroot[j]
                       for i in range(d) for j in range(d)) // 2
        rows.append(coroot)
        rhs.append(int(value) * q_coroot)
    for i in range(d):
        rows.append(tuple(f[j][i] - (i == j) for j in range(d)))
        rhs.append(0)
    # solvability of rows . k = rhs over Z: rhs must lie in the column lattice
    return hermite_normal_form(transpose(rows), len(rows)).contains_vector(rhs)
