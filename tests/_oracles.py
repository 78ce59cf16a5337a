"""Slow-but-obvious reference implementations used as independent oracles.

Nothing in here calls the package's normal-form machinery: membership is
decided by textbook Gaussian elimination over exact rationals, and coset
counting classifies the points of an explicit box by pairwise differences.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from whitdim.cover import m_qr
from whitdim.errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from whitdim.whittaker import MAX_ORACLE_SCAN, _check_glr_dim_args

#: (r, q) of the table checks.  q = 2 (P = M) and r = 1 (P = 1) are the
#: extremes of the residue period P = (q^r - 1)/(q - 1); the last five have
#: P much smaller than M, and q = 49 is a prime power that is not a prime.
TABLE_CASES = ((1, 2), (2, 2), (3, 2), (4, 2), (1, 5), (2, 5), (3, 3), (4, 3),
               (2, 4), (3, 4), (2, 7), (3, 5), (2, 9), (2, 13),
               (3, 7), (3, 13), (4, 5), (2, 31), (2, 49))
#: (bold_p, bold_q) of the table checks.
TABLE_FORMS = ((0, 1), (1, 0), (-2, 3), (0, 0))


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


def oracle_scan_fractions(r, q, n, bold_p, bold_q, a):
    """`wh_dim_oracle` as it was written with `Fraction`s: the same checks,
    guard and errors, then e^(2 pi i m k / n) * theta_1 = theta_1^(q^s)
    tested as equality of `Fraction`s mod 1 for k = 1, 2, ... up to n."""
    _check_glr_dim_args(r, q, n, a)
    m = m_qr(r, bold_p, bold_q)
    steps = n // gcd(n, m)
    if steps > MAX_ORACLE_SCAN:
        raise ResourceLimitError(
            f"the oracle's scan of n/gcd(n, m) = {steps} steps exceeds the guard "
            f"{MAX_ORACLE_SCAN}")
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


def glr_general_position(r, q, a):
    """The congruence test a (q^s - 1) != 0 mod q^r - 1 for 0 < s < r, with
    plain powers: general position of the exponent-a character of the
    Coxeter torus of GL_r."""
    modulus = q ** r - 1
    return all(a * (q ** s - 1) % modulus for s in range(1, r))


def integral_roots_reference(rd, x):
    """(index, root(x)) for each root integral at x, each value an explicit
    sum of rational products whose denominator is 1; None when x is not
    fixed by Frobenius."""
    d = rd.rank
    f = rd.fr.matrix
    point = tuple(Fraction(c) for c in x)
    if any(sum(f[i][j] * point[j] for j in range(d)) != point[i] for i in range(d)):
        return None
    values = [sum(Fraction(a) * c for a, c in zip(root, point)) for root in rd.roots]
    return [(i, int(v)) for i, v in enumerate(values) if v.denominator == 1]


def residual_extension_reference(cover, x):
    """(phi_x, iota) with Q read off the gram matrix; None when x is not
    fixed by Frobenius."""
    integral = integral_roots_reference(cover.datum, x)
    if integral is None:
        return None
    gram = cover.form.gram
    iota = []
    for i, value in integral:
        coroot = cover.datum.coroots[i]
        q_coroot = sum(a * gram[k][m] * b for k, a in enumerate(coroot)
                       for m, b in enumerate(coroot)) // 2
        iota.append(coroot + (value * q_coroot,))
    return tuple(i for i, _ in integral), tuple(iota)


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
    reference = residual_extension_reference(cover, x)
    if reference is None:
        return None
    rows = [v[:-1] for v in reference[1]]
    rhs = [v[-1] for v in reference[1]]
    for i in range(d):
        rows.append(tuple(f[j][i] - (i == j) for j in range(d)))
        rhs.append(0)
    # solvability of rows . k = rhs over Z: rhs must lie in the column lattice
    return hermite_normal_form(transpose(rows), len(rows)).contains_vector(rhs)


def prime_power_base_trial(q):
    """The unique prime p with q = p^e by trial division up to sqrt(q), or
    raise MathConstraintError with the same messages as the package."""
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


def orbit_search_reference(cover, w, theta, weyl_elements):
    """The orbit search written out literally, in exact rationals.

    theta is mapped by every Weyl element m (m^T theta, entries mod 1).  The
    parameter is in general position when no element other than the identity
    fixes theta and commutes with w Fr; then the result maps each coset
    representative y of L / (L meet Y_{Q,n}), L = Y^{W x Fr}, to whether its
    twist theta + (gram . y)/n lies in the orbit.  Otherwise the result is
    None.
    """
    from whitdim.cover import y_qn
    from whitdim.lattice import coset_representatives, intersect
    from whitdim.root_datum import weyl_frobenius_fixed_lattice

    d = len(theta)
    theta = tuple(Fraction(t) % 1 for t in theta)

    def times(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d))
                     for i in range(d))

    # entry i of m^T theta is column i of m dotted with theta.  Weyl elements
    # share few distinct columns, so each dot product is made once, and each
    # distinct value gets a number, so that images compare as number tuples
    number, column_number = {}, {}

    def act(m):
        image = []
        for column in zip(*m):
            if column not in column_number:
                value = sum(c * t for c, t in zip(column, theta)) % 1
                column_number[column] = number.setdefault(value, len(number))
            image.append(column_number[column])
        return tuple(image)

    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    start = act(identity)
    wf = times(w, cover.datum.fr.matrix)
    orbit = set()
    for m in weyl_elements:
        image = act(m)
        orbit.add(image)
        if image == start and m != identity and times(m, wf) == times(wf, m):
            return None
    lat = weyl_frobenius_fixed_lattice(cover.datum)
    gram, n = cover.form.gram, cover.n
    passes = {}
    for y in coset_representatives(lat, intersect(lat, y_qn(cover))):
        twisted = tuple((t + Fraction(sum(gram[i][j] * y[j] for j in range(d)), n)) % 1
                        for i, t in enumerate(theta))
        passes[y] = tuple(number.get(v) for v in twisted) in orbit
    return passes


def _naive_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _reflection_matrix(root, coroot):
    """I - coroot root^T, entry by entry: y -> y - <root, y> coroot on Y."""
    d = len(root)
    return [[int(j == k) - coroot[j] * root[k] for k in range(d)] for j in range(d)]


def simple_reflection_matrices(rd):
    """The matrices I - coroot_i root_i^T of the simple reflections on Y, as
    tuples of rows."""
    return [tuple(map(tuple, _reflection_matrix(rd.roots[i], rd.coroots[i])))
            for i in rd.simple_indices]


def form_invariance_failure(datum, gram):
    """The message of the first invariance check that the gram matrix fails,
    or None: G is conjugated by the matrix of each simple reflection, then by
    Frobenius, with explicit matrix products, and compared with itself."""
    gram = [list(row) for row in gram]

    def conjugate(m):
        return _naive_product(transpose(m), _naive_product(gram, m))

    for i in datum.simple_indices:
        if conjugate(_reflection_matrix(datum.roots[i], datum.coroots[i])) != gram:
            return "form is not invariant under the Weyl group"
    if conjugate(datum.fr.matrix) != gram:
        return "form is not invariant under Frobenius"
    return None


def permutation_blocks_reference(rd):
    """The blocks of coordinates joined by the simple reflections, when the
    matrix of each one is the transposition of the two coordinates it moves
    (those whose diagonal entry is not 1); None otherwise."""
    d = rd.rank
    block_of = list(range(d))
    for i in rd.simple_indices:
        s = _reflection_matrix(rd.roots[i], rd.coroots[i])
        moved = [j for j in range(d) if s[j][j] != 1]
        if len(moved) != 2:
            return None
        a, b = moved
        swap = [[int(k == {a: b, b: a}.get(j, j)) for k in range(d)] for j in range(d)]
        if s != swap:
            return None
        old, new = block_of[a], block_of[b]
        block_of = [new if x == old else x for x in block_of]
    blocks = {}
    for j, x in enumerate(block_of):
        blocks.setdefault(x, []).append(j)
    return tuple(sorted(tuple(block) for block in blocks.values()))


def glr_invariants_reference(datum, form):
    """(bold_p, bold_q) when the roots and their coroots are exactly those of
    a freshly built GL_r datum and the form has one diagonal and at most one
    off-diagonal value, else None."""
    from whitdim.root_datum import build_glr

    r = datum.rank
    glr = build_glr(r)
    if (set(datum.roots) != set(glr.roots)
            or dict(zip(datum.roots, datum.coroots)) != dict(zip(glr.roots, glr.coroots))):
        return None
    g = form.gram
    diag = {g[i][i] for i in range(r)}
    off = {g[i][j] for i in range(r) for j in range(r) if i != j}
    if len(diag) != 1 or len(off) > 1:
        return None
    return diag.pop() // 2, off.pop() if off else 0
