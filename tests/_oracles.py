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
#: (r, q) whose rows cross the renderer's windows of 1,000 representatives
#: block by block: (4, 19) has P = 7,240 and six-digit representatives
#: (M = 130,320), (3, 32) has P = 1,057, and (10, 2) is one block,
#: P = M = 1,023.
TABLE_WINDOW_CASES = ((4, 19), (3, 32), (10, 2))


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


def lattice_contains(outer, inner):
    """Is every basis row of the sublattice inner an integer combination of
    the basis rows of outer?"""
    return all(in_span_z(row, outer.basis) for row in inner.basis)


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


def table_blocks_by_filter(table):
    """(base, residues) for base = 0, P, 2P, ... below M: the entries
    (c, limit, dimension) of a :class:`GLrTable`'s ``emitting`` with
    base + c < limit, found by testing every entry still live at each
    block, with no reach schedule."""
    residues = list(table.emitting)
    blocks = []
    for base in range(0, table.modulus, table.period):
        residues = [entry for entry in residues if base + entry[0] < entry[1]]
        blocks.append((base, residues))
    return blocks


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


def coxeter_cycle_reference(r):
    """The dense r x r matrix of the cycle i -> i - 1 mod r: row i holds its
    one 1 in column (i - 1) mod r."""
    return tuple(tuple(1 if j == (i - 1) % r else 0 for j in range(r)) for i in range(r))


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


def coset_scan_reference(cover, param):
    """The orbit route by a scan of cosets: (lattice, index) of the subgroup
    of L = Y^{W x Fr} whose twist keeps theta in its Weyl orbit.

    Every coset y of L / (L meet Y_{Q,n}) is twisted, theta + (gram . y)/n,
    and tested with the library's orbit test; the passing cosets must be a
    subgroup, checked by the index of the lattice they generate with
    L meet Y_{Q,n}.  Raises :class:`GeneralPositionError` as ``y_x_rho``
    does, and :class:`ResourceLimitError` past the coset guard.
    """
    from whitdim.lattice import coset_representatives, hermite_normal_form, index, mat_vec
    from whitdim.whittaker import _orbit_pass

    denom, tnum, in_orbit = _orbit_pass(cover, param)
    if in_orbit is None:
        raise GeneralPositionError("parameter is not in general position")
    lat, sub = cover._invariant_lattices
    reps = coset_representatives(lat, sub)
    scale = denom // cover.n
    passing = [y for y in reps
               if in_orbit([(t + scale * c) % denom
                            for t, c in zip(tnum, mat_vec(cover.form.gram, y))])]
    assert passing and not any(passing[0]), "the zero coset did not pass"
    assert len(reps) % len(passing) == 0, "the passing count does not divide the quotient"
    lattice = hermite_normal_form(list(sub.basis) + passing, cover.rank)
    idx = len(reps) // len(passing)
    assert index(lat, lattice) == idx, "the passing cosets are no subgroup"
    return lattice, idx


def _naive_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def frobenius_inverse_dense(mat, limit=24):
    """F^-1 for an integer matrix F of finite order k: the power F^(k-1)
    before the first power that is the identity, each power a dense
    product; None when no power up to ``limit`` is the identity."""
    d = len(mat)
    identity = [[int(i == j) for j in range(d)] for i in range(d)]
    previous, power = identity, [list(row) for row in mat]
    for _ in range(limit):
        if power == identity:
            return previous
        previous, power = power, _naive_product(power, mat)
    return None


def frobenius_refusal_reference(roots, coroots, simple, mat):
    """The message of the first Frobenius check of validation that F fails,
    or None: F permutes the coroots, F preserves the simple coroots, and
    F^-T, with F^-1 from :func:`frobenius_inverse_dense`, permutes the
    roots.  Every image is a dense product with a column vector."""
    def images(m, vectors):
        return {tuple(row[0] for row in _naive_product(m, [[x] for x in v])) for v in vectors}

    roots, coroots = set(map(tuple, roots)), list(map(tuple, coroots))
    simple_coroots = [coroots[i] for i in simple]
    if images(mat, coroots) != set(coroots):
        return "Frobenius does not permute the coroots"
    if images(mat, simple_coroots) != set(simple_coroots):
        return "Frobenius does not preserve the simple coroots"
    if images(transpose(frobenius_inverse_dense(mat)), roots) != roots:
        return "the dual Frobenius does not permute the roots"
    return None


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


def invariant_indices_by_meets(cover):
    """(central index, lower, upper) as lattice indices of explicit meets:
    [Y^Fr : Y^Fr meet Y_{Q,n}], and with L = Y^{W x Fr},
    [L : L meet {y : B(y, y') in nZ for all y' in Y^W}] and
    [L : L meet Y_{Q,n}]."""
    from whitdim.cover import y_qn
    from whitdim.lattice import congruence_kernel, index, intersect, mat_vec
    from whitdim.root_datum import (
        frobenius_fixed_lattice,
        weyl_fixed_lattice,
        weyl_frobenius_fixed_lattice,
    )

    rd, n = cover.datum, cover.n
    fixed = frobenius_fixed_lattice(rd)
    central = index(fixed, intersect(fixed, y_qn(cover)))
    lat = weyl_frobenius_fixed_lattice(rd)
    upper = index(lat, intersect(lat, y_qn(cover)))
    rows = [mat_vec(cover.form.gram, b) for b in weyl_fixed_lattice(rd).basis]
    lower = index(lat, intersect(lat, congruence_kernel(rows, n, rd.rank)))
    return central, lower, upper


def raised_pairs(roots, coroots, simple):
    """The positive (root, coroot) pairs, found by raising the simple pairs:
    s_i beta = beta - c alpha_i with c = <beta, alpha_i^vee> < 0 raises the
    height by -c, and every positive root is reached this way (Humphreys,
    Lie Algebras, 10.2).  A map from each positive root to its coroot
    s_i^vee beta^vee and its height, or None when a raised root is not among
    the roots."""
    given = set(map(tuple, roots))
    pairs = [(tuple(roots[i]), tuple(coroots[i])) for i in simple]
    found = {root: (coroot, 1) for root, coroot in pairs}
    frontier = list(found)
    while frontier:
        root = frontier.pop()
        coroot, height = found[root]
        for sroot, scoroot in pairs:
            c = sum(a * b for a, b in zip(root, scoroot))
            if c < 0:
                image = tuple(a - c * b for a, b in zip(root, sroot))
                if image not in given:
                    return None
                if image not in found:
                    cc = sum(a * b for a, b in zip(sroot, coroot))
                    found[image] = (tuple(a - cc * b for a, b in zip(coroot, scoroot)),
                                    height - c)
                    frontier.append(image)
    return found


def is_root_datum_reference(roots, coroots, simple):
    """Are the given pairs exactly the raised pairs and their negatives?"""
    raised = raised_pairs(roots, coroots, simple)
    if raised is None:
        return False
    expected = {}
    for root, (coroot, _) in raised.items():
        expected[root] = coroot
        expected[tuple(-x for x in root)] = tuple(-x for x in coroot)
    return expected == dict(zip(map(tuple, roots), map(tuple, coroots)))


def weyl_order_by_raising(rd):
    """|W| as the product of the degrees m_i + 1, with as many exponents at
    least h as there are positive roots of height h, the heights found by
    raising the simple roots."""
    heights = [h for _, h in raised_pairs(rd.roots, rd.coroots, rd.simple_indices).values()]
    order = 1
    for h in range(1, max(heights, default=0) + 1):
        order *= (h + 1) ** (heights.count(h) - heights.count(h + 1))
    return order


def reflection_image_failure(roots, coroots, simple):
    """The message of the first simple reflection s_i that sends a coroot,
    then a root, outside its set, each image y - <root_i, y> coroot_i and
    x - <x, coroot_i> root_i written out entry by entry; None when every
    simple reflection maps both sets into themselves."""
    root_set, coroot_set = set(map(tuple, roots)), set(map(tuple, coroots))
    for i in simple:
        a, av = roots[i], coroots[i]
        for y in coroots:
            k = sum(p * q for p, q in zip(a, y))
            if tuple(p - k * q for p, q in zip(y, av)) not in coroot_set:
                return f"simple reflection {i} does not permute the coroots"
        for x in roots:
            k = sum(p * q for p, q in zip(x, av))
            if tuple(p - k * q for p, q in zip(x, a)) not in root_set:
                return f"simple reflection {i} does not permute the roots"
    return None


def rational_rank(rows):
    """Rank over Q of integer rows, by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def close_root_system_dense(simple_pairs):
    """(roots, coroots, simple indices) of the root system generated by the
    simple (root, coroot) pairs: the breadth-first orbit closure under the
    simple reflections, each pairing a dense dot product, the pairs found
    deduplicated as pairs.  The builders of SL_r and Sp_2r closed their
    simple pairs this way before validation's walk grew them."""
    pairs = [(tuple(root), tuple(coroot)) for root, coroot in simple_pairs]
    found, seen = list(pairs), set(pairs)
    for root, coroot in found:
        for sroot, scoroot in pairs:
            c = sum(a * b for a, b in zip(root, scoroot))
            cc = sum(a * b for a, b in zip(sroot, coroot))
            if c or cc:
                image = (tuple(a - c * b for a, b in zip(root, sroot)),
                         tuple(a - cc * b for a, b in zip(coroot, scoroot)))
                if image not in seen:
                    seen.add(image)
                    found.append(image)
    roots, coroots = zip(*found)
    return roots, coroots, tuple(range(len(pairs)))


def lambda_lattice_reference(cover, x):
    """The basis of the span of the extended coroots at x, as it was built
    before Lambda_x was kept: the Hermite form, by elementary operations, of
    the rows of iota of the positive integral roots, with iota from
    :func:`residual_extension_reference`.  None when x is not fixed by
    Frobenius."""
    reference = residual_extension_reference(cover, x)
    if reference is None:
        return None
    heights = cover.datum.heights
    return tuple(elementary_row_hnf([row for i, row in zip(*reference) if heights[i] > 0]))


def is_vertex_reference(rd, x):
    """Do the positive roots integral at x span the semisimple rank, that is
    the number of simple roots?  The vertex test as it was, by the rational
    rank of those roots; None when x is not fixed by Frobenius."""
    integral = integral_roots_reference(rd, x)
    if integral is None:
        return None
    positive = [rd.roots[i] for i, _ in integral if rd.heights[i] > 0]
    return rational_rank(positive) == len(rd.simple_indices)


def canonical_basis_refusal(d, basis):
    """(exception type, message) that ``Sublattice(d, basis)`` raises, or
    None when the basis is canonical; the message is None for a TypeError.
    The checks run in stages: the ambient rank an integer, then positive,
    every entry an integer, every row of length d, then row by row a nonzero
    row, a pivot right of the last one, a positive pivot and reduced entries
    above it."""
    if not isinstance(d, int):
        return TypeError, None
    if d < 1:
        return ValueError, "ambient rank must be a positive integer"
    if any(not isinstance(x, int) for row in basis for x in row):
        return TypeError, None
    if any(len(row) != d for row in basis):
        return ValueError, "basis rows must all have the ambient length"
    last = -1
    for k, row in enumerate(basis):
        nonzero = [j for j in range(d) if row[j] != 0]
        if not nonzero:
            return ValueError, "zero rows are not allowed in a canonical basis"
        p = nonzero[0]
        if p <= last:
            return ValueError, "basis is not in echelon order"
        if row[p] < 0:
            return ValueError, "pivots must be positive"
        if any(not 0 <= basis[i][p] < row[p] for i in range(k)):
            return ValueError, "entries above a pivot must be reduced"
        last = p
    return None
