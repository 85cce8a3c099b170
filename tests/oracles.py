"""Independent reference computations for the test suite.

The acceptance suite takes its expected values only from here or from frozen
constants. Everything here is deliberately written by a different route than
the package code: cofactor expansion instead of fraction-free elimination,
explicit row elimination instead of the Schur formula, the adjugate instead
of a bordered Schur complement, nonzero minors instead of an elimination
rank, gcds of principal Pfaffians instead of the skew normal form's
congruence moves, congruence diagonalization and Descartes' rule on
det(t*I - A) from cofactor values instead of inertia summed over Schur
complements, long division by z on coefficient lists instead of rewriting in
z, series products, logs and exps on plain coefficient lists, every
permutation of legs instead of distinct gluings, every exponent vector
instead of one walk per strut monomial, and the Fraction-series wheel
translation (c(h) as the reciprocal of 2 sinh(h/2) / h, times nabla(e^(h/2))
as one dense product, O(D^2) Fraction log and exp recurrences on coefficient
lists, peeling powers of z^2) instead of the integer central factorial,
exponential-form and Bernoulli route. No oracle calls the package's
c_series, wheels_from_series or w_nabla. Seifert matrices of positive braid
closures come with answers from knot theory rather than from their own
determinant: for torus knots, the closed form of the Alexander polynomial
and the Brieskorn count of the signature; for any positive braid knot, the
reduced Burau matrix of the braid. The generators (unimodular conjugation,
ladder Seifert matrices, handle slides and blow-ups) build inputs whose
answer is known by construction or unchanged by the move.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, floor, gcd, lcm

from nabla_lmo.errors import DomainError
from nabla_lmo.gaussian import DUAL_MARK, StrutPolynomial, dual_label
from nabla_lmo.hseries import HSeries, substitute_exp
from nabla_lmo.laurent import HalfLaurent, ZPoly
from nabla_lmo.wheels import WheelSeries, rescale_degree


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion. Entries may live in any
    commutative ring with +, -, * and an `is_zero`-like falsy scalar 0;
    `one` is the multiplicative identity for the empty matrix."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def rank_by_minors(a):
    """Size of the largest square submatrix with nonzero cofactor determinant."""
    n, m = len(a), len(a[0]) if a else 0
    for k in range(min(n, m), 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                if det_cofactor([[a[r][c] for c in cols] for r in rows]) != 0:
                    return k
    return 0


def pfaffian(a):
    """Pfaffian of a skew-symmetric matrix of even size by expansion along
    the first row: sum over j of (-1)^(j+1) a[0][j] pf(a without rows and
    columns 0 and j); 1 for the empty matrix."""
    n = len(a)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        if a[0][j]:
            keep = [k for k in range(1, n) if k != j]
            minor = [[a[r][c] for c in keep] for r in keep]
            total += (-1) ** (j + 1) * a[0][j] * pfaffian(minor)
    return total


def skew_divisors_by_pfaffians(a):
    """Elementary divisors of an integer skew-symmetric matrix from Pfaffian
    gcds: g_i is the gcd of the Pfaffians of all 2i x 2i principal
    submatrices, and d_i = g_i / g_(i-1) up to the first g_i that is 0. The
    gcd is invariant under unimodular congruence, and on the block normal
    form it is d_1 ... d_i."""
    n = len(a)
    divisors, previous = [], 1
    for i in range(1, n // 2 + 1):
        g = 0
        for keep in combinations(range(n), 2 * i):
            g = gcd(g, pfaffian([[a[r][c] for c in keep] for r in keep]))
        if g == 0:
            break
        divisors.append(g // previous)
        previous = g
    return tuple(divisors)

def matmul(a, b):
    """Matrix product of two rational matrices, as a tuple of tuples."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def adjugate_inverse(a):
    """A^-1 = adj(A)/det(A) with every cofactor from ``det_cofactor``."""
    n = len(a)
    d = det_cofactor(a)

    def minor(i, j):
        return [[a[r][c] for c in range(n) if c != j] for r in range(n) if r != i]

    return tuple(
        tuple((-1) ** (i + j) * det_cofactor(minor(j, i)) / d for j in range(n))
        for i in range(n)
    )


def eliminate_block(entries, k):
    """Remove the first k rows/columns of a symmetric matrix by plain
    Gaussian row elimination, pivoting anywhere inside the leading k x k
    block, and return the surviving bottom-right block."""
    a = [[Fraction(x) for x in row] for row in entries]
    n = len(a)
    done_rows: set = set()
    done_cols: set = set()
    for _ in range(k):
        pivot = None
        for i in range(k):
            if i in done_rows:
                continue
            for j in range(k):
                if j not in done_cols and a[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            raise ZeroDivisionError("leading block is singular")
        p, q = pivot
        for i in range(n):
            if i == p or i in done_rows:
                continue
            factor = a[i][q] / a[p][q]
            if factor:
                a[i] = [a[i][c] - factor * a[p][c] for c in range(n)]
        done_rows.add(p)
        done_cols.add(q)
    return tuple(tuple(a[i][j] for j in range(k, n)) for i in range(k, n))


def signature_by_congruence(a):
    """(positive, negative) eigenvalue counts of a symmetric rational matrix
    by exact congruence diagonalization: pivot on a nonzero diagonal entry,
    or, when every remaining diagonal entry vanishes, add a row and column
    with a nonzero off-diagonal entry onto another to make one."""
    n = len(a)
    w = [[Fraction(x) for x in row] for row in a]
    active = list(range(n))
    pos = neg = 0
    while active:
        piv = next((i for i in active if w[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for ai, i in enumerate(active) for j in active[ai + 1 :] if w[i][j] != 0),
                None,
            )
            if pair is None:
                break  # remaining block is zero
            i, j = pair
            # all diagonals vanish here, so afterwards w[i][i] = 2*w[i][j] != 0
            for k in range(n):
                w[i][k] += w[j][k]
            for k in range(n):
                w[k][i] += w[k][j]
            continue
        d = w[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(piv)
        for r in active:
            if w[r][piv] != 0:
                f = w[r][piv] / d
                for k in range(n):
                    w[r][k] -= f * w[piv][k]
                for k in range(n):
                    w[k][r] -= f * w[k][piv]
    return pos, neg


def signature_by_descartes(a):
    """(positive, negative) eigenvalue counts of a symmetric rational matrix
    by Descartes' rule of signs, exact here because every root of
    chi(t) = det(t*I - A) is real: the sign changes of chi(t) count the
    positive roots and those of chi(-t) the negative ones. chi comes from its
    values at t = 0..n by cofactor expansion, then from their forward
    differences: chi(t) = sum_k D^k chi(0) * t(t-1)...(t-k+1)/k!. A is first
    scaled by the lcm of its denominators, which keeps the counts and puts
    the cofactor expansion on integers."""
    n = len(a)
    a = [[Fraction(x) for x in row] for row in a]
    scale = lcm(*(x.denominator for row in a for x in row))
    values = [
        det_cofactor([[t * (i == j) - int(a[i][j] * scale) for j in range(n)] for i in range(n)])
        for t in range(n + 1)
    ]
    coeffs = [Fraction(0)] * (n + 1)
    falling = [Fraction(1)]  # t(t-1)...(t-k+1)/k!, lowest power first
    for k in range(n + 1):
        for i, c in enumerate(falling):
            coeffs[i] += values[0] * c
        values = [y - x for x, y in zip(values, values[1:])]
        # the next falling factorial: times (t - k) / (k + 1)
        falling = [(x - k * y) / (k + 1) for x, y in zip([0] + falling, falling + [0])]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return sign_changes(coeffs), sign_changes([-c if i % 2 else c for i, c in enumerate(coeffs)])


def sinh_ratio_coeffs(order):
    """Coefficients of 2*sinh(h/2)/h = sum_k h^(2k) / (4^k (2k+1)!)."""
    out = [Fraction(0)] * (order + 1)
    k = 0
    while 2 * k <= order:
        out[2 * k] = Fraction(1, 4**k * factorial(2 * k + 1))
        k += 1
    return out


def invert_coeffs(a):
    """Multiplicative inverse of a coefficient list by forward substitution:
    b_0 = 1/a_0, then sum_{j<=m} a_j b_(m-j) = 0."""
    if a[0] == 0:
        raise ZeroDivisionError("no inverse: zero constant term")
    b = [Fraction(1) / a[0]]
    for m in range(1, len(a)):
        acc = Fraction(0)
        for j in range(1, m + 1):
            acc += a[j] * b[m - j]
        b.append(-acc / a[0])
    return b


def mul_coeffs(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            out[i + j] += x * y
    return out


def divide_by_z(coeffs):
    """Exact quotient of p = sum_i coeffs[i] u^i by z = u - u^(-1), where
    u = t^(1/2): the list q with p = z * sum_j q[j] u^(j+1), by long division
    from the top. DomainError on a nonzero remainder. The quotient's
    exponents sit one above the list index, so the caller tracks that shift."""
    r = [Fraction(c) for c in coeffs]
    q = [Fraction(0)] * max(len(r) - 2, 0)
    for j in reversed(range(len(q))):
        q[j] = r[j + 2]
        r[j + 2] -= q[j]
        r[j] += q[j]
    if any(r):
        raise DomainError("not divisible by z")
    return q


def log_coeffs(a, order):
    """log of a coefficient list with a_0 = 1, via the alternating power sum
    log(1+u) = u - u^2/2 + u^3/3 - ..."""
    assert a[0] == 1
    u = [Fraction(0)] + [Fraction(x) for x in a[1 : order + 1]]
    u += [Fraction(0)] * (order + 1 - len(u))
    out = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        power = mul_coeffs(power, u, order)
        sign = Fraction(-1) ** (k + 1)
        for m in range(order + 1):
            out[m] += sign * power[m] / k
    return out


def log_recurrence(a):
    """log of a coefficient list with a_0 = 1 by the recurrence
    m l_m = m a_m - sum_(0<k<m) k l_k a_(m-k), in Fractions."""
    if a[0] != 1:
        raise DomainError("log needs constant term 1")
    out = [Fraction(0)] * len(a)
    for m in range(1, len(a)):
        acc = Fraction(0)
        for k in range(1, m):
            if out[k] != 0 and a[m - k] != 0:
                acc += k * out[k] * a[m - k]
        out[m] = a[m] - acc / m
    return out


def exp_recurrence(a):
    """exp of a coefficient list with a_0 = 0 by the recurrence
    m e_m = sum_(0<k<=m) k a_k e_(m-k), in Fractions."""
    if a[0] != 0:
        raise DomainError("exp needs a zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for m in range(1, len(a)):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if a[k] != 0:
                acc += k * a[k] * out[m - k]
        out[m] = acc / m
    return out


@lru_cache(maxsize=None)
def c_coeffs(order):
    """c(h) = h / (2 sinh(h/2)) as the reciprocal of its closed-form inverse;
    cached, since several tests need it at order 256."""
    return tuple(invert_coeffs(sinh_ratio_coeffs(order)))


def wheels_by_log(f):
    """``wheels_from_series`` by the Fraction log of f's coefficients:
    a_n = -l_n / 2, with the same checks and error texts."""
    if f[0] != 1:
        raise DomainError("series must have constant term 1")
    logs = log_recurrence(f)
    odd = next((m for m in range(1, len(logs), 2) if logs[m] != 0), None)
    if odd is not None:
        raise DomainError(
            f"log of the series has a nonzero term at odd order {odd}; "
            "no even wheel series maps onto it"
        )
    return WheelSeries({m: -logs[m] / 2 for m in range(2, len(logs), 2)})


def w_nabla_by_exp(w, order):
    """``w_nabla`` on a WheelSeries by the Fraction exp of
    sum -2 a_n h^n, as a coefficient list."""
    cs = [Fraction(0)] * (order + 1)
    for n, a in w.coefficients.items():
        if n <= order:
            cs[n] = -2 * a
    return exp_recurrence(cs)


def cosh_minus_coeffs(order):
    """2*cosh(h) - 2 = sum_{m even >= 2} 2 h^m / m!."""
    out = [Fraction(0)] * (order + 1)
    for m in range(2, order + 1, 2):
        out[m] = Fraction(2, factorial(m))
    return out


def sequence_poly_degree(ys):
    """Degree of the lowest-degree polynomial through (0, y_0), (1, y_1), ...
    via the finite-difference table; -1 when all values are zero."""
    row = [Fraction(y) for y in ys]
    degree = -1
    level = 0
    while row:
        if any(v != 0 for v in row):
            degree = level
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        level += 1
    return degree


def random_unimodular(rng, n, steps=12):
    """Random integer matrix of determinant +-1: shear, swap, and negate
    moves applied to the identity."""
    p = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if n < 2:
        return tuple(tuple(row) for row in p)
    for _ in range(steps):
        move = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if move == 0:
            c = rng.choice((-2, -1, 1, 2))
            p[i] = [p[i][c2] + c * p[j][c2] for c2 in range(n)]
        elif move == 1:
            p[i], p[j] = p[j], p[i]
        else:
            p[i] = [-x for x in p[i]]
    return tuple(tuple(row) for row in p)


def random_symmetric(rng, n, denominators=(1,)):
    """Random symmetric matrix with entries num/den, num in [-3, 3]."""
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-3, 3), rng.choice(denominators))
            a[i][j] = a[j][i] = v
    return tuple(tuple(row) for row in a)


def random_symmetric_input(rng, n):
    """Random symmetric rational matrix of size n: about a third have a zero
    diagonal and about a third are B D B^T of rank below n."""
    kind = rng.randrange(3)
    if kind == 2 and n > 1:
        k = rng.randint(1, n - 1)
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(n)]
        return matmul(matmul(b, random_symmetric(rng, k, denominators=(1, 3))), tuple(zip(*b)))
    a = [list(row) for row in random_symmetric(rng, n, denominators=(1, 2))]
    if kind == 1:
        for i in range(n):
            a[i][i] = Fraction(0)
    return tuple(tuple(row) for row in a)


def ladder_seifert_matrix(rng, genus, components):
    """A Seifert matrix built as the benchmark's genus ladder builds it: a
    random symmetric matrix plus one unit above the diagonal in each of
    ``genus`` 2 x 2 blocks, then n paired row and column shears. V - V^T is
    congruent to ``genus`` unit hyperbolic blocks and a zero block of size
    ``components`` - 1, so the surface is realizable with that genus and
    boundary count."""
    n = 2 * genus + components - 1
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v[i][j] = v[j][i] = rng.randint(-2, 2)
    for b in range(genus):
        v[2 * b][2 * b + 1] += 1
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        v = slide(v, i, j, rng.choice((-1, 1)))
    return v


def slide(a, i, j, sign):
    """Handle slide of component i over component j of the square matrix a:
    row i and then column i gain ``sign`` times row and column j, so the
    framing of i becomes a_ii + 2*sign*a_ij + a_jj. Returns a new list of
    lists."""
    m = [list(row) for row in a]
    m[i] = [x + sign * y for x, y in zip(m[i], m[j])]
    for row in m:
        row[i] += sign * row[j]
    return m


def blow_up(labels, surgery, a, sign, label):
    """A +-1 blow-up: the unknot ``label`` with framing ``sign``, linked with
    nothing, joins the surgery sublink. Returns (labels, surgery, matrix)."""
    n = len(a)
    m = [list(row) + [0] for row in a] + [[0] * n + [sign]]
    return [*labels, label], [*surgery, label], m


def wick_pair_by_permutations(left, right, glue_labels):
    """``gaussian.wick_pair`` by brute force: for each pair of monomials,
    every bijection between the x-legs of the left one and the ∂x-legs of the
    right one, color by color, is one gluing. Same checks and error texts."""
    glue = tuple(dict.fromkeys(str(x) for x in glue_labels))
    gset = set(glue)
    dual_of = {dual_label(x): x for x in glue}

    acc = {}
    for lterm, lc in left.items():
        pure = []
        legs = {x: [] for x in glue}
        for a, b in lterm:
            if a.startswith(DUAL_MARK) or b.startswith(DUAL_MARK):
                raise DomainError("left factor must not contain ∂-labeled legs")
            a_glued, b_glued = a in gset, b in gset
            if a_glued and b_glued:
                raise DomainError(
                    f"left factor contains the strut ({a},{b}) with both legs "
                    "among the glue labels; gluing it would close a circle"
                )
            if a_glued:
                legs[a].append(b)
            elif b_glued:
                legs[b].append(a)
            else:
                pure.append((a, b))
        for rterm, rc in right.items():
            slots = {x: [] for x in glue}
            for idx, (a, b) in enumerate(rterm):
                if a not in dual_of or b not in dual_of:
                    raise DomainError(
                        f"right factor strut ({a},{b}) is not a ∂-labeled strut "
                        "over the glue labels"
                    )
                slots[dual_of[a]].append((idx, 0))
                slots[dual_of[b]].append((idx, 1))
            if any(len(legs[x]) != len(slots[x]) for x in glue):
                continue
            colors = [x for x in glue if legs[x]]
            for perms in product(*(permutations(range(len(legs[x]))) for x in colors)):
                partner = {}
                for x, perm in zip(colors, perms):
                    for leg_idx, slot_idx in enumerate(perm):
                        partner[slots[x][slot_idx]] = legs[x][leg_idx]
                glued = [
                    tuple(sorted((partner[(idx, 0)], partner[(idx, 1)])))
                    for idx in range(len(rterm))
                ]
                key = tuple(sorted(pure + glued))
                acc[key] = acc.get(key, Fraction(0)) + lc * rc
    return StrutPolynomial(acc)


def exp_linear_by_exponents(entries, bound):
    """exp(sum c_i * s_i) truncated at total weight <= bound, for entries
    (strut, c_i, weight w_i): every exponent vector k with k_i * w_i <= bound
    is tried, and those with sum k_i * w_i <= bound contribute the monomial
    prod s_i^k_i with coefficient prod c_i^k_i / k_i!."""
    bound = Fraction(bound)
    ranges = [range(max(0, floor(bound / Fraction(w)) + 1)) for _, _, w in entries]
    acc = {}
    for ks in product(*ranges):
        if sum(k * Fraction(w) for k, (_, _, w) in zip(ks, entries)) > bound:
            continue
        coeff = Fraction(1)
        struts = []
        for k, (s, c, _) in zip(ks, entries):
            coeff *= Fraction(c) ** k / factorial(k)
            struts += [s] * k
        key = tuple(struts)
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return StrutPolynomial(acc)


def mmr_series_by_product(nabla, order):
    """c(h) * nabla(e^(h/2)) as one dense product of Fraction coefficient
    lists, for a Laurent polynomial nabla."""
    f = substitute_exp(nabla, order).coeffs
    return HSeries(mul_coeffs(c_coeffs(order), f, order), order)


def nu_wheels_by_series(order):
    """The unknot normalization as the wheels of c(h): a reciprocal and a log."""
    return wheels_by_log(c_coeffs(order))


def lmo_knot_wheels_by_series(nabla_m, tor_order, order):
    """Knot wheels of ``lmo_wheel_data`` the long way: the log of
    c(h) * nabla(e^(h/2)) as a Fraction series, rescaled by r^(2n)."""
    f = mul_coeffs(c_coeffs(order), substitute_exp(nabla_m.expand(), order).coeffs, order)
    return rescale_degree(wheels_by_log(f), tor_order)


def z_poly_by_peeling(g, max_z_degree):
    """Recognize an even coefficient list c_0..c_D as a polynomial in z^2
    from the bottom: the series of (z^2)^k starts at h^(2k) with coefficient
    1, so coefficients are peeled off one by one against repeated powers of
    z^2."""
    order = len(g) - 1
    if any(g[m] != 0 for m in range(1, order + 1, 2)):
        raise DomainError("series has odd-order terms; not a polynomial in z^2")
    kmax = min(max_z_degree // 2, order // 2)
    z2 = cosh_minus_coeffs(order)
    power = [Fraction(1)] + [Fraction(0)] * order
    residual = [Fraction(c) for c in g]
    b = []
    for k in range(kmax + 1):
        bk = residual[2 * k]
        b.append(bk)
        if bk != 0:
            residual = [r - bk * x for r, x in zip(residual, power)]
        power = mul_coeffs(power, z2, order)
    if any(residual):
        raise DomainError(
            f"series is not a polynomial in z^2 of z-degree <= {max_z_degree} "
            f"at order {order}"
        )
    return ZPoly(0, b)


def nabla_from_wheel_data_by_series(data, max_z_degree):
    """Inverse of the above: undo the rescaling, apply the weight system as a
    Fraction exp, multiply by (e^(h/2) - e^(-h/2))/h, and peel."""
    w = rescale_degree(data.knot_wheels, Fraction(1, data.h1_order))
    g = mul_coeffs(w_nabla_by_exp(w, data.order), sinh_ratio_coeffs(data.order), data.order)
    return z_poly_by_peeling(g, max_z_degree)


#: Torus knots T(p, q) for the braid-closure checks: genus 1 (the trefoil)
#: to 10 (Seifert matrix size 20).
TORUS_KNOTS = ((2, 3), (3, 4), (3, 5), (4, 5), (3, 7), (4, 7), (5, 6))


def torus_braid(p, q):
    """The positive braid word (σ_1 σ_2 ⋯ σ_(p−1))^q on p strands, as
    generator indices; its closure is the torus link T(p, q)."""
    return list(range(1, p)) * q


def positive_braid_seifert(word):
    """Seifert matrix of the closure of the positive braid ``word`` (σ_i
    written as i), from Seifert's algorithm on the closed braid: one disk per
    strand, one band per crossing, and one cycle a(i, j) per pair of
    consecutive σ_i crossings, listed level by level. With a on level i
    spanning crossings p < q and b on level i + 1 spanning r < s:
    V(a, a) = −1; V(a(i, j), a(i, j+1)) = 1; V(a, b) = 1 when p < r < q < s
    and −1 when r < p < s < q; every other entry is 0 (J. Collins, "An
    algorithm for computing the Seifert matrix of a link from a braid
    representation", 2007)."""
    cycles = []
    for i in sorted(set(word)):
        at = [c for c, g in enumerate(word) if g == i]
        cycles += [(i, j, p, q) for j, (p, q) in enumerate(zip(at, at[1:]))]

    def entry(a, b):
        (i, j, p, q), (k, m, r, s) = a, b
        if a == b:
            return -1
        if (k, m) == (i, j + 1):
            return 1
        if k == i + 1 and p < r < q < s:
            return 1
        if k == i + 1 and r < p < s < q:
            return -1
        return 0

    return [[entry(a, b) for b in cycles] for a in cycles]


def burau_alexander(word, strands):
    """(1 − t)·det(I − ψ(β)) for the reduced Burau matrix ψ(β) of the braid
    ``word`` (σ_i written as i) on ``strands`` strands, by cofactor expansion
    over `HalfLaurent`. ψ(σ_i) is the identity except in row i, which holds
    t at column i − 1, −t at column i and 1 at column i + 1. When the closure
    is a knot K this is Δ_K(t)·(1 − tⁿ) up to a unit ±t^k, n the number of
    strands (Burau's formula; see Kassel and Turaev, "Braid groups", ch. 3).
    """
    n = strands - 1
    zero, one, t = HalfLaurent.zero(), HalfLaurent.constant(1), HalfLaurent({2: 1})

    def identity():
        return [[one if r == c else zero for c in range(n)] for r in range(n)]

    psi = identity()
    for i in word:
        g = identity()
        g[i - 1][i - 1] = -t
        if i > 1:
            g[i - 1][i - 2] = t
        if i < n:
            g[i - 1][i] = one
        psi = [[sum((a * g[k][c] for k, a in enumerate(row)), zero) for c in range(n)]
               for row in psi]
    eye = identity()
    return (one - t) * det_cofactor([[e - x for e, x in zip(er, pr)] for er, pr in zip(eye, psi)])


def torus_alexander(p, q):
    """Coefficients of Δ(t) = (t^pq − 1)(t − 1) / ((t^p − 1)(t^q − 1)) for
    the torus knot T(p, q), lowest power first, by exact long division of
    integer coefficient lists."""

    def binomial(n):  # t^n − 1
        return [-1] + [0] * (n - 1) + [1]

    num = mul_coeffs(binomial(p * q), binomial(1), p * q + 1)
    den = mul_coeffs(binomial(p), binomial(q), p + q)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in reversed(range(len(quotient))):
        c = quotient[k] = num[k + len(den) - 1]  # den is monic
        for i, d in enumerate(den):
            num[k + i] -= c * d
    if any(num):
        raise DomainError(f"T({p}, {q}): the closed form left a remainder")
    return quotient


def brieskorn_signature_pair(p, q):
    """(positive, negative) eigenvalue counts of V + Vᵀ for the torus knot
    T(p, q) by the Brieskorn–Hirzebruch lattice count: over 0 < i < p and
    0 < j < q, negative when ½ < i/p + j/q < 3⁄2, positive otherwise (see
    Litherland, "Signatures of iterated torus knots", 1979)."""
    neg = sum(
        1 for i in range(1, p) for j in range(1, q) if p * q < 2 * (i * q + j * p) < 3 * p * q
    )
    return (p - 1) * (q - 1) - neg, neg
