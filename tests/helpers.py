"""Shared oracles for the test suite.

Everything here is implemented independently of the package internals:
determinants use rational Gaussian elimination or fraction-free
(Bareiss) elimination, Pfaffians use explicit perfect-matching sums with
permutation-parity signs or, in `pfaffian` over a `SkewMatrix` of any
ring values, expansion along the first row, and symmetric functions are
expanded in raw exponent dictionaries with local arithmetic helpers.
Agreement between these oracles and the package is what the tests
assert.  Two exceptions use the package's public constructors:
`pfaffian_qtilde` builds Q[I] by `pfaffian` from the package's
`qtilde_pair` as the reference for the minor-sharing builder in
`qtilde`, and the `*_transition_matrix` builders and the pivot-table
solve (`oracle_expand`, `oracle_module_expand`) assemble their columns
from `qtilde` and `qtilde_pair`: they are the reference for the
Pieri-rule expansions of `basisconv`.  `loop_sum_of_products` keeps the
product loop the ring types had before their shared multiply-accumulate
kernel, one dict per product and then one sum per term, over the types'
own key rules: it is the reference for `Combination._sum_of_products`.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations


class BasisError(RuntimeError):
    """Invariant violation: a claimed basis failed to be one."""


def fraction_det(matrix):
    """Determinant by plain Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in matrix]
    h = len(a)
    det = Fraction(1)
    for k in range(h):
        piv = next((r for r in range(k, h) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, h):
            f = a[r][k] / a[k][k]
            if f:
                for j in range(k, h):
                    a[r][j] -= f * a[k][j]
    return det


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by fraction-free elimination.

    All intermediate entries stay integral, so the unimodularity of the
    package's transition matrices is checked without any Fraction.
    """
    m = [list(row) for row in matrix]
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix must be square")
    h = len(m)
    if h == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(h - 1):
        if m[k][k] == 0:
            for r in range(k + 1, h):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, h):
            for j in range(k + 1, h):
                # exact division is guaranteed by the Bareiss identity
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[h - 1][h - 1]


def _dense(basis, rows, columns):
    matrix = tuple(tuple(q.terms.get(r, 0) for q in columns) for r in rows)
    return tuple(basis), tuple(rows), matrix


def module_element(key):
    """The free-module basis element Q[I] * prod_k Q[m_k, m_k] of the key (I, mu)."""
    from qschubert.qtilde import qtilde, qtilde_pair

    i, mu = key
    q = qtilde(i)
    for m in mu:
        q = q * qtilde_pair(m, m)
    return q


def module_keys(d, n):
    """(I, mu), I strict, |I| + 2|mu| = d, all parts <= n, by descending |I|."""
    from qschubert.partitions import enumerate_partitions

    return [
        (i, mu)
        for w in range(d, -1, -2)
        for i in enumerate_partitions(w, max_part=n, strict=True)
        for mu in enumerate_partitions((d - w) // 2, max_part=n)
    ]


def additive_transition_matrix(d, max_part=None):
    """(basis, rows, matrix) of the Q[I] over the partitions of d.

    matrix[r][c] is the coefficient of e-monomial rows[r] in Q[basis[c]],
    truncated to parts <= max_part when a bound is given.  Both index
    sets are the partitions of d with parts <= bound, in descending
    lexicographic order.
    """
    from qschubert.partitions import enumerate_partitions
    from qschubert.qtilde import qtilde

    basis = enumerate_partitions(d, max_part=max_part)
    bound = d if max_part is None else max_part
    return _dense(basis, basis, [qtilde(i).truncate_parts(bound) for i in basis])


def module_transition_matrix(d, n):
    """(basis, rows, matrix) of the free-module basis at degree d in n variables.

    basis: module_keys(d, n); the column of (I, mu) is module_element
    truncated to parts <= n.  rows: partitions of d with parts <= n.
    """
    from qschubert.partitions import enumerate_partitions

    basis = module_keys(d, n)
    columns = [module_element(key).truncate_parts(n) for key in basis]
    return _dense(basis, enumerate_partitions(d, max_part=n), columns)


# ---- the exact pivot-table solve: oracle for the Pieri-rule expansions ----

def pivot_table(keys, element, bound, rows, what):
    """Columns as (pivot, basis key, rest of the column), by ascending pivot.

    The column of a key is element(key) with parts <= bound, read from
    its sparse terms; rows is the number of e-monomials of the degree.
    The table is checked to be unitriangular up to a column permutation:
    no zero column, unit pivots, no shared pivot, as many columns as
    rows.  A failed check raises BasisError.
    """
    if len(keys) != rows:
        raise BasisError(f"{what}: index sets differ in size ({len(keys)} vs {rows})")
    table = {}
    for key in keys:
        col = dict(element(key).truncate_parts(bound).terms)
        if not col:
            raise BasisError(f"{what}: zero column at {key}")
        pivot = min(col)
        lead = col.pop(pivot)
        if lead != 1:
            raise BasisError(f"{what}: pivot {pivot} of {key} has coefficient {lead}")
        if pivot in table:
            raise BasisError(f"{what}: {key} and {table[pivot][0]} share the pivot {pivot}")
        table[pivot] = (key, col)
    return tuple((pivot, key, col) for pivot, (key, col) in sorted(table.items()))


@cache
def additive_pivots(d, max_part=None):
    """Pivot table of the Q[I] over the partitions of d with parts <= max_part."""
    from qschubert.partitions import enumerate_partitions
    from qschubert.qtilde import qtilde

    keys = enumerate_partitions(d, max_part=max_part)
    bound = d if max_part is None else max_part
    return pivot_table(keys, qtilde, bound, len(keys), f"degree {d}")


@cache
def module_pivots(d, n):
    """Pivot table of the free-module basis at degree d in n variables."""
    from qschubert.partitions import enumerate_partitions

    rows = len(enumerate_partitions(d, max_part=n))
    return pivot_table(module_keys(d, n), module_element, n, rows,
                       f"degree {d} over {n} variables")


def substitute(pivots, comp, what):
    """Solve by eliminating the lex-smallest monomial left, pivot by pivot."""
    residual = dict(comp.terms)
    out = {}
    for pivot, key, col in pivots:
        c = residual.pop(pivot, 0)
        if c:
            out[key] = c
            for r, v in col.items():
                residual[r] = residual.get(r, 0) - c * v
    # columns only add monomials above their pivot, so what is left has none
    stray = [r for r, v in residual.items() if v]
    if stray:
        raise BasisError(f"{what}: monomial {min(stray)} is no column's pivot")
    return out


def oracle_expand(p, max_part=None):
    """{I: coeff} of p in the Q[I] with parts <= max_part, degree by degree."""
    coeffs = {}
    for d, comp in p.homogeneous_components().items():
        coeffs.update(substitute(additive_pivots(d, max_part), comp, f"degree {d}"))
    return coeffs


def oracle_module_expand(p, n):
    """{(I, mu): coeff} of p, restricted to n variables, in the free-module basis."""
    coeffs = {}
    for d, comp in p.truncate_parts(n).homogeneous_components().items():
        coeffs.update(substitute(module_pivots(d, n), comp, f"degree {d} over {n} variables"))
    return coeffs


def matchings(idx):
    """All perfect matchings of idx, each pair (a, b) with a before b."""
    if not idx:
        yield []
        return
    first = idx[0]
    for k in range(1, len(idx)):
        rest = idx[1:k] + idx[k + 1:]
        for m in matchings(rest):
            yield [(first, idx[k])] + m


def perm_parity(seq):
    """+1 or -1: parity of the permutation given as a sequence."""
    inv = sum(1 for a, b in combinations(seq, 2) if a > b)
    return -1 if inv % 2 else 1


def pf_matchings(matrix):
    """Pfaffian as a signed sum over perfect matchings (numbers only)."""
    h = len(matrix)
    if h % 2:
        raise ValueError("odd size")
    total = 0
    for m in matchings(tuple(range(h))):
        sign = perm_parity([v for pair in m for v in pair])
        prod = 1
        for a, b in m:
            prod *= matrix[a][b]
        total += sign * prod
    return total


# ---- raw exponent-dict polynomials in n variables -------------------------

def xp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def xp_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def xp_scale(a, k):
    return {e: k * c for e, c in a.items()} if k else {}


def xp_const(k, n):
    return {(0,) * n: k} if k else {}


@cache
def elem_x(i, n):
    """e_i(x1..xn) as an exponent dict, built from combinations."""
    if i == 0:
        return {(0,) * n: 1}
    if i > n:
        return {}
    out = {}
    for subset in combinations(range(n), i):
        e = [0] * n
        for v in subset:
            e[v] = 1
        out[tuple(e)] = 1
    return out


@cache
def elem_x_squares(i, n):
    """e_i of the squared variables x1^2..xn^2."""
    return {tuple(2 * v for v in e): c for e, c in elem_x(i, n).items()}


@cache
def oracle_qpair(i, j, n):
    """Two-row value, expanded directly in x-variables."""
    total = xp_mul(elem_x(i, n), elem_x(j, n))
    for p in range(1, j + 1):
        term = xp_scale(xp_mul(elem_x(i + p, n), elem_x(j - p, n)), 2)
        total = xp_add(total, xp_scale(term, -1) if p % 2 else term)
    return total


def oracle_qtilde(parts, n):
    """Q[I] in x-variables via the perfect-matching Pfaffian.

    Completely parallel to the package path but with independent
    arithmetic, an independent Pfaffian algorithm, and no symbolic
    intermediate.
    """
    h = len(parts)
    if h == 0:
        return xp_const(1, n)
    if h == 1:
        return dict(elem_x(parts[0], n))
    idx = tuple(parts) if h % 2 == 0 else tuple(parts) + (0,)
    total = {}
    for m in matchings(tuple(range(len(idx)))):
        sign = perm_parity([v for pair in m for v in pair])
        prod = xp_const(sign, n)
        for a, b in m:
            prod = xp_mul(prod, oracle_qpair(idx[a], idx[b], n))
        total = xp_add(total, prod)
    return total


class SkewMatrix:
    """Skew-symmetric matrix of even size, upper triangle stored.

    The diagonal is zero and entries below it are the negatives of their
    mirror images, so only entries (p, q) with p < q are kept.
    """

    __slots__ = ("size", "upper")

    def __init__(self, size: int, upper):
        if size < 0 or size % 2:
            raise ValueError(f"size must be even and nonnegative, got {size}")
        entries = dict(upper)
        for p, q in entries:
            if not 0 <= p < q < size:
                raise ValueError(f"entry ({p}, {q}) outside upper triangle")
        self.size = size
        self.upper = entries

    def __getitem__(self, key):
        p, q = key
        if p < q:
            return self.upper.get((p, q), 0)
        if q < p:
            return -self.upper.get((q, p), 0)
        return 0


def pfaffian(m: SkewMatrix):
    """Pfaffian by recursive expansion along the first remaining row.

    For indices (r_1, ..., r_h), h even, the expansion is
    sum over k >= 2 of (-1)^k * m[r_1, r_k] * Pf(rows without r_1, r_k),
    with Pf of the empty matrix equal to 1.
    """
    memo = {}

    def pf(idx):
        if not idx:
            return 1
        if idx in memo:
            return memo[idx]
        first, rest = idx[0], idx[1:]
        total = 0
        for pos, q in enumerate(rest):
            term = m[first, q] * pf(rest[:pos] + rest[pos + 1:])
            total = total + (term if pos % 2 == 0 else -term)
        memo[idx] = total
        return total

    return pf(tuple(range(m.size)))


def pfaffian_qtilde(parts):
    """Q[I] as the Pfaffian of the two-row values, odd I padded with 0."""
    from qschubert.qtilde import qtilde_pair

    idx = tuple(parts) if len(parts) % 2 == 0 else tuple(parts) + (0,)
    upper = {(p, q): qtilde_pair(idx[p], idx[q])
             for p in range(len(idx)) for q in range(p + 1, len(idx))}
    return pfaffian(SkewMatrix(len(idx), upper))


# ---- the product loop before the multiply-accumulate kernel ----------------

def loop_product(a, b):
    """a * b for combinations of one ring type, deleting a key at 0."""
    merge = a._merge
    out = {}
    for k1, v1 in a.coeffs.items():
        for k2, v2 in b.coeffs.items():
            k = merge(k1, k2)
            # a TPoly coefficient is a SymPoly: multiply it by this loop too
            s = out.get(k, 0) + (v1 * v2 if isinstance(v1, int) else loop_product(v1, v2))
            if s:
                out[k] = s
            else:
                del out[k]
    return a._like(out)


def loop_sum_of_products(zero, triples):
    """zero + the sum of c * a * b, one product and one sum per triple."""
    total = zero
    for c, a, b in triples:
        total = total + loop_product(a, b) * c
    return total


def xp_of(xpoly):
    """Exponent dict of a package XPoly value."""
    return dict(xpoly.terms)


def rand_sympoly(rng, max_degree, max_part, n_terms, coeff_bound=9):
    """Random SymPoly built via public constructors."""
    from qschubert.sympoly import SymPoly

    terms = {}
    for _ in range(n_terms):
        d = rng.randint(0, max_degree)
        key = []
        while d > 0:
            part = rng.randint(1, min(max_part, d))
            key.append(part)
            d -= part
        c = rng.randint(-coeff_bound, coeff_bound)
        key = tuple(sorted(key, reverse=True))
        terms[key] = terms.get(key, 0) + c
    return SymPoly(terms)


def rand_skew(rng, size, bound=9):
    """Random integer skew-symmetric matrix as a list of lists."""
    m = [[0] * size for _ in range(size)]
    for p in range(size):
        for q in range(p + 1, size):
            v = rng.randint(-bound, bound)
            m[p][q] = v
            m[q][p] = -v
    return m
