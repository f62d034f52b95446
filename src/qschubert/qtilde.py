"""The Qtilde family of symmetric functions.

Building blocks, expressed in the generators ci of sympoly:

  one row    Q[i]   = ci
  two rows   Q[i,j] = Q[i]*Q[j] + 2*sum((-1)^p * Q[i+p]*Q[j-p], p=1..j)
  general    Q[I]   = Pfaffian of the skew matrix with entries Q[i_p, i_q]

Odd-length index tuples are padded with a single zero part at the end
before forming the Pfaffian.  Q[I] is built by expanding that Pfaffian
along its first row,

  Q[I] = sum over k >= 2 of (-1)^k * Q[i_1, i_k] * Q[I without i_1, i_k],

where a minor that ends in the padding zero is the Q of the same parts
without it.  Each minor is again a cached Q[I], so all partitions share
their sub-partitions.  The r entries equal to i_1 lead the row and give
r copies of one product with signs +, -, +, ..., so they leave it once
when r is odd and cancel when r is even: the loop starts past them.
The builder also takes a bound b and then gives Q[I] with ci = 0 for
i > b, the lift of a Schubert class of LG(b): setting those ci to 0 is
a ring map, so it truncates the two-row entries before they multiply,
and Q[I] is 0 outright when i_1 > b.  `qtilde` is the unbounded case.
`pfaffian` and `SkewMatrix` are the reference implementation that the
tests compare against.

Schur Q-functions arise from the same family by substituting the Chern
series of the virtual difference bundle for the generators.
"""

from functools import cache

from .partitions import partition
from .sympoly import SymPoly, chern_difference, subst


@cache
def qtilde_one(i: int) -> SymPoly:
    """One-row case: the generator ci, with the convention Q[0] = 1."""
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    return SymPoly.gen(i)


@cache
def qtilde_pair(i: int, j: int) -> SymPoly:
    """Two-row case for i >= j >= 0."""
    if j < 0 or i < j:
        raise ValueError(f"indices must satisfy i >= j >= 0, got ({i}, {j})")
    terms = [(1, qtilde_one(i), qtilde_one(j))]
    for p in range(1, j + 1):
        terms.append((-2 if p % 2 else 2, qtilde_one(i + p), qtilde_one(j - p)))
    return SymPoly.zero()._sum_of_products(terms)


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


def qtilde(parts) -> SymPoly:
    """Q[I] for an arbitrary partition I, strict or not."""
    return _qtilde(partition(parts), None)


@cache
def _qtilde(parts: tuple, bound) -> SymPoly:
    """Q[parts] with ci = 0 for i > bound (None means no bound).

    parts is a canonical partition.  Q[parts] is 0 when parts[0] > bound,
    since every entry Q[i_1, i_k] of the first row has a factor c_(i_1+p)
    with p >= 0 in each term.  Otherwise the two-row entries are truncated
    before they multiply, because truncation is a ring map.

    The entries k = 2..r+1 with i_k = i_1 are all Q[i_1, i_1], with one
    minor and signs +, -, ...: exactly that product once for odd r, else 0.

    The result is shared by every caller and must not be mutated.
    """
    h = len(parts)
    if h == 0:
        return SymPoly.one()
    if bound is not None and parts[0] > bound:
        return SymPoly.zero()
    if h == 1:
        return qtilde_one(parts[0])
    if h == 2:
        return _pair(parts[0], parts[1], bound)
    idx = parts if h % 2 == 0 else parts + (0,)
    first, rest = idx[0], idx[1:]
    r = rest.count(first)
    terms = []
    for pos in range(r - 1 if r % 2 else r, len(rest)):
        minor = rest[:pos] + rest[pos + 1:]
        if minor[-1] == 0:
            minor = minor[:-1]
        terms.append((-1 if pos % 2 else 1, _pair(first, rest[pos], bound),
                      _qtilde(minor, bound)))
    return SymPoly.zero()._sum_of_products(terms)


def _pair(i: int, j: int, bound) -> SymPoly:
    """Q[i, j] with c_r = 0 for r > bound (None means no bound)."""
    q = qtilde_pair(i, j)
    return q if bound is None or i + j <= bound else q.truncate_parts(bound)


def schur_q(parts) -> SymPoly:
    """Schur Q-function: Q[I] with ci replaced by ci of E - E*."""
    parts = partition(parts)
    return subst(qtilde(parts), chern_difference(sum(parts)))
