"""Schubert calculus on the Lagrangian Grassmannian LG(n).

The cohomology ring is Z[c1..cn] modulo the ideal generated by the
Q[i, i] for 1 <= i <= n.  Classes are written in the basis S[I] indexed
by strict partitions with parts <= n; S[I] has codimension |I|, the
variety has dimension n(n+1)/2, and the top class is indexed by
(n, n-1, ..., 1).

Q[I] lifts S[I] and ci = Q[i] lifts S[i], so a polynomial in the ci acts
on Schubert vectors through the Pieri rule of Hiller-Boe (1986), which
Macdonald gives for Schur P-functions (Symmetric functions and Hall
polynomials, III (8.15)); with Q = 2^len * P it reads

    S[r] * S[lam] = sum over mu of 2^(a(lam, mu) + len(lam) - len(mu)) S[mu],

where mu runs over the strict partitions with parts <= n and
|mu| = |lam| + r such that mu_1 >= lam_1 >= mu_2 >= lam_2 >= ... (an
ordinary horizontal strip), and a(lam, mu) counts the columns c >= 1
that hold a box of mu/lam while column c + 1 holds none.  Dropping
strictness and the bound gives the Q-Pieri rule in the ring itself
(Pragacz-Ratajski 1996): for J strict, c_r * Q[J u mu u mu] is the same
sum of Q[K u mu u mu] over all K.  Both are one memoized rule, _pieri,
and one loop, _act, applies a polynomial through it: reduction and
products here run the strict form with parts <= n, and the expansions
of basisconv the general form.

A product S[I] * S[J] lifts only one factor, and only to Q[I] with
ci = 0 for i > n (the truncated lift, built directly by the bounded
Q builder): the ring is commutative, so the factor whose truncated
lift has fewer terms is lifted and acts on the other.  A product whose
degree |I| + |J| passes dim LG(n) is 0 before any lift is built.
Products are memoized by _product on the (key, coeff) pairs of both
factors, in either order, so a repeated product is one lookup; like
every value of _pieri and _qtilde, a cached product is shared and never
mutated, and multiply hands out a copy.
"""

from functools import cache
from itertools import groupby

from .partitions import complement, partition, shown
from .qtilde import _codes, _qtilde, qtilde
from .sympoly import Combination, SymPoly


class LGRing:
    """Descriptor of H*(LG(n)): Lagrangian subspaces of a 2n-dim space."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be positive, got {shown(n)}")
        self.n = n

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def top(self) -> tuple:
        """Index of the point class: the staircase (n, n-1, ..., 1)."""
        return tuple(range(self.n, 0, -1))

    def __eq__(self, other):
        return isinstance(other, LGRing) and self.n == other.n

    def __hash__(self):
        return hash(("LGRing", self.n))

    def __repr__(self):
        return f"LGRing({self.n})"


def _smono(key):
    return f"S[{','.join(map(str, key))}]"


class SchubertClass(Combination):
    """Element of H*(LG(n)) in the Schubert basis.

    Coefficients are keyed by strict partitions with parts <= n; a key's
    weight is the codimension of that component.
    """

    __slots__ = ("ring",)

    _mono = staticmethod(_smono)

    def __init__(self, ring: LGRing, coeffs=None):
        self.ring = ring
        super().__init__(coeffs)

    def _key(self, key):
        k = partition(key)
        if len(set(k)) != len(k):
            raise ValueError(f"Schubert index must be strict, got {shown(k)}")
        if k and k[0] > self.ring.n:
            raise ValueError(
                f"part {shown(k[0])} exceeds n = {shown(self.ring.n)} in {shown(k)}")
        return k

    @staticmethod
    def _order(key):
        # classes list by ascending codimension, unlike raw polynomials
        return sum(key), key

    def _like(self, coeffs):
        new = object.__new__(SchubertClass)
        new.ring = self.ring
        new.coeffs = coeffs
        return new

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == ({(): other} if other else {})
        if isinstance(other, SchubertClass) and self.ring != other.ring:
            return False
        return super().__eq__(other)

    def __add__(self, other):
        if not isinstance(other, SchubertClass) or self.ring != other.ring:
            raise ValueError("can only add classes in the same ring")
        return super().__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.__rmul__(other)
        return multiply(self, other) if isinstance(other, SchubertClass) else NotImplemented

    def lift(self) -> SymPoly:
        """A polynomial representative: sum of coeff * qtilde(I)."""
        return super().lift(qtilde)

    def json_obj(self) -> dict:
        return {
            "n": self.ring.n,
            "terms": [
                {"partition": list(k), "coefficient": self.coeffs[k]}
                for k in sorted(self.coeffs, key=self._order)
            ],
        }

    def __repr__(self):
        return f"SchubertClass(n={self.ring.n}, {self})"


def omega(parts, ring: LGRing) -> SchubertClass:
    """The basis class S[I] itself."""
    # the index is checked once, by _key, and the class built as _like does
    new = object.__new__(SchubertClass)
    new.ring = ring
    new.coeffs = {new._key(parts): 1}
    return new


def _split(key: tuple) -> tuple:
    """(J, mu) with key = J u mu u mu and J strict."""
    j, mu = (), ()
    for m, run in groupby(key):
        k = len(tuple(run))
        j += (m,) * (k % 2)
        mu += (m,) * (k // 2)
    return j, mu


@cache
def _pieri(r: int, key: tuple, bound, strict: bool) -> dict:
    """c_r * Q[key] in the Q basis as {K u mu u mu: coeff}, by the Q-Pieri rule.

    With key = J u mu u mu and J strict, K runs over the partitions that
    make K/J an ordinary horizontal strip of r boxes, with coefficient
    2^(a(J, K) + len(J) - len(K)).  K with K_1 > bound is dropped (its
    Q vanishes once ci = 0 for i > bound; None means no bound), and with
    strict every K with a repeated part too.  With strict and a strict
    key this is S[r] * S[key] in H*(LG(bound)).

    The result is shared by every caller and must not be mutated.
    """
    j, mu = _split(key)
    rows, pairs = j + (0,), mu + mu
    # grow K row by row as (rows so far, boxes left, a(J, K) so far)
    states = [((), r, 0)]
    for i, lo in enumerate(rows):
        grown = []
        for k, left, a in states:
            # row i ends by row i - 1 of J (or the bound); when strict,
            # also below row i - 1 of K
            hi = (lo + left if bound is None else bound) if i == 0 else rows[i - 1]
            if strict and i:
                hi = min(hi, k[-1] - 1)
            # the rows below take at most lo boxes, so the last row
            # (lo = 0) takes exactly what is left
            for m in range(max(lo, left), min(hi, lo + left) + 1):
                # a(J, K) counts the runs of columns the strip rows (J_i, K_i]
                # fill; a row touching the nonempty row above extends a run
                new = m > lo and not (i and m == rows[i - 1] and k[-1] > rows[i - 1])
                grown.append((k + (m,), left - (m - lo), a + new))
        states = grown
    out = {}
    for k, _, a in states:
        if k[-1]:
            a -= 1  # K has one row more than J
        else:
            k = k[:-1]
        out[tuple(sorted(k + pairs, reverse=True)) if pairs else k] = 1 << a
    return out


def _act(terms, vec: dict, bound, strict: bool) -> dict:
    """A polynomial, given by its (monomial, coeff) pairs, acting on vec.

    vec is a combination {key: coeff} in the Q basis.  Each monomial
    acts one c_r at a time through _pieri(r, key, bound, strict); a
    monomial whose largest generator exceeds bound is skipped, because
    ci = 0 for i > bound (None means no bound).  Only reduce and the
    expansions pass such monomials: the truncated lifts of multiply
    have none.  Zero sums are dropped, so the result is ready for the
    trusted _like.
    """
    out = {}
    for mono, c in terms:
        if bound is not None and mono and mono[0] > bound:
            continue
        v = vec
        for r in mono:
            w = {}
            for key, x in v.items():
                for k, y in _pieri(r, key, bound, strict).items():
                    w[k] = w.get(k, 0) + x * y
            v = w
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return {k: x for k, x in out.items() if x}


def reduce(p: SymPoly, ring: LGRing) -> SchubertClass:
    """Image of p in the quotient ring, in the Schubert basis.

    Applies p to the unit class S[] by the Pieri rule, with ci = 0 for
    i > n; the tests check it against the part of module_expand with
    trivial module coefficient.
    """
    return SchubertClass(ring)._like(_act(p.coeffs.items(), {(): 1}, ring.n, True))


def multiply(a: SchubertClass, b: SchubertClass) -> SchubertClass:
    """Product in H*(LG(n)) by the Pieri rule.

    The ring is commutative, so the factor whose truncated lift has
    fewer terms is lifted: each coeff * Q[I] with ci = 0 for i > n,
    term by term, acts on the other factor.  The product is 0 at once
    when every pair of keys has |I| + |J| > dim LG(n).  The product is
    memoized by _product on the (key, coeff) pairs of both factors, taken
    in an order fixed by their hashes, so repeating it, in either order
    of the factors and whatever order the terms of a factor were added
    in, is one lookup and a copy: the result owns its dict, and the
    cached one is never mutated.  The tests check it against reducing
    the product of both lifts through the free-module expansion.
    """
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    fa, fb = frozenset(a.coeffs.items()), frozenset(b.coeffs.items())
    if hash(fb) < hash(fa):
        fa, fb = fb, fa  # a * b and b * a share one memo entry
    return a._like(dict(_product(fa, fb, a.ring.n)))


@cache
def _product(a: frozenset, b: frozenset, n: int) -> dict:
    """multiply on canonical factors: a and b are the frozensets of the
    (key, coeff) pairs of two classes of LG(n).

    The result is shared by every caller and must not be mutated.
    """
    if not a or not b or min(sum(k) for k, _ in a) + min(sum(k) for k, _ in b) > LGRing(n).dim:
        return {}
    if _lift_size(b, n) < _lift_size(a, n):
        a, b = b, a
    # the terms of every coeff * Q[I] as they come: summing them into
    # one lift costs more than acting a repeated monomial twice
    lift = ((m, c * x) for key, c in a for m, x in _qtilde(key, n).coeffs.items())
    return _act(lift, dict(b), n, True)


def _lift_size(terms, n: int) -> int:
    """Number of terms the truncated lifts of the keys of terms have,
    counted on their codes, so only the lift _product uses is decoded."""
    return sum(len(_codes(key, n).coeffs) for key, _ in terms)


def integrate(a: SchubertClass) -> int:
    """Push-forward to a point: the coefficient of the top class."""
    return a.coeffs.get(a.ring.top, 0)


def pair(i_parts, j_parts, ring: LGRing) -> int:
    """Integral of S[I]*S[J]; 1 exactly when J complements I in {1..n}.

    The product is formed only when |I| + |J| = dim LG(n); otherwise it
    has no component in the top degree.
    """
    a, b = omega(i_parts, ring), omega(j_parts, ring)
    (i,), (j,) = a.coeffs, b.coeffs
    if sum(i) + sum(j) != ring.dim:
        return 0
    return integrate(multiply(a, b))


def betti(ring: LGRing) -> tuple:
    """Ranks of the cohomology groups in codimensions 0..dim.

    These are the coefficients of prod_{i=1..n} (1 + q^i): a strict
    partition with parts <= n is a subset of {1..n}, weighted by its sum.
    """
    ranks = [1]
    for i in range(1, ring.n + 1):
        ranks = [a + b for a, b in zip(ranks + [0] * i, [0] * i + ranks)]
    return tuple(ranks)


def dual(parts, ring: LGRing) -> tuple:
    """The unique strict partition pairing to 1 with the given one."""
    return complement(parts, ring.n)
