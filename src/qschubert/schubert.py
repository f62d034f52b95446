"""Schubert calculus on the Lagrangian Grassmannian LG(n).

The cohomology ring is Z[c1..cn] modulo the ideal generated by the
Q[i, i] for 1 <= i <= n.  Classes are written in the basis S[I] indexed
by strict partitions with parts <= n; S[I] has codimension |I|, the
variety has dimension n(n+1)/2, and the top class is indexed by
(n, n-1, ..., 1).  Normal forms come from the free-module expansion of
basisconv: the component with trivial module part is the reduction.
"""

from .basisconv import module_expand
from .partitions import complement, is_strict, partition
from .qtilde import qtilde
from .sympoly import Combination, SymPoly


class LGRing:
    """Descriptor of H*(LG(n)): Lagrangian subspaces of a 2n-dim space."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
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
        if not is_strict(k):
            raise ValueError(f"Schubert index must be strict, got {k}")
        if k and k[0] > self.ring.n:
            raise ValueError(f"part {k[0]} exceeds n = {self.ring.n} in {k}")
        return k

    @staticmethod
    def _order(key):
        # classes list by ascending codimension, unlike raw polynomials
        return sum(key), key

    def _like(self, coeffs):
        return SchubertClass(self.ring, coeffs)

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
        return multiply(self, other)

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
    return SchubertClass(ring, {partition(parts): 1})


def reduce(p: SymPoly, ring: LGRing) -> SchubertClass:
    """Image of p in the quotient ring, in the Schubert basis.

    Expands p in the free-module basis and keeps the part with trivial
    module coefficient; the discarded part lies in the relations ideal.
    """
    ringpart = module_expand(p, ring.n).ring_part()
    return SchubertClass(ring, ringpart.coeffs)


def multiply(a: SchubertClass, b: SchubertClass) -> SchubertClass:
    """Product in H*(LG(n)): lift to polynomials, multiply, reduce."""
    if a.ring != b.ring:
        raise ValueError(f"ring mismatch: {a.ring} vs {b.ring}")
    return reduce(a.lift() * b.lift(), a.ring)


def integrate(a: SchubertClass) -> int:
    """Push-forward to a point: the coefficient of the top class."""
    return a.coeffs.get(a.ring.top, 0)


def pair(i_parts, j_parts, ring: LGRing) -> int:
    """Integral of S[I]*S[J]; 1 exactly when J complements I in {1..n}."""
    return integrate(multiply(omega(i_parts, ring), omega(j_parts, ring)))


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
