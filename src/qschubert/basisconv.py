"""Change of basis into the Qtilde family.

Two expansions are provided, both schubert._act applied to Q[] = 1 in
the general (not strict) form of the Q-Pieri rule:

  expand_in_qtilde   P as an integer combination of Q[I] over partitions
                     with bounded parts (the additive basis).
  module_expand      P as a combination of (prod_k Q[m_k, m_k]) * Q[I]
                     with I strict, the free-module basis over the
                     subring generated by the Q[i, i].

No Q[I] is built and nothing is solved.  Q[J u mu u mu] equals
(prod_k Q[m_k, m_k]) * Q[J] for J strict, so the free-module expansion
is the one with parts bounded by n, relabelled by schubert._split.  The
tests check both against exact substitution in the unitriangular
transition of each degree; that solve, and the BasisError it raises
when a claimed basis fails, live in tests/helpers.py.
"""

from .partitions import partition, shown
from .qtilde import qtilde, qtilde_pair
from .schubert import _act, _split
from .sympoly import Combination, SymPoly


def qmono(key):
    return f"Q[{','.join(map(str, key))}]"


class QExpansion(Combination):
    """Integer combination of Q[I], keyed by partition."""

    __slots__ = ()

    _mono = staticmethod(qmono)

    def to_sympoly(self) -> SymPoly:
        return self.lift(qtilde)

    def json_obj(self) -> list:
        return [
            {"partition": list(k), "coefficient": self.coeffs[k]}
            for k in sorted(self.coeffs, key=self._order)
        ]


def _module_element(key):
    """The basis element (prod_k Q[m_k,m_k]) * Q[I] of the key (I, mu)."""
    i, mu = key
    q = qtilde(i)
    for m in mu:
        q = q * qtilde_pair(m, m)
    return q


def _module_mono(key):
    i, mu = key
    return "*".join([qmono((m, m)) for m in mu] + [qmono(i)])


class ModuleExpansion(Combination):
    """Combination of basis elements (prod_k Q[m_k,m_k]) * Q[I].

    Keys are pairs (I, mu) with I strict; the pair of weights satisfies
    |I| + 2|mu| = degree of the term.
    """

    __slots__ = ()

    _mono = staticmethod(_module_mono)

    @staticmethod
    def _key(key):
        i, mu = key
        i, mu = partition(i), partition(mu)
        if len(set(i)) != len(i):
            raise ValueError(f"module basis index must be strict, got {i}")
        return i, mu

    @staticmethod
    def _order(key):
        return key[1], key[0]

    def ring_part(self) -> QExpansion:
        """The mu = () coefficients: what survives modulo the Q[i,i] ideal."""
        return QExpansion({i: c for (i, mu), c in self.coeffs.items() if not mu})

    def to_sympoly(self) -> SymPoly:
        return self.lift(_module_element)

    def __repr__(self):
        keys = sorted(self.coeffs, key=self._order)
        body = ", ".join(f"{k}: {self.coeffs[k]}" for k in keys)
        return f"ModuleExpansion({{{body}}})"


def check_max_part(max_part):
    """Reject a part bound below 1; None stands for no bound."""
    if max_part is not None and max_part < 1:
        raise ValueError(f"max_part must be positive, got {shown(max_part)}")


def expand_in_qtilde(p: SymPoly, max_part=None) -> QExpansion:
    """Write p as an integer combination of Q[I] with parts <= max_part.

    With max_part = None the expansion runs over all partitions of each
    degree.  With a finite bound, p must already live in the subring on
    c1..c_max_part; a generator outside it is rejected.
    """
    check_max_part(max_part)
    if max_part is not None:
        for key in p.coeffs:
            if key and key[0] > max_part:
                raise ValueError(
                    f"term {shown(key)} uses c{shown(key[0])}, "
                    f"not representable with parts <= {shown(max_part)}"
                )
    return QExpansion._like(_act(p.coeffs.items(), {(): 1}, max_part, False))


def module_expand(p: SymPoly, n: int) -> ModuleExpansion:
    """Expand p in the free-module basis over the Q[i,i] subring.

    p is restricted to n variables: ci with i > n counts as zero.
    """
    if n < 1:
        raise ValueError(f"variable count must be positive, got {n}")
    vec = _act(p.coeffs.items(), {(): 1}, n, False)
    return ModuleExpansion._like({_split(i): c for i, c in vec.items()})
