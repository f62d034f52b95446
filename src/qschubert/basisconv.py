"""Change of basis into the Qtilde family.

Two expansions are provided, both solved per graded component by exact
integer substitution:

  expand_in_qtilde   P as an integer combination of Q[I] over partitions
                     with bounded parts (the additive basis).
  module_expand      P as a combination of (prod_k Q[m_k, m_k]) * Q[I]
                     with I strict, the free-module basis over the
                     subring generated by the Q[i, i].

The columns of each graded component are read straight from the sparse
terms of the basis elements, and checked once per component to form a
unitriangular system up to a column permutation: no column is zero,
every column's lex-smallest e-monomial (its pivot) has coefficient 1,
no two columns share a pivot, and there are as many columns as
e-monomials.  That proves the transition unimodular, so substitution
from the smallest pivot up gives the exact integer solution.  A failed
check means a basis bug, not bad input, and raises BasisError.
"""

from functools import cache

from .partitions import enumerate_partitions, partition
from .qtilde import qtilde, qtilde_pair
from .sympoly import Combination, SymPoly


class BasisError(RuntimeError):
    """Internal invariant violation: a claimed basis failed to be one."""


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


def _pivot_table(keys, element, bound, rows, what):
    """Columns as (pivot, basis key, rest of the column), by ascending pivot.

    The column of a key is element(key) with parts <= bound, read from
    its sparse terms; rows is the number of e-monomials of the degree.
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
def _additive_pivots(d: int, max_part=None):
    """Q[I] over the partitions of d with parts <= max_part."""
    keys = enumerate_partitions(d, max_part=max_part)
    bound = d if max_part is None else max_part
    return _pivot_table(keys, qtilde, bound, len(keys), f"degree {d}")


@cache
def _module_pivots(d: int, n: int):
    """(prod_k Q[m_k,m_k]) * Q[I] over (I, mu), I strict, |I| + 2|mu| = d, parts <= n."""
    keys = [
        (i, mu)
        for w in range(d, -1, -2)
        for i in enumerate_partitions(w, max_part=n, strict=True)
        for mu in enumerate_partitions((d - w) // 2, max_part=n)
    ]
    rows = len(enumerate_partitions(d, max_part=n))
    return _pivot_table(keys, _module_element, n, rows, f"degree {d} over {n} variables")


def _substitute(pivots, comp, what):
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


def expand_in_qtilde(p: SymPoly, max_part=None) -> QExpansion:
    """Write p as an integer combination of Q[I] with parts <= max_part.

    With max_part = None the expansion runs over all partitions of each
    degree.  With a finite bound, p must already live in the subring on
    c1..c_max_part; a generator outside it is rejected.
    """
    if max_part is not None and max_part < 1:
        raise ValueError(f"max_part must be positive, got {max_part}")
    if max_part is not None:
        for key in p.terms:
            if key and key[0] > max_part:
                raise ValueError(
                    f"term {key} uses c{key[0]}, not representable with parts <= {max_part}"
                )
    coeffs = {}
    for d, comp in p.homogeneous_components().items():
        coeffs.update(_substitute(_additive_pivots(d, max_part), comp, f"degree {d}"))
    return QExpansion(coeffs)


def module_expand(p: SymPoly, n: int) -> ModuleExpansion:
    """Expand p in the free-module basis over the Q[i,i] subring.

    p is first restricted to n variables (ci with i > n set to zero).
    """
    if n < 1:
        raise ValueError(f"variable count must be positive, got {n}")
    p = p.truncate_parts(n)
    coeffs = {}
    for d, comp in p.homogeneous_components().items():
        coeffs.update(_substitute(_module_pivots(d, n), comp, f"degree {d} over {n} variables"))
    return ModuleExpansion(coeffs)
