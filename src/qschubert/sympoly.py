"""Exact sparse integer combinations, and polynomials in c1, c2, ...

Combination is the one sparse combination type of the package: a dict
from basis keys to nonzero coefficients with sum, difference, negation,
integer scaling, rendering and, for ring types, products and powers.
Every product goes through one multiply-accumulate kernel, which sums
c*a*b over a list of (c, a, b) into one dict: a * b is its one-term
case.  A subclass states only its key rules: how a key is checked,
ordered and rendered, and for a ring how two keys multiply.  Its
subclasses here are

  SymPoly   the ring Z[c1, c2, ...] with deg(ci) = i.  A monomial is
            keyed by the weakly decreasing tuple of its generator
            indices, so (2, 2, 1) stands for c2^2*c1 and () for 1.
  XPoly     polynomials in explicit variables x1..xn, keyed by
            exponent vectors.

Under the usual isomorphism with symmetric functions, ci corresponds to
the elementary symmetric function e_i, and evaluate gives the explicit
expansion into x1..xn.  That expansion is the brute-force oracle used
to cross-check every symbolic identity in this package.

All coefficients are plain Python ints, so intermediate values never
overflow.
"""

from functools import cache
from itertools import combinations, groupby

from .partitions import partition


def _by_degree(key):
    """Degree descending, then ascending parts (descending lex on exponents)."""
    return (-sum(key), key)


class Combination:
    """Sparse integer combination of basis elements, keyed by their index.

    Subclasses set ``_key`` (check and canonicalize one key), ``_order``
    and ``_mono`` (rendering).  Ring types also set ``_merge`` (the key
    of the product of two basis elements), ``_coerce`` (what else may
    stand beside them in +, - and ==) and, where 1 does not coerce,
    ``_unit``; types with more state override ``_like`` to carry it.
    ``_sum_of_products`` is the one product path, a * b its one-term case.
    """

    __slots__ = ("coeffs",)

    _key = staticmethod(partition)
    _order = staticmethod(_by_degree)
    _merge = None

    def __init__(self, coeffs=None):
        clean = {}
        for key, c in (coeffs or {}).items():
            k = self._key(key)
            if c:
                clean[k] = clean.get(k, 0) + c
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def _like(cls, coeffs):
        """Trusted constructor: the keys are canonical, no coefficient is
        zero, and the dict becomes the result's own."""
        new = object.__new__(cls)
        new.coeffs = coeffs
        return new

    def _coerce(self, other):
        return other if type(other) is type(self) else NotImplemented

    def _unit(self):
        """The identity of the product."""
        return self._coerce(1)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = coeffs.get(k, 0) + v
            if s:
                coeffs[k] = s
            else:
                del coeffs[k]
        return self._like(coeffs)

    __radd__ = __add__

    def __neg__(self):
        return self._like({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + -self

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({k: v * other for k, v in self.coeffs.items()} if other else {})
        other = self._coerce(other)
        if other is NotImplemented or self._merge is None:
            return NotImplemented
        return self._sum_of_products([(1, self, other)])

    __rmul__ = __mul__

    def _sum_of_products(self, triples):
        """Sum c * a * b over (c, a, b) in triples, c an int and a, b of
        self's type, into one dict; zeros are dropped once, at the end."""
        merge = self._merge
        out = {}
        get = out.get
        for c, a, b in triples:
            right = b.coeffs.items()
            for k1, v1 in a.coeffs.items():
                cv = c * v1
                for k2, v2 in right:
                    k = merge(k1, k2)
                    out[k] = get(k, 0) + cv * v2
        return self._like({k: v for k, v in out.items() if v})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result, base = self._unit(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def lift(self, element) -> "SymPoly":
        """The polynomial sum of coeff * element(key)."""
        total = SymPoly.zero()
        for key, c in self.coeffs.items():
            total = total + element(key) * c
        return total

    def __str__(self):
        if not self.coeffs:
            return "0"
        pieces = []
        for key in sorted(self.coeffs, key=self._order):
            coeff = self.coeffs[key]
            mono = self._mono(key)
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def _monomial_str(key):
    factors = []
    for part, run in groupby(key):
        m = len(list(run))
        factors.append(f"c{part}" if m == 1 else f"c{part}^{m}")
    return "*".join(factors)


class SymPoly(Combination):
    """Integer polynomial in the generators c1, c2, ...

    Example
    -------
    >>> c1, c2 = SymPoly.gen(1), SymPoly.gen(2)
    >>> str(c1 ** 2 - 2 * c2)
    'c1^2 - 2*c2'
    """

    __slots__ = ()

    terms = Combination.coeffs  # the same dict under the polynomial name
    _mono = staticmethod(_monomial_str)

    @staticmethod
    def _key(key):
        k = tuple(sorted(key, reverse=True))
        if any(not isinstance(v, int) or v < 1 for v in k):
            raise ValueError(f"generator indices must be positive integers, got {key!r}")
        return k

    @staticmethod
    def _merge(key1, key2):
        # product of monomials: multiset union, kept sorted descending
        return tuple(sorted(key1 + key2, reverse=True))

    def _coerce(self, other):
        if isinstance(other, SymPoly):
            return other
        return SymPoly.const(other) if isinstance(other, int) else NotImplemented

    @classmethod
    def zero(cls):
        return cls._like({})

    @classmethod
    def one(cls):
        return cls._like({(): 1})

    @classmethod
    def gen(cls, i: int):
        """The generator ci; c0 is understood as the constant 1."""
        if i < 0:
            raise ValueError(f"generator index must be nonnegative, got {i}")
        return cls.one() if i == 0 else cls._like({(i,): 1})

    @classmethod
    def const(cls, value: int):
        return cls._like({(): value} if value else {})

    def coefficient(self, key) -> int:
        return self.coeffs.get(tuple(sorted(key, reverse=True)), 0)

    def degree(self) -> int:
        """Weighted degree; the zero polynomial reports -1."""
        return max((sum(k) for k in self.coeffs), default=-1)

    def homogeneous_components(self) -> dict:
        """Split by weighted degree, mapping degree -> SymPoly."""
        comps = {}
        for k, v in self.coeffs.items():
            comps.setdefault(sum(k), {})[k] = v
        return {d: self._like(t) for d, t in sorted(comps.items())}

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(k) == d for k in self.coeffs)

    def truncate_parts(self, n: int):
        """Image under ci -> 0 for i > n (restriction to n variables)."""
        return self._like({k: v for k, v in self.coeffs.items() if not k or k[0] <= n})


class XPoly(Combination):
    """Integer polynomial in explicit variables x1..xn.

    Terms map exponent vectors (length-n tuples) to nonzero ints.  Used
    as the fully expanded oracle; simplicity is preferred over speed.
    Values over different alphabets are never equal and do not mix.
    """

    __slots__ = ("n",)

    terms = Combination.coeffs  # the same dict under the polynomial name

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError(f"alphabet size must be positive, got {n}")
        self.n = n
        super().__init__(terms)

    def _key(self, exp):
        e = tuple(exp)
        if len(e) != self.n or any(not isinstance(v, int) or v < 0 for v in e):
            raise ValueError(f"bad exponent vector {exp!r} for {self.n} variables")
        return e

    @staticmethod
    def _merge(e1, e2):
        return tuple(a + b for a, b in zip(e1, e2))

    def _like(self, coeffs):
        new = object.__new__(XPoly)
        new.n = self.n
        new.coeffs = coeffs
        return new

    def _coerce(self, other):
        if isinstance(other, XPoly):
            if other.n != self.n:
                raise ValueError(f"mixed alphabets: {self.n} vs {other.n}")
            return other
        if isinstance(other, int):
            return self._like({(0,) * self.n: other} if other else {})
        return NotImplemented

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {(0,) * n: 1})

    def __eq__(self, other):
        if isinstance(other, XPoly) and other.n != self.n:
            return False
        return super().__eq__(other)

    def permuted(self, perm):
        """Apply the variable permutation x_i -> x_perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
        out = {}
        for e, v in self.coeffs.items():
            img = [0] * self.n
            for i, p in enumerate(perm):
                img[p] = e[i]
            out[tuple(img)] = v
        return self._like(out)

    def drop_last_var(self):
        """Set the last variable to zero and shrink the alphabet by one."""
        if self.n == 1:
            raise ValueError("cannot drop below one variable")
        return XPoly(self.n - 1, {e[:-1]: v for e, v in self.coeffs.items() if e[-1] == 0})

    def __repr__(self):
        return f"XPoly(n={self.n}, {len(self.coeffs)} terms)"

    __str__ = __repr__


@cache
def elementary(i: int, n: int) -> XPoly:
    """Elementary symmetric function e_i(x1..xn); zero for i > n."""
    if i < 0:
        raise ValueError(f"index must be nonnegative, got {i}")
    if i == 0:
        return XPoly.one(n)
    if i > n:
        return XPoly.zero(n)
    terms = {}
    for subset in combinations(range(n), i):
        exp = [0] * n
        for j in subset:
            exp[j] = 1
        terms[tuple(exp)] = 1
    return XPoly(n, terms)


@cache
def _emonomial(key, n):
    if not key:
        return XPoly.one(n)
    return _emonomial(key[:-1], n) * elementary(key[-1], n)


def evaluate(p: SymPoly, n: int) -> XPoly:
    """Substitute ci -> e_i(x1..xn) and expand fully."""
    if n < 1:
        raise ValueError(f"alphabet size must be positive, got {n}")
    total = XPoly.zero(n)
    for key, coeff in p.coeffs.items():
        total = total + _emonomial(key, n) * coeff
    return total


class ChernSeries:
    """Truncated total Chern series: entry k is homogeneous of degree k.

    Entry 0 is always 1; entries beyond the stated degree bound do not
    exist (every consumer declares its needed bound up front).
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = list(entries)
        if not entries or entries[0] != SymPoly.one():
            raise ValueError("a Chern series must start with 1")
        for k, entry in enumerate(entries):
            if not entry.is_homogeneous(k):
                raise ValueError(f"entry {k} is not homogeneous of degree {k}")
        self.entries = entries

    @property
    def bound(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, k: int) -> SymPoly:
        return self.entries[k]

    @classmethod
    def identity(cls, bound: int):
        """The series of a bundle with Chern classes ci themselves."""
        return cls([SymPoly.gen(k) for k in range(bound + 1)])


@cache
def chern_difference(bound: int) -> ChernSeries:
    """Chern series of the virtual bundle E - E* in terms of ci = ci(E).

    Computed by formal division of prod(1 + xi) by prod(1 - xi) up to the
    requested degree, i.e. c(E) times the series inverse of c(E*).
    """
    if bound < 0:
        raise ValueError("degree bound must be nonnegative")
    c = [SymPoly.gen(k) for k in range(bound + 1)]
    zero = SymPoly.zero()
    # c(E*) has entries (-1)^k * ck, so inv[d] = -sum (-1)^k * ck * inv[d-k]
    inv = [SymPoly.one()]
    for d in range(1, bound + 1):
        inv.append(zero._sum_of_products(
            [((-1) ** (k + 1), c[k], inv[d - k]) for k in range(1, d + 1)]))
    return ChernSeries(
        zero._sum_of_products([(1, c[a], inv[d - a]) for a in range(d + 1)])
        for d in range(bound + 1))


def subst(p: SymPoly, series: ChernSeries) -> SymPoly:
    """Replace each generator ci in ``p`` by series[i] and expand."""
    if p.degree() > series.bound:
        raise ValueError(
            f"series truncated at degree {series.bound}, need {p.degree()}"
        )
    triples = []
    for key, coeff in p.coeffs.items():
        *head, last = key or (0,)  # series[0] = 1 stands in for the constant term
        factor = SymPoly.one()
        for part in head:
            factor = factor * series[part]
        triples.append((coeff, factor, series[last]))
    return SymPoly.zero()._sum_of_products(triples)
