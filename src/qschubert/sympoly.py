"""Exact sparse polynomials in the graded generators c1, c2, ...

SymPoly is the ring Z[c1, c2, ...] with deg(ci) = i.  A monomial is keyed
by the weakly decreasing tuple of its generator indices, so (2, 2, 1)
stands for c2^2*c1 and () for the constant monomial.  Under the usual
isomorphism with symmetric functions, ci corresponds to the elementary
symmetric function e_i, and XPoly gives the explicit expansion into
variables x1..xn.  That expansion is the brute-force oracle used to
cross-check every symbolic identity in this package.

All coefficients are plain Python ints, so intermediate values never
overflow.
"""

from functools import cache
from itertools import combinations, groupby

from .partitions import partition


def _merge(key1, key2):
    # product of monomials: multiset union, kept sorted descending
    return tuple(sorted(key1 + key2, reverse=True))


class SymPoly:
    """Integer polynomial in the generators c1, c2, ...

    Example
    -------
    >>> c1, c2 = SymPoly.gen(1), SymPoly.gen(2)
    >>> str(c1 ** 2 - 2 * c2)
    'c1^2 - 2*c2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            k = tuple(sorted(key, reverse=True))
            if any(not isinstance(v, int) or v < 1 for v in k):
                raise ValueError(f"generator indices must be positive integers, got {key!r}")
            if coeff:
                clean[k] = clean.get(k, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def _raw(cls, terms):
        # internal fast path: terms already canonical and zero-free
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(): 1})

    @classmethod
    def gen(cls, i: int):
        """The generator ci; c0 is understood as the constant 1."""
        if i < 0:
            raise ValueError(f"generator index must be nonnegative, got {i}")
        return cls.one() if i == 0 else cls._raw({(i,): 1})

    @classmethod
    def const(cls, value: int):
        return cls._raw({(): value} if value else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        return NotImplemented

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, 0) + v
            if s:
                terms[k] = s
            else:
                del terms[k]
        return SymPoly._raw(terms)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly._raw({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = _merge(k1, k2)
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return SymPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {exponent!r}")
        result = SymPoly.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def coefficient(self, key) -> int:
        return self.terms.get(tuple(sorted(key, reverse=True)), 0)

    def degree(self) -> int:
        """Weighted degree; the zero polynomial reports -1."""
        return max((sum(k) for k in self.terms), default=-1)

    def homogeneous_components(self) -> dict:
        """Split by weighted degree, mapping degree -> SymPoly."""
        comps = {}
        for k, v in self.terms.items():
            comps.setdefault(sum(k), {})[k] = v
        return {d: SymPoly._raw(t) for d, t in sorted(comps.items())}

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(k) == d for k in self.terms)

    def truncate_parts(self, n: int):
        """Image under ci -> 0 for i > n (restriction to n variables)."""
        return SymPoly._raw({k: v for k, v in self.terms.items() if not k or k[0] <= n})

    def __str__(self):
        return render_terms(self.terms, _monomial_str)

    def __repr__(self):
        return f"SymPoly({self})"


def _coerce(value):
    if isinstance(value, SymPoly):
        return value
    if isinstance(value, int):
        return SymPoly.const(value)
    return NotImplemented


def _monomial_str(key):
    factors = []
    for part, run in groupby(key):
        m = len(list(run))
        factors.append(f"c{part}" if m == 1 else f"c{part}^{m}")
    return "*".join(factors)


def _by_degree(key):
    """Degree descending, then ascending parts (descending lex on exponents)."""
    return (-sum(key), key)


def render_terms(terms, monomial_str, sort_key=_by_degree) -> str:
    """Canonical rendering shared by all term maps keyed by partitions."""
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms, key=sort_key):
        coeff = terms[key]
        mono = monomial_str(key)
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


class Combination:
    """Sparse integer combination of basis elements, keyed by their index.

    Subclasses set ``_key`` (check and canonicalize one key), ``_order``
    and ``_mono`` (rendering), and ``_like`` if they carry more state.
    """

    __slots__ = ("coeffs",)

    _key = staticmethod(partition)
    _order = staticmethod(_by_degree)

    def __init__(self, coeffs=None):
        clean = {}
        for key, c in (coeffs or {}).items():
            k = self._key(key)
            if c:
                clean[k] = clean.get(k, 0) + c
        self.coeffs = {k: v for k, v in clean.items() if v}

    def _like(self, coeffs):
        return type(self)(coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is type(self):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + v
        return self._like(coeffs)

    def __rmul__(self, scalar: int):
        return self._like({k: scalar * v for k, v in self.coeffs.items()})

    def lift(self, element) -> SymPoly:
        """The polynomial sum of coeff * element(key)."""
        total = SymPoly.zero()
        for key, c in self.coeffs.items():
            total = total + element(key) * c
        return total

    def __str__(self):
        return render_terms(self.coeffs, self._mono, self._order)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


class XPoly:
    """Integer polynomial in explicit variables x1..xn.

    Terms map exponent vectors (length-n tuples) to nonzero ints.  Used
    as the fully expanded oracle; simplicity is preferred over speed.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError(f"alphabet size must be positive, got {n}")
        clean = {}
        for exp, coeff in (terms or {}).items():
            e = tuple(exp)
            if len(e) != n or any(not isinstance(v, int) or v < 0 for v in e):
                raise ValueError(f"bad exponent vector {exp!r} for {n} variables")
            if coeff:
                clean[e] = clean.get(e, 0) + coeff
        self.n = n
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def _raw(cls, n, terms):
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

    @classmethod
    def zero(cls, n):
        return cls._raw(n, {})

    @classmethod
    def one(cls, n):
        return cls._raw(n, {(0,) * n: 1})

    def _check(self, other):
        if self.n != other.n:
            raise ValueError(f"mixed alphabets: {self.n} vs {other.n}")

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, XPoly):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({(0,) * self.n: other} if other else {})
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            other = XPoly._raw(self.n, {(0,) * self.n: other} if other else {})
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            s = terms.get(k, 0) + v
            if s:
                terms[k] = s
            else:
                del terms[k]
        return XPoly._raw(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return XPoly._raw(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, XPoly) else -other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return XPoly.zero(self.n)
            return XPoly._raw(self.n, {k: v * other for k, v in self.terms.items()})
        self._check(other)
        out = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + v1 * v2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return XPoly._raw(self.n, out)

    __rmul__ = __mul__

    def permuted(self, perm):
        """Apply the variable permutation x_i -> x_perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {perm!r}")
        out = {}
        for e, v in self.terms.items():
            img = [0] * self.n
            for i, p in enumerate(perm):
                img[p] = e[i]
            out[tuple(img)] = v
        return XPoly._raw(self.n, out)

    def drop_last_var(self):
        """Set the last variable to zero and shrink the alphabet by one."""
        if self.n == 1:
            raise ValueError("cannot drop below one variable")
        terms = {e[:-1]: v for e, v in self.terms.items() if e[-1] == 0}
        return XPoly._raw(self.n - 1, terms)

    def __repr__(self):
        return f"XPoly(n={self.n}, {len(self.terms)} terms)"


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
    return XPoly._raw(n, terms)


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
    for key, coeff in p.terms.items():
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
    dual = [c[k] * (-1) ** k for k in range(bound + 1)]
    inv = [SymPoly.one()]
    for d in range(1, bound + 1):
        acc = SymPoly.zero()
        for k in range(1, d + 1):
            acc = acc + dual[k] * inv[d - k]
        inv.append(-acc)
    diff = []
    for d in range(bound + 1):
        acc = SymPoly.zero()
        for a in range(d + 1):
            acc = acc + c[a] * inv[d - a]
        diff.append(acc)
    return ChernSeries(diff)


def subst(p: SymPoly, series: ChernSeries) -> SymPoly:
    """Replace each generator ci in ``p`` by series[i] and expand."""
    if p.degree() > series.bound:
        raise ValueError(
            f"series truncated at degree {series.bound}, need {p.degree()}"
        )
    total = SymPoly.zero()
    for key, coeff in p.terms.items():
        term = SymPoly.const(coeff)
        for part in key:
            term = term * series[part]
        total = total + term
    return total
