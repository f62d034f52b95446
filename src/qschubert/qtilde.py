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
their sub-partitions.  Two equal neighbours i_k = i_(k+1) of the first
row give the same product with opposite signs, so a run of r equal
entries leaves one product when r is odd and none when r is even.
The builder also takes a bound b and then gives Q[I] with ci = 0 for
i > b, the lift of a Schubert class of LG(b): setting those ci to 0 is
a ring map, so it truncates the two-row entries before they multiply,
and Q[I] is 0 outright when i_1 > b.  `qtilde` is the unbounded case.

The minors are built on prime codes, not on SymPoly keys.  The code of
ci is the i-th prime (c0 = 1 has code 1), and the code of a monomial is
the product of the codes of its generators.  By unique factorization a
code names exactly one monomial, and the code of a product of monomials
is the product of their codes, so one integer multiplication stands for
merging two sorted key tuples.  A minor is only ever multiplied, never
shown, so its codes are decoded back into SymPoly keys only when Q[I]
itself is asked for, and each code is factored once per process.

Schur Q-functions arise from the same family by substituting the Chern
series of the virtual difference bundle for the generators.
"""

from functools import cache
from itertools import groupby
from operator import mul

from .partitions import partition
from .sympoly import Combination, SymPoly, chern_difference, subst


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
    return SymPoly.zero()._sum_of_products(
        [(c, qtilde_one(a), qtilde_one(b)) for c, a, b in _pair_terms(i, j)])


def _pair_terms(i: int, j: int):
    """(coeff, a, b) for each term coeff * ca * cb of Q[i, j]: the terms
    p = 0..j of the two-row formula, with a = i + p and b = j - p."""
    yield 1, i, j
    for p in range(1, j + 1):
        yield -2 if p % 2 else 2, i + p, j - p


def qtilde(parts) -> SymPoly:
    """Q[I] for an arbitrary partition I, strict or not."""
    return _qtilde(partition(parts), None)


class _Codes(Combination):
    """A polynomial in c1, c2, ... keyed by the prime code of each monomial."""

    __slots__ = ()

    _merge = staticmethod(mul)


_PRIMES = [1]  # _PRIMES[i] is the code of ci


def _primes(top: int) -> list:
    """_PRIMES, extended to hold the code of c_top."""
    p = _PRIMES[-1]
    while len(_PRIMES) <= top:
        p += 1
        if all(p % q for q in _PRIMES[1:]):
            _PRIMES.append(p)
    return _PRIMES


@cache
def _key(code: int) -> tuple:
    """The SymPoly key of a prime code, by trial division.

    Every code is a product of primes already in _PRIMES, so the loop
    stops inside the list.  c1 has code 2, so its exponent is the number
    of trailing zero bits.  Any other prime p that divides is taken out
    once, and then each division takes out the largest p^(2^t) that
    divides, so c2^1000 takes 9 divisions, not 1,000, and a generator
    that occurs once costs one division.  Keys are shared by every Q[I]
    that has the monomial, so none may be mutated.
    """
    e = (code & -code).bit_length() - 1
    code >>= e
    key = [1] * e
    i = 1
    while code > 1:
        i += 1
        p = _PRIMES[i]
        if code % p:
            continue
        code //= p
        key.append(i)
        while not code % p:
            q, e = p, 1
            while not code % (q * q):
                q, e = q * q, e + e
            code //= q
            key += [i] * e
    key.reverse()
    return tuple(key)


@cache
def _pair_codes(i: int, j: int, bound) -> _Codes:
    """Q[i, j] with c_r = 0 for r > bound (None means no bound), on codes.

    Built from the two-row formula itself, not from qtilde_pair.  Its
    terms have distinct a = i + p, so they are distinct monomials and go
    straight into the dict; b <= a, so a term vanishes when a > bound.
    """
    code = _primes(i + j)
    return _Codes._like({code[a] * code[b]: c for c, a, b in _pair_terms(i, j)
                         if bound is None or a <= bound})


def _first_row(parts: tuple, bound) -> list:
    """(sign, Q[i_1, i_k], minor) on codes for each term of the first-row
    expansion of Q[parts] with ci = 0 for i > bound that does not cancel;
    empty for fewer than three parts, and when parts[0] > bound, since
    Q[parts] is then 0.

    Equal entries i_k = i_(k+1) have the same minor and opposite signs,
    so a run of r equal entries leaves its last term when r is odd and
    nothing when r is even.
    """
    h = len(parts)
    if h < 3 or bound is not None and parts[0] > bound:
        return []
    idx = parts if h % 2 == 0 else parts + (0,)
    first, rest = idx[0], idx[1:]
    row = []
    pos = -1
    for part, run in groupby(rest):
        r = len(tuple(run))
        pos += r
        if r % 2:
            minor = rest[:pos] + rest[pos + 1:]
            if minor[-1] == 0:
                minor = minor[:-1]
            row.append((-1 if pos % 2 else 1, _pair_codes(first, part, bound), minor))
    return row


_CODES = {}  # (parts, bound) -> _Codes of every Q[parts] built, minors included


def _codes(parts: tuple, bound) -> _Codes:
    """Q[parts] with ci = 0 for i > bound (None means no bound), on codes.

    parts is a canonical partition.  Q[parts] is 0 when parts[0] > bound,
    since every entry Q[i_1, i_k] of the first row has a factor c_(i_1+p)
    with p >= 0 in each term.  Otherwise the two-row entries are truncated
    before they multiply, because truncation is a ring map.

    Every minor is kept in _CODES.  The minors not there yet are found
    from an explicit stack and built shortest first, so each build finds
    its own minors built and the stack depth does not grow with the
    length of parts.  Products of codes are exact: a code factors into
    the codes of its generators in one way only, so two monomials share
    a code exactly when they are equal.

    The result is shared by every caller and must not be mutated.
    """
    memo = _CODES
    if (parts, bound) not in memo:
        rows = {parts: _first_row(parts, bound)}
        stack = [parts]
        while stack:
            for _, _, minor in rows[stack.pop()]:
                if minor not in rows and (minor, bound) not in memo:
                    rows[minor] = _first_row(minor, bound)
                    stack.append(minor)
        for p in sorted(rows, key=len):
            if len(p) < 3:
                # Q[] = Q[0, 0] = 1 and Q[i] = Q[i, 0]
                memo[p, bound] = _pair_codes(*(p + (0, 0))[:2], bound)
            else:
                memo[p, bound] = _Codes._like({})._sum_of_products(
                    [(sign, pair, memo[minor, bound]) for sign, pair, minor in rows[p]])
    return memo[parts, bound]


@cache
def _qtilde(parts: tuple, bound) -> SymPoly:
    """Q[parts] with ci = 0 for i > bound (None means no bound).

    The codes of _codes(parts, bound) are decoded here, through the
    process-wide memo _key, so a minor that no caller asks for is never
    decoded and a monomial shared by many Q[I] is factored once.

    The result is shared by every caller and must not be mutated.
    """
    return SymPoly._like({_key(c): v for c, v in _codes(parts, bound).coeffs.items()})


def schur_q(parts) -> SymPoly:
    """Schur Q-function: Q[I] with ci replaced by ci of E - E*."""
    parts = partition(parts)
    return subst(qtilde(parts), chern_difference(sum(parts)))
