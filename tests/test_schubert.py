import json
import random
import time

import pytest

from helpers import pfaffian_qtilde, rand_sympoly
from qschubert.basisconv import QExpansion, expand_in_qtilde, module_expand
from qschubert.partitions import complement, enumerate_partitions
from qschubert.qtilde import _CODES, _qtilde, qtilde, qtilde_pair
from qschubert.schubert import (
    LGRing,
    SchubertClass,
    _pieri,
    _product,
    betti,
    dual,
    integrate,
    multiply,
    omega,
    pair,
    reduce,
)
from qschubert.sympoly import SymPoly

c1 = SymPoly.gen(1)


def strict_classes(ring, rng, n_terms=2):
    coeffs = {}
    for _ in range(n_terms):
        d = rng.randint(0, ring.dim)
        options = enumerate_partitions(d, max_part=ring.n, strict=True)
        if options:
            coeffs[rng.choice(options)] = rng.randint(-3, 3)
    return SchubertClass(ring, coeffs)


def test_ring_descriptor():
    ring = LGRing(3)
    assert ring.dim == 6
    assert ring.top == (3, 2, 1)
    assert LGRing(3) == ring
    assert LGRing(2) != ring
    with pytest.raises(ValueError):
        LGRing(0)


def test_class_validation():
    ring = LGRing(2)
    with pytest.raises(ValueError):
        SchubertClass(ring, {(1, 1): 1})
    with pytest.raises(ValueError):
        SchubertClass(ring, {(3,): 1})
    a = SchubertClass(ring, {(2, 1): 0})
    assert not a
    assert a == 0
    assert omega((), ring) == 1 and omega((), ring) != 2
    assert omega((1,), ring) != 0 and omega((1,), ring) != 1
    b = SchubertClass(ring, {(2,): 2, (2, 1): 1})
    assert repr(b) == "SchubertClass(n=2, 2*S[2] + S[2,1])"
    assert repr(SchubertClass(LGRing(4))) == "SchubertClass(n=4, 0)"
    # equal coefficients in different rings, or in another type, are unequal
    other = SchubertClass(LGRing(3), b.coeffs)
    assert b != other and other != b
    with pytest.raises(ValueError):
        b + other
    assert b != QExpansion(b.coeffs)


def test_reduce_examples():
    ring = LGRing(2)
    assert reduce(qtilde_pair(1, 1), ring) == 0
    assert reduce(c1 ** 2, ring) == SchubertClass(ring, {(2,): 2})
    for n in (1, 2, 3):
        assert reduce(qtilde((1,)), LGRing(n)) == omega((1,), LGRing(n))


def test_relations_vanish():
    for n in range(1, 9):
        ring = LGRing(n)
        for i in range(1, n + 1):
            assert reduce(qtilde_pair(i, i), ring) == 0


def test_multiply_examples():
    ring = LGRing(2)
    w1, w2 = omega((1,), ring), omega((2,), ring)
    assert multiply(w1, w1) == SchubertClass(ring, {(2,): 2})
    assert multiply(w1, w2) == omega((2, 1), ring)
    unit = omega((), ring)
    a = SchubertClass(ring, {(1,): 3, (2, 1): -1})
    assert multiply(a, unit) == a
    with pytest.raises(ValueError):
        multiply(omega((1,), LGRing(2)), omega((1,), LGRing(3)))
    # a product landing in the top degree 28 of LG(7)
    ring = LGRing(7)
    assert multiply(omega((7, 5, 3, 1), ring), omega((6, 4, 2), ring)) == omega(ring.top, ring)
    # qschubert mul 2 2,1 --n 3
    ring = LGRing(3)
    assert multiply(omega((2,), ring), omega((2, 1), ring)) == SchubertClass(ring, {(3, 2): 2})
    ring = LGRing(8)
    assert multiply(omega((8, 6, 4, 2), ring), omega((7, 5, 3, 1), ring)) == omega(ring.top, ring)


def test_pieri_product_matches_free_module_path():
    # two paths: the Pieri action on S[J] against reducing the product of
    # both lifts through the free-module expansion, which the basisconv
    # tests check against the pivot-table solve
    for n in range(1, 6):
        ring = LGRing(n)
        keys = [
            k
            for d in range(ring.dim + 1)
            for k in enumerate_partitions(d, max_part=n, strict=True)
        ]
        for x, i in enumerate(keys):
            for j in keys[x:]:
                oracle = module_expand(qtilde(i) * qtilde(j), n).ring_part()
                got = multiply(omega(i, ring), omega(j, ring))
                assert got == SchubertClass(ring, oracle.coeffs), (n, i, j)


def test_multiply_is_associative_and_commutative():
    # multiply lifts the factor with the smaller truncated lift, so the
    # two orders of a product can take different paths
    rng = random.Random(4)
    for n in (2, 3, 5, 6):
        ring = LGRing(n)
        for _ in range(6):
            a, b, c = (strict_classes(ring, rng, 3) for _ in range(3))
            assert multiply(a, b) == multiply(b, a)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_memoized_products_match_the_uncached_product():
    # the memo is keyed on the (key, coeff) pairs of each factor, so the
    # order in which a factor's terms were added does not matter
    rng = random.Random(18)
    for n in range(1, 7):
        ring = LGRing(n)
        for _ in range(8):
            a, b = strict_classes(ring, rng, 3), strict_classes(ring, rng, 4)
            fresh = _product.__wrapped__(frozenset(a.coeffs.items()),
                                         frozenset(b.coeffs.items()), n)
            assert multiply(a, b).coeffs == fresh, (n, a, b)
            reordered = SchubertClass(ring, dict(reversed(a.coeffs.items())))
            assert multiply(reordered, b).coeffs == fresh, (n, a, b)


def test_a_repeated_product_is_a_lookup_and_a_copy():
    ring = LGRing(6)
    a = SchubertClass(ring, {(3, 1): 1, (2,): 2, (5, 4): -1})
    b = SchubertClass(ring, {(4, 2, 1): 1, (5,): -3})
    first = multiply(a, b)
    expect = dict(first.coeffs)
    assert expect
    # the result owns its dict: mutating it leaves the memo intact
    first.coeffs.clear()
    first.coeffs[(6,)] = 7
    pieri, lifts = _pieri.cache_info().misses, _qtilde.cache_info().misses
    hits = _product.cache_info().hits
    assert multiply(a, b).coeffs == expect
    assert multiply(SchubertClass(ring, dict(reversed(a.coeffs.items()))), b).coeffs == expect
    # both repeats were answered by the memo, with no Pieri step or lift
    assert _product.cache_info().hits == hits + 2
    assert (_pieri.cache_info().misses, _qtilde.cache_info().misses) == (pieri, lifts)


def test_structure_constants_are_nonnegative():
    """Every Schubert structure constant of LG(n), n <= 8, is >= 0, and
    so is every one of the odd orthogonal Grassmannian OG(n, 2n+1).

    LG(n) is homogeneous under Sp(2n), so by Kleiman transversality
    general translates of Schubert varieties meet properly, and the
    coefficient of S[K] in S[I] * S[J] counts the points of a
    transverse triple intersection: it cannot be negative.  The
    Schubert classes of OG(n, 2n+1) lift to P[I] = 2^(-len(I)) * Q[I]
    (Pragacz, LNM 1478, 1991), so that coefficient times
    2^(len(K) - len(I) - len(J)) is a structure constant of OG(n, 2n+1)
    and must be a nonnegative integer too.
    """
    for n in range(1, 9):
        ring = LGRing(n)
        keys = [k for d in range(ring.dim + 1)
                for k in enumerate_partitions(d, max_part=n, strict=True)]
        classes = [omega(k, ring) for k in keys]
        count = constants = 0
        for x, (i, a) in enumerate(zip(keys, classes)):
            for j, b in zip(keys[x:], classes[x:]):
                if sum(i) + sum(j) > ring.dim:
                    break  # keys run by ascending weight
                ab = multiply(a, b)
                # multiply(b, a) is the memo entry of ab; the uncached
                # product in the other order is a fresh computation
                assert ab.coeffs == _product.__wrapped__(
                    frozenset(b.coeffs.items()), frozenset(a.coeffs.items()), n), (n, i, j)
                assert all(c > 0 for c in ab.coeffs.values()), (n, i, j, ab)
                for k, c in ab.coeffs.items():
                    shift = len(i) + len(j) - len(k)
                    assert shift <= 0 or c % (1 << shift) == 0, (n, i, j, k, c)
                constants += len(ab.coeffs) * (1 if i == j else 2)
                count += 1
    assert count == 17082  # the products of LG(8)
    assert constants == 105736  # its nonzero constants, over ordered (I, J)


def test_top_products_give_the_point_class():
    # the lift is Q[I] with ci = 0 for i > n; the top class of LG(n) is
    # the product of its even and odd staircases
    for n in range(9, 17):
        ring = LGRing(n)
        a = omega(tuple(range(n, 0, -2)), ring)
        b = omega(tuple(range(n - 1, 0, -2)), ring)
        assert multiply(a, b) == omega(ring.top, ring), n


def test_random_pairings_follow_the_complement_rule():
    rng = random.Random(10)
    for n in (10, 11, 12):
        ring = LGRing(n)
        for _ in range(8):
            i = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)), reverse=True))
            dual_i = complement(i, n)
            others = enumerate_partitions(sum(dual_i), max_part=n, strict=True)
            for j in (dual_i, rng.choice(others), rng.choice(others)):
                assert pair(i, j, ring) == (j == dual_i), (n, i, j)
            # a degree other than dim gives 0 without forming the product
            j = rng.choice(enumerate_partitions(rng.randint(0, ring.dim), max_part=n,
                                                strict=True))
            if sum(i) + sum(j) != ring.dim:
                assert pair(i, j, ring) == 0


def test_products_past_the_top_degree_are_zero_at_once():
    ring = LGRing(20)
    top = omega(ring.top, ring)
    misses, minors = _qtilde.cache_info().misses, len(_CODES)
    # building the lift of a top class of LG(20) alone takes seconds, so
    # the answer must come before any lift
    assert multiply(top, top) == 0
    assert multiply(top, SchubertClass(ring, {(1,): 2, (20, 1): -1})) == 0
    assert (_qtilde.cache_info().misses, len(_CODES)) == (misses, minors)
    assert multiply(SchubertClass(ring), top) == 0


def test_integrate():
    ring = LGRing(2)
    assert integrate(omega((2, 1), ring)) == 1
    assert integrate(omega((1,), ring)) == 0
    w1 = omega((1,), ring)
    assert integrate(multiply(multiply(w1, w1), w1)) == 2


def test_pair_examples():
    ring = LGRing(2)
    assert pair((1,), (2,), ring) == 1
    assert pair((2,), (2,), ring) == 0
    assert pair((2, 1), (), ring) == 1
    with pytest.raises(ValueError):
        pair((1, 1), (2,), ring)
    with pytest.raises(ValueError):
        pair((3,), (2,), ring)


def test_duality_pairing_table():
    for n in (1, 2, 3, 6):
        ring = LGRing(n)
        dim = ring.dim
        for d in range(dim + 1):
            for i in enumerate_partitions(d, max_part=n, strict=True):
                for j in enumerate_partitions(dim - d, max_part=n, strict=True):
                    expect = 1 if j == complement(i, n) else 0
                    assert pair(i, j, ring) == expect
        for i in enumerate_partitions(min(2, dim), max_part=n, strict=True):
            assert dual(i, ring) == complement(i, n)


def test_betti():
    assert betti(LGRing(1)) == (1, 1)
    assert betti(LGRing(2)) == (1, 1, 1, 1)
    assert betti(LGRing(3)) == (1, 1, 1, 2, 1, 1, 1)
    for n in range(1, 7):
        seq = betti(LGRing(n))
        assert seq == seq[::-1]
        assert sum(seq) == 2 ** n
    # counting the strict partitions one by one is an independent path
    for n in range(1, 13):
        assert betti(LGRing(n)) == tuple(
            len(enumerate_partitions(d, max_part=n, strict=True))
            for d in range(LGRing(n).dim + 1)
        )
    start = time.perf_counter()
    seq = betti(LGRing(40))
    assert time.perf_counter() - start < 0.5
    assert len(seq) == 821 and seq == seq[::-1]
    assert sum(seq) == 2 ** 40


def test_reduce_drops_only_ideal_content():
    # reducing a lift of a class returns the class itself
    rng = random.Random(2)
    for _ in range(10):
        ring = LGRing(3)
        a = strict_classes(ring, rng)
        assert reduce(a.lift(), ring) == a


def test_reduce_of_random_polynomials_is_consistent():
    # the two stated paths agree: module_expand ring part vs reduce
    rng = random.Random(21)
    for _ in range(10):
        p = rand_sympoly(rng, 6, 3, 3)
        ring = LGRing(3)
        assert reduce(p, ring).coeffs == module_expand(p, 3).ring_part().coeffs
    # c_(n+1) and c_(n+2) vanish in the ring, and degrees pass dim LG(n)
    rng = random.Random(22)
    for n in (4, 5):
        ring = LGRing(n)
        nonzero = 0
        for _ in range(12):
            p = rand_sympoly(rng, ring.dim + 3, n, 3) + rand_sympoly(rng, ring.dim + 3, n + 2, 3)
            got = reduce(p, ring)
            assert got.coeffs == module_expand(p, n).ring_part().coeffs
            nonzero += bool(got)
        assert nonzero


def test_rendering_and_json():
    ring = LGRing(2)
    a = SchubertClass(ring, {(2,): 2, (2, 1): 1})
    assert str(a) == "2*S[2] + S[2,1]"
    assert str(omega((), ring)) == "S[]"
    obj = a.json_obj()
    assert obj == {
        "n": 2,
        "terms": [
            {"partition": [2], "coefficient": 2},
            {"partition": [2, 1], "coefficient": 1},
        ],
    }
    json.dumps(obj)


def test_class_arithmetic():
    ring = LGRing(2)
    a = omega((1,), ring)
    b = omega((2,), ring)
    s = a + b
    assert s.coeffs == {(1,): 1, (2,): 1}
    assert (2 * a).coeffs == {(1,): 2}
    assert (a * 3).coeffs == {(1,): 3}
    with pytest.raises(ValueError):
        a + omega((1,), LGRing(3))
    assert a * a == multiply(a, a)
    with pytest.raises(ValueError):
        a * omega((1,), LGRing(3))


def test_a_class_times_a_non_class_is_a_type_error():
    w = omega((1,), LGRing(2))
    for other in (c1, 1.5, "x", None):
        with pytest.raises(TypeError):
            w * other
        with pytest.raises(TypeError):
            other * w


def test_no_cached_pieri_value_is_mutated():
    # _act reads the dicts _pieri and _qtilde share with every caller,
    # and multiply copies the products _product shares; after a mix of
    # all four callers, each cached value must still be the one first made
    _pieri.cache_clear()
    _qtilde.cache_clear()
    _product.cache_clear()
    products = set()
    c = [None] + [SymPoly.gen(i) for i in range(1, 6)]
    q321 = qtilde((3, 2, 1))
    expand_in_qtilde(q321 * c[1] + 2 * c[1] ** 3 * c[2] ** 2 - c[4] * c[3])
    expand_in_qtilde(c[3] ** 2 * c[2] * c[1] - 2 * c[2] ** 3 + c[1] ** 9, 3)
    module_expand(q321 * c[2] ** 2 + c[5] * c[2] - c[4] ** 2 * c[1] ** 2, 4)
    for n in (4, 5):
        ring = LGRing(n)
        rng = random.Random(n)
        for _ in range(6):
            a, b = strict_classes(ring, rng, 3), strict_classes(ring, rng, 3)
            multiply(a, b)
            # multiply keys a product on its factors in the order of their hashes
            pair = sorted((frozenset(a.coeffs.items()), frozenset(b.coeffs.items())), key=hash)
            products.add((*pair, n))
        reduce(q321 * c[1] ** 2 + c[5] * c[4] - 3 * c[2] ** 3, ring)
    # expansions act to degree top with parts <= bound; products and
    # reduce act ci with i <= n on every class of LG(n)
    domain = [(r, key, bound, False)
              for bound, top in ((None, 8), (3, 10), (4, 10))
              for w in range(top)
              for key in enumerate_partitions(w, bound)
              for r in range(1, top - w + 1)]
    domain += [(r, key, n, True)
               for n in (4, 5)
               for w in range(LGRing(n).dim + 1)
               for key in enumerate_partitions(w, n, strict=True)
               for r in range(1, n + 1)]
    for args in domain:
        assert _pieri(*args) == _pieri.__wrapped__(*args), args
    # the domain covered every argument the mix cached
    assert _pieri.cache_info().currsize == len(domain)
    # the lifts: Q[I] unbounded, and truncated to ci with i <= n for the
    # classes of LG(n)
    lifts = [(key, None) for w in range(7) for key in enumerate_partitions(w)]
    lifts += [(key, n)
              for n in (4, 5)
              for w in range(LGRing(n).dim + 1)
              for key in enumerate_partitions(w, n, strict=True)]
    for parts, bound in lifts:
        expect = SymPoly.one() * pfaffian_qtilde(parts)  # Pf of () is the int 1
        if bound is not None:
            expect = expect.truncate_parts(bound)
        assert _qtilde(parts, bound) == expect, (parts, bound)
    assert _qtilde.cache_info().currsize == len(lifts)
    # the products: each cached value still equals a fresh computation
    for args in products:
        assert _product(*args) == _product.__wrapped__(*args), args
    assert _product.cache_info().currsize == len(products)
