import random
from itertools import permutations

import pytest

from helpers import (
    elem_x,
    loop_product,
    loop_sum_of_products,
    rand_sympoly,
    xp_add,
    xp_mul,
    xp_of,
)
from qschubert.exprio import TPoly
from qschubert.sympoly import (
    ChernSeries,
    SymPoly,
    XPoly,
    chern_difference,
    elementary,
    evaluate,
    subst,
)

c1, c2, c3 = SymPoly.gen(1), SymPoly.gen(2), SymPoly.gen(3)


def test_constructor_canonicalizes():
    p = SymPoly({(1, 2): 1, (2, 1): 2, (3,): 0})
    assert p.terms == {(2, 1): 3}
    assert SymPoly({}) == SymPoly.zero() == 0
    with pytest.raises(ValueError):
        SymPoly({(0,): 1})
    with pytest.raises(ValueError):
        SymPoly({(-1,): 1})


def test_gen():
    assert SymPoly.gen(0) == 1
    assert SymPoly.gen(2).terms == {(2,): 1}
    with pytest.raises(ValueError):
        SymPoly.gen(-1)


def test_ring_examples():
    assert (c1 + c2) * c1 == SymPoly({(1, 1): 1, (2, 1): 1})
    p = 3 * c2 - c1
    assert p * SymPoly.one() == p
    assert (c2 * c1 - 2 * c3) + 2 * c3 == c2 * c1


def test_int_mixing_and_pow():
    assert 1 + c1 - 1 == c1
    assert 2 - c1 == SymPoly({(): 2, (1,): -1})
    assert (-c1) * (-c1) == c1 ** 2
    assert c1 ** 0 == 1
    rng = random.Random(11)
    for _ in range(20):
        p = rand_sympoly(rng, 3, 3, 3)
        byhand = SymPoly.one()
        for _ in range(3):
            byhand = byhand * p
        assert p ** 3 == byhand
    with pytest.raises(ValueError):
        c1 ** -1
    assert repr(c1 ** 2 - 2 * c2 + 3) == "SymPoly(c1^2 - 2*c2 + 3)"
    assert repr(SymPoly.zero()) == "SymPoly(0)"
    p = c2 * c1 - 2 * c3
    assert (p * 0).terms == {} and (0 * p).terms == {}
    assert p * 0 == SymPoly.zero() == 0 * p


def test_degree_and_components():
    p = c1 ** 3 + 2 * c2 - 5
    assert p.degree() == 3
    assert SymPoly.zero().degree() == -1
    comps = p.homogeneous_components()
    assert set(comps) == {0, 2, 3}
    assert comps[2] == 2 * c2
    assert sum(comps.values(), SymPoly.zero()) == p
    assert all(comps[d].is_homogeneous(d) for d in comps)


def test_truncate_parts():
    p = c2 * c1 - 2 * c3
    assert p.truncate_parts(2) == c2 * c1
    assert p.truncate_parts(3) == p
    assert p.truncate_parts(1) == 0


def test_coefficient():
    p = c2 * c1 - 2 * c3
    assert p.coefficient((1, 2)) == 1
    assert p.coefficient((3,)) == -2
    assert p.coefficient((5,)) == 0


def test_rendering():
    assert str(c2 * c1 - 2 * c3) == "c2*c1 - 2*c3"
    assert str(c1 ** 2 - 2 * c2) == "c1^2 - 2*c2"
    assert str(SymPoly.zero()) == "0"
    assert str(SymPoly.const(-7)) == "-7"
    assert str(-c1 + 1) == "-c1 + 1"
    assert str(c1 * c1 * c2) == "c2*c1^2"
    assert str(2 * c1 ** 3 - 2 * c2 * c1 + 2 * c3) == "2*c1^3 - 2*c2*c1 + 2*c3"


def test_evaluate_examples():
    assert xp_of(evaluate(c1, 2)) == {(1, 0): 1, (0, 1): 1}
    assert evaluate(c2, 1) == XPoly.zero(1)
    assert xp_of(evaluate(c1 ** 2 - 2 * c2, 2)) == {(2, 0): 1, (0, 2): 1}


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 4)
        p = rand_sympoly(rng, 6, 4, 3)
        q = rand_sympoly(rng, 6, 4, 3)
        # SymPoly and XPoly share one product loop, so the expected side
        # multiplies the exponent dicts independently
        ep, eq = xp_of(evaluate(p, n)), xp_of(evaluate(q, n))
        assert xp_of(evaluate(p * q, n)) == xp_mul(ep, eq)
        assert xp_of(evaluate(p + q, n)) == xp_add(ep, eq)


def test_evaluate_results_are_symmetric():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        p = rand_sympoly(rng, 5, 4, 3)
        v = evaluate(p, n)
        for perm in permutations(range(n)):
            assert v.permuted(perm) == v


def test_xpoly_basics():
    a = XPoly(2, {(1, 0): 1})
    b = XPoly(2, {(0, 1): 1})
    assert a + b == XPoly(2, {(1, 0): 1, (0, 1): 1})
    assert a * b == XPoly(2, {(1, 1): 1})
    assert a - a == XPoly.zero(2)
    assert (a + 1) - 1 == a
    assert 3 * a == XPoly(2, {(1, 0): 3})
    assert 1 - a == XPoly(2, {(0, 0): 1, (1, 0): -1})
    assert (1 - a) + a == 1
    assert a * 0 == XPoly.zero(2) == 0 * a
    assert repr(a + b) == "XPoly(n=2, 2 terms)"
    assert str(XPoly.zero(3)) == "XPoly(n=3, 0 terms)"
    with pytest.raises(ValueError):
        XPoly(2, {(1,): 1})
    other = XPoly(3, {(0, 0, 1): 1})
    assert a != other and XPoly.zero(2) != XPoly.zero(3)
    with pytest.raises(ValueError):
        a + other
    with pytest.raises(ValueError):
        a * other


def stores_no_zero(p):
    return all(v and (isinstance(v, int) or stores_no_zero(v)) for v in p.coeffs.values())


def test_sum_of_products_matches_the_product_loop():
    rng = random.Random(20)

    def xpoly():
        return XPoly(3, {tuple(rng.randint(0, 2) for _ in range(3)): rng.randint(-9, 9)
                         for _ in range(rng.randint(0, 5))})

    def tpoly():
        return TPoly({rng.randint(0, 3): rand_sympoly(rng, 4, 3, 3)
                      for _ in range(rng.randint(0, 3))})

    kinds = [(SymPoly.zero(), lambda: rand_sympoly(rng, 6, 4, rng.randint(0, 5))),
             (XPoly.zero(3), xpoly), (TPoly(), tpoly)]
    for zero, make in kinds:
        for _ in range(60):
            triples = [(rng.randint(-3, 3), make(), make()) for _ in range(rng.randint(0, 4))]
            got = zero._sum_of_products(triples)
            assert got == loop_sum_of_products(zero, triples)
            assert stores_no_zero(got)
            # each triple against its mirror with the opposite sign: exactly 0
            mirrored = triples + [(-c, b, a) for c, a, b in triples]
            assert zero._sum_of_products(mirrored).coeffs == {}
            for _, a, b in triples:  # a product is the kernel's one-triple case
                assert a * b == loop_product(a, b) and stores_no_zero(a * b)
    with pytest.raises(ValueError):
        XPoly(2, {(1, 0): 1}) * XPoly(3, {(0, 0, 1): 1})


def test_xpoly_drop_last_var():
    p = XPoly(2, {(2, 0): 1, (1, 1): 4})
    assert p.drop_last_var() == XPoly(1, {(2,): 1})
    with pytest.raises(ValueError):
        XPoly(1, {(1,): 1}).drop_last_var()


def test_elementary_against_combinations():
    for n in range(1, 7):
        for i in range(0, n + 2):
            assert xp_of(elementary(i, n)) == elem_x(i, n)


def test_chern_series_validation():
    ChernSeries([SymPoly.one(), c1, c2])
    with pytest.raises(ValueError):
        ChernSeries([c1])
    with pytest.raises(ValueError):
        ChernSeries([SymPoly.one(), c2])


def test_chern_difference_low_degrees():
    s = chern_difference(3)
    assert s[0] == 1
    assert s[1] == 2 * c1
    assert s[2] == 2 * c1 ** 2
    assert s[3] == 2 * c1 ** 3 - 2 * c2 * c1 + 2 * c3


def test_chern_difference_satisfies_series_identity():
    # entries must satisfy prod(1 - xi) * sum(entries) = prod(1 + xi)
    bound, n = 6, 3
    s = chern_difference(bound)
    total = XPoly.zero(n)
    for k in range(bound + 1):
        total = total + evaluate(s[k], n)
    minus = XPoly.one(n)
    plus = XPoly.one(n)
    for i in range(1, n + 1):
        e = [0] * n
        e[i - 1] = 1
        x = XPoly(n, {tuple(e): 1})
        minus = minus * (XPoly.one(n) - x)
        plus = plus * (XPoly.one(n) + x)
    product = minus * total
    kept = {e: c for e, c in product.terms.items() if sum(e) <= bound}
    expect = {e: c for e, c in plus.terms.items() if sum(e) <= bound}
    assert kept == expect


def test_subst():
    ident = ChernSeries.identity(4)
    p = c1 ** 2 - 2 * c2
    assert subst(p, ident) == p
    scaled = ChernSeries([SymPoly.one(), 2 * c1, c2, c3, SymPoly.gen(4)])
    assert subst(c1 ** 2, scaled) == 4 * c1 ** 2
    assert subst(c1 ** 2 - 2 * c2, chern_difference(2)) == 0
    with pytest.raises(ValueError):
        subst(c3, chern_difference(2))
