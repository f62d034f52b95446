import random
from math import comb

import pytest

from helpers import (
    SkewMatrix,
    elem_x_squares,
    fraction_det,
    oracle_qtilde,
    pfaffian,
    pfaffian_qtilde,
    rand_skew,
    xp_of,
)
from qschubert.partitions import enumerate_partitions
from qschubert.qtilde import (
    _CODES,
    _codes,
    _qtilde,
    qtilde,
    qtilde_one,
    qtilde_pair,
    schur_q,
)
from qschubert.sympoly import SymPoly, evaluate

c1, c2, c3, c4 = (SymPoly.gen(i) for i in (1, 2, 3, 4))


def all_partitions_up_to(max_weight):
    for d in range(max_weight + 1):
        yield from enumerate_partitions(d)


def test_qtilde_one():
    assert qtilde_one(0) == 1
    assert qtilde_one(1) == c1
    assert qtilde_one(4) == c4
    with pytest.raises(ValueError):
        qtilde_one(-1)


def test_qtilde_pair_examples():
    assert qtilde_pair(1, 1) == c1 ** 2 - 2 * c2
    assert qtilde_pair(2, 1) == c2 * c1 - 2 * c3
    assert qtilde_pair(2, 2) == c2 ** 2 - 2 * c3 * c1 + 2 * c4
    for i in range(5):
        assert qtilde_pair(i, 0) == qtilde_one(i)
    with pytest.raises(ValueError):
        qtilde_pair(1, 2)
    with pytest.raises(ValueError):
        qtilde_pair(1, -1)


def test_square_identity_small():
    # Q[i,i] evaluates to e_i of the squared variables
    for n in range(1, 5):
        for i in range(1, n + 1):
            assert xp_of(evaluate(qtilde_pair(i, i), n)) == elem_x_squares(i, n)


def test_skew_matrix_validation():
    m = SkewMatrix(2, {(0, 1): c1})
    assert m[0, 1] == c1
    assert m[1, 0] == -c1
    assert m[0, 0] == 0
    with pytest.raises(ValueError):
        SkewMatrix(3, {})
    with pytest.raises(ValueError):
        SkewMatrix(2, {(1, 0): c1})
    with pytest.raises(ValueError):
        SkewMatrix(2, {(0, 2): c1})


def test_pfaffian_base_cases():
    assert pfaffian(SkewMatrix(0, {})) == 1
    assert pfaffian(SkewMatrix(2, {(0, 1): c2})) == c2


def test_pfaffian_size_four_expansion():
    entries = {
        (0, 1): c1, (0, 2): c2, (0, 3): c3,
        (1, 2): c4, (1, 3): SymPoly.gen(5), (2, 3): SymPoly.gen(6),
    }
    m = SkewMatrix(4, entries)
    expect = c1 * SymPoly.gen(6) - c2 * SymPoly.gen(5) + c3 * c4
    assert pfaffian(m) == expect


def test_pfaffian_squares_to_determinant():
    rng = random.Random(77)
    for _ in range(60):
        h = 2 * rng.randint(1, 3)
        raw = rand_skew(rng, h)
        m = SkewMatrix(h, {(p, q): raw[p][q] for p in range(h) for q in range(p + 1, h)})
        assert pfaffian(m) ** 2 == fraction_det(raw)


def test_qtilde_examples():
    assert qtilde(()) == 1
    assert qtilde((2, 1)) == c2 * c1 - 2 * c3
    assert qtilde((1, 1, 1)) == c1 ** 3 - 2 * c2 * c1
    assert qtilde((2, 2)) == qtilde_pair(2, 2)
    assert qtilde([3, 1, 0]) == qtilde((3, 1))
    with pytest.raises(ValueError):
        qtilde((1, 2))


def test_qtilde_is_homogeneous():
    for parts in all_partitions_up_to(8):
        p = qtilde(parts)
        assert p.is_homogeneous(sum(parts))
        assert p  # never vanishes on any partition


def test_qtilde_matches_x_oracle():
    # independent arithmetic + matching-sum Pfaffian, degrees <= 6 here
    for parts in all_partitions_up_to(6):
        n = max(1, sum(parts))
        assert xp_of(evaluate(qtilde(parts), n)) == oracle_qtilde(parts, n)


def test_qtilde_recursion_matches_pfaffian():
    # the first-row recursion against the full Pfaffian of two-row values
    count = 0
    for parts in all_partitions_up_to(16):
        assert qtilde(parts) == pfaffian_qtilde(parts), parts
        count += 1
    assert count == 915
    # the builder shares minors through _CODES: building (1^16) stores
    # exactly (1^16), (1^14), ..., (1, 1) and nothing else, and asking
    # for any of them again rebuilds nothing
    _CODES.clear()
    _qtilde.cache_clear()
    qtilde((1,) * 16)
    built = dict(_CODES)
    assert sorted(built) == [((1,) * k, None) for k in range(2, 17, 2)]
    for k in range(2, 17, 2):
        assert _codes((1,) * k, None) is built[(1,) * k, None]
    assert _CODES == built


def test_repeated_parts_have_closed_forms():
    # Q[i^(2m)] = Q[i,i]^m and Q[i^(2m+1)] = ci * Q[i,i]^m: the Pfaffian of
    # a matrix whose upper entries all equal Q[i,i] is its m-th power, a
    # second path that does not go through the first-row loop
    for i in range(1, 5):
        power = SymPoly.one()
        for m in range(7):
            assert qtilde((i,) * (2 * m)) == power, (i, m)
            assert qtilde((i,) * (2 * m + 1)) == qtilde_one(i) * power, (i, m)
            power = power * qtilde_pair(i, i)
    # equal leading parts leave one minor per level, so 600 parts finish
    assert qtilde((1,) * 600) == (c1 ** 2 - 2 * c2) ** 300


def test_long_partitions_answer_exactly():
    # the minors are built from a worklist, not by recursion, so the
    # length of I is not bounded by the interpreter's stack; Q[1^1200]
    # is (c1^2 - 2*c2)^600, written out by the binomial theorem
    expect = SymPoly({(2,) * k + (1,) * (1200 - 2 * k): comb(600, k) * (-2) ** k
                      for k in range(601)})
    assert qtilde((1,) * 1200) == expect


def test_bounded_builder_is_the_truncation():
    # ci -> 0 for i > b is a ring map, so truncating the two-row entries
    # inside the recursion gives the truncation of the whole Q[I]
    for parts in all_partitions_up_to(12):
        for b in range(1, 8):
            assert _qtilde(parts, b) == qtilde(parts).truncate_parts(b), (parts, b)
    # a first part above the bound leaves no term
    assert _qtilde((5, 1, 1), 4) == 0
    assert qtilde((5, 1, 1)).truncate_parts(4) == 0


def test_padding_prepend_flips_sign():
    # moving the zero part to the front permutes the matrix by an
    # (h+1)-cycle, so for odd h the result is exactly the negative
    for parts in all_partitions_up_to(6):
        if len(parts) < 3 or len(parts) % 2 == 0:
            continue
        idx = (0,) + parts
        upper = {}
        for p in range(len(idx)):
            for q in range(p + 1, len(idx)):
                if idx[p] >= idx[q]:
                    upper[(p, q)] = qtilde_pair(idx[p], idx[q])
                else:
                    upper[(p, q)] = -qtilde_pair(idx[q], idx[p])
        assert pfaffian(SkewMatrix(len(idx), upper)) == -qtilde(parts)


def test_stability_under_variable_drop():
    for parts in all_partitions_up_to(6):
        for n in range(1, 4):
            bigger = evaluate(qtilde(parts), n + 1)
            assert bigger.drop_last_var() == evaluate(qtilde(parts), n)


def test_schur_q_examples():
    assert schur_q(()) == 1
    assert schur_q((1,)) == 2 * c1
    assert schur_q((2, 1)) == 4 * (c2 * c1 - c3)
    assert xp_of(evaluate(schur_q((2, 1)), 2)) == {(2, 1): 4, (1, 2): 4}
    for i in range(1, 4):
        assert schur_q((i, i)) == 0
