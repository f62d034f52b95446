import random

import pytest

from helpers import (
    BasisError,
    additive_pivots,
    additive_transition_matrix,
    bareiss_det,
    module_element,
    module_pivots,
    module_transition_matrix,
    oracle_expand,
    oracle_module_expand,
    pivot_table,
    rand_sympoly,
    substitute,
)
from qschubert.basisconv import ModuleExpansion, QExpansion, expand_in_qtilde, module_expand
from qschubert.partitions import enumerate_partitions
from qschubert.qtilde import qtilde, qtilde_pair
from qschubert.schubert import _pieri
from qschubert.sympoly import SymPoly

c1, c2, c3 = SymPoly.gen(1), SymPoly.gen(2), SymPoly.gen(3)


def test_expand_examples():
    assert expand_in_qtilde(c1 ** 2).coeffs == {(1, 1): 1, (2,): 2}
    assert expand_in_qtilde(c1 ** 3).coeffs == {(1, 1, 1): 1, (2, 1): 2, (3,): 4}
    assert expand_in_qtilde(SymPoly.const(5)).coeffs == {(): 5}
    assert expand_in_qtilde(SymPoly.zero()).coeffs == {}


def test_expand_round_trips_each_basis_element():
    for d in range(7):
        for parts in enumerate_partitions(d):
            assert expand_in_qtilde(qtilde(parts)).coeffs == {parts: 1}


def test_expand_round_trips_random_polynomials():
    rng = random.Random(3)
    for _ in range(40):
        p = rand_sympoly(rng, 8, 4, 4)
        assert expand_in_qtilde(p).to_sympoly() == p


def test_expand_is_linear():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_sympoly(rng, 6, 3, 3)
        q = rand_sympoly(rng, 6, 3, 3)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        lhs = expand_in_qtilde(a * p + b * q)
        rhs = a * expand_in_qtilde(p) + b * expand_in_qtilde(q)
        assert lhs == rhs


def test_expand_with_bounded_parts():
    # at the bound, columns are the truncated qtilde values
    p = (c2 * c1).truncate_parts(2)
    e = expand_in_qtilde(p, max_part=2)
    assert e.coeffs == {(2, 1): 1}
    # degree 0 runs through the same single-column substitution
    assert expand_in_qtilde(SymPoly.const(5), max_part=2).coeffs == {(): 5}
    assert expand_in_qtilde(c1 ** 2 + 3, max_part=1).coeffs == {(1, 1): 1, (): 3}
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        q = rand_sympoly(rng, 6, n, 3)
        back = expand_in_qtilde(q, max_part=n).to_sympoly().truncate_parts(n)
        assert back == q


def test_expand_rejects_unrepresentable():
    with pytest.raises(ValueError):
        expand_in_qtilde(c3, max_part=2)
    with pytest.raises(ValueError):
        expand_in_qtilde(c1, max_part=0)


def test_transition_matrices_are_unimodular():
    for d in range(1, 9):
        basis, rows, matrix = additive_transition_matrix(d, None)
        assert len(basis) == len(rows) == len(matrix)
        assert bareiss_det([list(r) for r in matrix]) in (1, -1)
    for n in range(1, 5):
        for d in range(1, 9):
            basis, rows, matrix = module_transition_matrix(d, n)
            assert len(basis) == len(rows) == len(matrix)
            assert bareiss_det([list(r) for r in matrix]) in (1, -1)


def test_module_expand_examples():
    m = module_expand(c1 ** 2, 2)
    assert m.coeffs == {((), (1,)): 1, ((2,), ()): 2}
    m = module_expand(qtilde_pair(2, 2), 2)
    assert m.coeffs == {((), (2,)): 1}
    for n in range(1, 4):
        assert module_expand(c1, n).coeffs == {((1,), ()): 1}
        assert module_expand(SymPoly.const(5), n).coeffs == {((), ()): 5}


def test_module_expand_round_trips():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = rand_sympoly(rng, 6, n, 3)
        back = module_expand(p, n).to_sympoly().truncate_parts(n)
        assert back == p
    # up to the top degree n(n+1)/2 of LG(n), for n up to 6
    for n in range(4, 7):
        for _ in range(8):
            p = rand_sympoly(rng, n * (n + 1) // 2, n, 4)
            back = module_expand(p, n).to_sympoly().truncate_parts(n)
            assert back == p


def test_module_expand_truncates_first():
    assert module_expand(c3, 2).coeffs == {}
    assert module_expand(c3 + c1, 2).coeffs == {((1,), ()): 1}
    with pytest.raises(ValueError):
        module_expand(c1, 0)


def test_module_keys_are_strict_and_graded():
    rng = random.Random(19)
    for _ in range(10):
        p = rand_sympoly(rng, 8, 3, 3)
        for (i, mu), _ in module_expand(p, 3).coeffs.items():
            assert len(set(i)) == len(i)
            assert all(v <= 3 for v in i + mu)


def _rigged_solve(columns, comp, rows=None):
    """Solve comp against columns given as {key: {e-monomial: coefficient}}."""
    keys = tuple(columns)
    rows = len(keys) if rows is None else rows
    table = pivot_table(keys, lambda key: SymPoly(columns[key]), 9, rows, "rigged")
    return substitute(table, comp, "rigged")


def test_solve_component_raises_on_rigged_systems():
    comp = SymPoly({(1,): 1})
    with pytest.raises(BasisError, match="zero column"):
        _rigged_solve({(1,): {}}, comp)
    with pytest.raises(BasisError, match="coefficient 2"):
        _rigged_solve({(1,): {(1,): 2}}, comp)
    with pytest.raises(BasisError, match="differ in size"):
        _rigged_solve({(1,): {(1,): 1}, (2,): {(2,): 1}}, comp, rows=1)


def test_solve_component_raises_on_non_unitriangular_systems():
    comp = SymPoly({(1, 1): 1})
    # unimodular, but both columns have their lex-smallest monomial at (1,1)
    assert bareiss_det([[1, 1], [1, 0]]) == -1
    with pytest.raises(BasisError, match="share the pivot"):
        _rigged_solve({(1, 1): {(1, 1): 1, (2,): 1}, (2,): {(1, 1): 1}}, comp)
    with pytest.raises(BasisError, match="zero column"):
        _rigged_solve({(1, 1): {(1, 1): 1}, (2,): {}}, comp)
    with pytest.raises(BasisError, match="coefficient -1"):
        _rigged_solve({(1, 1): {(1, 1): -1}, (2,): {(2,): 1}}, comp)
    solvable = {(1, 1): {(1, 1): 1, (2,): 2}, (2,): {(2,): 1}}
    assert _rigged_solve(solvable, comp) == {(1, 1): 1, (2,): -2}
    with pytest.raises(BasisError, match="no column's pivot"):
        _rigged_solve({(1, 1): {(1, 1): 1}, (2,): {(2,): 1}}, SymPoly({(1, 1): 1, (3,): 2}))


def test_transition_pivots_are_the_column_keys():
    # the lex-smallest e-monomial of Q[I] is e_I; of Q[I] * prod Q[m, m]
    # it is e_K with K = I, mu, mu merged
    for d in range(1, 15):
        for pivot, key, _ in additive_pivots(d, None):
            assert pivot == key
    for n in range(1, 7):
        for d in range(1, n * (n + 1) // 2 + 1):
            for pivot, (i, mu), _ in module_pivots(d, n):
                assert pivot == tuple(sorted(i + mu + mu, reverse=True))


def test_qexpansion_type():
    e = QExpansion({(2, 1): 3, (3,): 0, (1, 1, 0): 1})
    assert e.coeffs == {(2, 1): 3, (1, 1): 1}
    with pytest.raises(ValueError):
        QExpansion({(1, 2): 1})
    assert str(QExpansion({(2, 1): 3, (3,): 12})) == "3*Q[2,1] + 12*Q[3]"
    assert str(QExpansion({(): 2, (1,): -1})) == "-Q[1] + 2*Q[]"
    assert str(QExpansion({})) == "0"
    assert QExpansion({(1,): 2}).json_obj() == [{"partition": [1], "coefficient": 2}]
    assert repr(QExpansion({(2, 1): 3, (3,): 12})) == "QExpansion(3*Q[2,1] + 12*Q[3])"
    assert repr(QExpansion({})) == "QExpansion(0)"
    assert QExpansion({(1,): 1}) + QExpansion({(1,): -1, (2,): 1}) == QExpansion({(2,): 1})
    assert 0 * e == QExpansion({}) and not 0 * e


def test_module_expansion_type():
    with pytest.raises(ValueError):
        ModuleExpansion({((1, 1), ()): 1})
    m = ModuleExpansion({((2, 1), (1, 1)): 2})
    assert m.to_sympoly() == 2 * qtilde((2, 1)) * qtilde_pair(1, 1) ** 2
    assert m.ring_part().coeffs == {}
    assert ModuleExpansion({((2,), ()): 5}).ring_part().coeffs == {(2,): 5}
    m = ModuleExpansion({((2, 1), (1, 1)): 2, ((3,), ()): -1, ((1,), (1,)): 0})
    assert repr(m) == "ModuleExpansion({((3,), ()): -1, ((2, 1), (1, 1)): 2})"
    assert str(m) == "-Q[3] + 2*Q[1,1]*Q[1,1]*Q[2,1]"
    assert m + m == 2 * m
    assert m.ring_part() == QExpansion({(3,): -1})
    assert m != m.ring_part()


def test_expand_matches_the_pivot_solve_on_every_monomial():
    for bound in (None, 1, 2, 3, 5):
        for d in range(15):
            for mono in enumerate_partitions(d, max_part=bound):
                p = SymPoly({mono: 1})
                assert expand_in_qtilde(p, bound).coeffs == oracle_expand(p, bound), (mono, bound)


def test_module_expand_matches_the_pivot_solve():
    # every monomial up to the top degree n(n+1)/2 of LG(n), and with one
    # generator past n, which the restriction to n variables kills
    for n in range(1, 7):
        for d in range(n * (n + 1) // 2 + 1):
            for mono in enumerate_partitions(d, max_part=n):
                for p in (SymPoly({mono: 1}), SymPoly({mono + (n + 1,): 1})):
                    assert module_expand(p, n).coeffs == oracle_module_expand(p, n), (mono, n)


def test_qtilde_factors_through_the_pairs():
    # Q[J u mu u mu] = prod_k Q[m_k, m_k] * Q[J] with J strict, so the
    # module basis element of (J, mu) is the additive one of J u mu u mu
    keys = [key for d in range(17) for key in enumerate_partitions(d)]
    assert len(keys) == 915
    for key in keys:
        j = tuple(m for m in sorted(set(key), reverse=True) if key.count(m) % 2)
        mu = tuple(m for m in sorted(set(key), reverse=True) for _ in range(key.count(m) // 2))
        assert qtilde(key) == module_element((j, mu)), key


def test_pieri_coefficients_are_powers_of_two():
    # so c_r * Q[I] is Q-positive for every partition I
    for w in range(16):
        for key in enumerate_partitions(w):
            for r in range(1, 17 - w):
                for k, c in _pieri(r, key, None, False).items():
                    assert c > 0 and c & (c - 1) == 0, (r, key, k, c)


def test_c1_powers_are_qtilde_positive():
    for d in range(31):
        assert min(expand_in_qtilde(c1 ** d).coeffs.values()) > 0, d
