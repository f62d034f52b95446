"""Acceptance suite: the ten headline checks, one test per criterion.

Every check is an exact integer identity (zero tolerance).  Each test
prints a one-line summary; `pytest -v` gives the per-criterion pass/fail
listing.
"""

import json
import random

from helpers import (
    SkewMatrix,
    additive_transition_matrix,
    bareiss_det,
    elem_x_squares,
    fraction_det,
    module_transition_matrix,
    oracle_qtilde,
    pfaffian,
    rand_skew,
    rand_sympoly,
    xp_of,
)
from qschubert.basisconv import expand_in_qtilde, module_expand
from qschubert.cli import main
from qschubert.exprio import ExprError, elaborate, in_qtilde_basis, parse
from qschubert.partitions import complement, enumerate_partitions
from qschubert.qtilde import qtilde, qtilde_pair, schur_q
from qschubert.schubert import LGRing, betti, integrate, multiply, omega, pair, reduce
from qschubert.sympoly import SymPoly, evaluate
from qschubert.thomtables import TExpansion, builtin_records, verify_record


def announce(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def all_partitions_up_to(max_weight, max_part=None):
    for d in range(max_weight + 1):
        yield from enumerate_partitions(d, max_part=max_part)


def test_c01_square_identity():
    checked = 0
    for n in range(1, 7):
        for i in range(1, n + 1):
            assert xp_of(evaluate(qtilde_pair(i, i), n)) == elem_x_squares(i, n)
            checked += 1
    assert checked == 21
    announce(1, f"Q[i,i] equals e_i of squared variables, {checked} cases, i <= n <= 6")


def test_c02_additive_basis():
    dets = 0
    for n in range(1, 6):
        for d in range(1, 11):
            basis, rows, matrix = additive_transition_matrix(d, n)
            assert len(basis) == len(rows) == len(matrix)
            assert bareiss_det([list(r) for r in matrix]) in (1, -1)
            dets += 1
    rng = random.Random(2024)
    for _ in range(100):
        p = rand_sympoly(rng, 10, 5, 4)
        assert expand_in_qtilde(p).to_sympoly() == p
    announce(2, f"{dets} transition matrices unimodular; 100 exact round trips")


def test_c03_free_module_basis():
    rng = random.Random(303)
    for n in range(1, 5):
        for d in range(1, 9):
            basis, rows, matrix = module_transition_matrix(d, n)
            assert len(basis) == len(rows) == len(matrix)
            assert bareiss_det([list(r) for r in matrix]) in (1, -1)
    for _ in range(100):
        n = rng.randint(1, 4)
        p = rand_sympoly(rng, 8, n, 4)
        back = module_expand(p, n).to_sympoly().truncate_parts(n)
        assert back == p.truncate_parts(n)
    announce(3, "module transition matrices unimodular; 100 exact round trips")


def test_c04_duality_pairing():
    checked = 0
    for n in range(1, 5):
        ring = LGRing(n)
        dim = ring.dim
        for d in range(dim + 1):
            for i in enumerate_partitions(d, max_part=n, strict=True):
                for j in enumerate_partitions(dim - d, max_part=n, strict=True):
                    expect = 1 if j == complement(i, n) else 0
                    assert pair(i, j, ring) == expect
                    checked += 1
    announce(4, f"pairing is 1 exactly on complements, {checked} pairs, n <= 4")


def test_c05_ring_sanity():
    for n in range(1, 9):
        seq = betti(LGRing(n))
        assert sum(seq) == 2 ** n
        assert seq == seq[::-1]
    for n in range(1, 6):
        ring = LGRing(n)
        for i in range(1, n + 1):
            assert reduce(qtilde_pair(i, i), ring) == 0
    expected_degree = {1: 1, 2: 2, 3: 16}
    for n, value in expected_degree.items():
        ring = LGRing(n)
        # path one: repeated Schubert multiplication
        acc = omega((), ring)
        for _ in range(ring.dim):
            acc = multiply(acc, omega((1,), ring))
        assert integrate(acc) == value
        # path two: split the power in half and contract with the
        # duality pairing, no class multiplication involved
        a = ring.dim // 2
        left = reduce(SymPoly.gen(1) ** a, ring)
        right = reduce(SymPoly.gen(1) ** (ring.dim - a), ring)
        total = sum(
            c * right.coeffs.get(complement(i, n), 0)
            for i, c in left.coeffs.items()
        )
        assert total == value
    announce(5, "Betti sums 2^n and palindromic (n <= 8); relations vanish; "
                "degree of LG(n) = 1, 2, 16 by two routes")


def test_c06_table_verification(capsys):
    assert main(["verify-tables"]) == 0
    out = capsys.readouterr().out
    assert "13/13 records pass" in out
    records = builtin_records()
    assert len(records) == 13
    a7 = next(r for r in records if r.name == "A_7")
    assert a7.lagrange.coeffs == {(3, 2, 1): 135, (4, 2): 1275,
                                  (5, 1): 2004, (6,): 2520}
    for r in records:
        assert verify_record(r).passed
        assert all(sum(i) + j == r.codim for (i, j) in r.legendre.coeffs)
        assert all(c >= 0 for c in r.legendre.coeffs.values())
        assert r.legendre.t_part(0) == r.lagrange
    announce(6, "all 13 built-in records verify; A_7 spot values exact")


def test_c07_schur_q_consistency():
    for i in range(1, 6):
        assert schur_q((i, i)) == 0
    assert schur_q((1,)) == 2 * SymPoly.gen(1)
    assert xp_of(evaluate(schur_q((2, 1)), 2)) == {(2, 1): 4, (1, 2): 4}
    announce(7, "Schur Q vanishing on (i,i) for i <= 5; low cases exact")


def test_c08_pfaffian_correctness():
    rng = random.Random(808)
    for _ in range(200):
        h = 2 * rng.randint(1, 4)
        raw = rand_skew(rng, h)
        m = SkewMatrix(h, {(p, q): raw[p][q]
                           for p in range(h) for q in range(p + 1, h)})
        assert pfaffian(m) ** 2 == fraction_det(raw)
    count = 0
    for parts in all_partitions_up_to(8):
        n = max(1, sum(parts))
        assert xp_of(evaluate(qtilde(parts), n)) == oracle_qtilde(parts, n)
        count += 1
    announce(8, f"Pf^2 = det on 200 random matrices; qtilde matches the "
                f"matching-sum oracle on all {count} partitions of weight <= 8")


def test_c09_stability():
    for parts in all_partitions_up_to(8):
        for n in range(1, 5):
            bigger = evaluate(qtilde(parts), n + 1)
            assert bigger.drop_last_var() == evaluate(qtilde(parts), n)
    announce(9, "dropping the last variable is consistent, |I| <= 8, n <= 4")


def test_c10_parser_robustness():
    rng = random.Random(1010)
    alphabets = (
        "ctQ[]()+-*^0123456789 ,",
        "ctQ[]()+-*^0123456789 ,\n\t.;/\\='\"zXY",
        "".join(chr(k) for k in range(32, 127)),
    )
    for trial in range(100_000):
        alphabet = alphabets[trial % len(alphabets)]
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        try:
            parse(text)
        except ExprError:
            pass
    rng = random.Random(555)
    for _ in range(1000):
        coeffs = {}
        for _ in range(rng.randint(1, 5)):
            d = rng.randint(0, 5)
            i = rng.choice(enumerate_partitions(d))
            coeffs[(i, rng.randint(0, 3))] = rng.choice([-3, -2, -1, 1, 2, 3])
        texp = TExpansion(coeffs)
        assert in_qtilde_basis(elaborate(parse(str(texp)))) == texp
    announce(10, "100000 fuzz inputs crash-free; 1000 render round trips exact")
