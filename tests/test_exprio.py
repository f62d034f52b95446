import random
import sys

import pytest

from qschubert.exprio import ExprError, TPoly, elaborate, in_qtilde_basis, parse
from qschubert.partitions import enumerate_partitions
from qschubert.qtilde import qtilde, qtilde_pair
from qschubert.sympoly import SymPoly
from qschubert.thomtables import TExpansion

c1, c2 = SymPoly.gen(1), SymPoly.gen(2)


def const(node):
    tp = elaborate(node)
    return tp.constant_part().terms.get((), 0) if set(tp.parts) <= {0} else None


def test_parse_basic_shapes():
    assert parse("3*Q[2] + t*Q[1]") == (
        "add", ("mul", ("int", 3), ("q", (2,))), ("mul", ("t",), ("q", (1,))))
    assert parse("c12") == ("gen", 12)
    assert parse("Q[]") == ("q", ())
    assert parse("Q[ 3 , 1 ]") == ("q", (3, 1))
    assert parse("Q[2,0]") == ("q", (2,))
    assert parse(" ( t ) ") == ("t",)


def test_precedence_and_associativity():
    assert const(parse("2 - 3 - 4")) == -5
    assert const(parse("2^3")) == 8
    assert const(parse("-2^2")) == -4
    assert const(parse("2*3^2")) == 18
    assert const(parse("(2+3)*4")) == 20
    assert elaborate(parse("-c1^2")).constant_part() == -(c1 ** 2)
    assert elaborate(parse("c1*-c2")).constant_part() == -(c1 * c2)
    assert elaborate(parse("2*c1^2")).constant_part() == 2 * c1 ** 2


def test_parse_errors_carry_position():
    with pytest.raises(ExprError) as e:
        parse("(")
    assert e.value.line == 1 and e.value.col == 2
    with pytest.raises(ExprError) as e:
        parse("c1 +\n Q[1,2]")
    assert e.value.line == 2 and e.value.col == 2
    if hasattr(sys, "get_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        if limit:
            big = "7" * (limit + 1)
            for text, col in ((f"c1 + {big}", 6), (f"c{big}", 1),
                              (f"c1 +\n Q[{big}]", 2), (f"c1^{big}", 4)):
                with pytest.raises(ExprError) as e:
                    parse(text)
                assert (e.value.line, e.value.col) == (text.count("\n") + 1, col)
                assert f"{limit + 1} digits" in str(e.value)
                assert f"limit of {limit} digits" in str(e.value)


# the exact message, line and column of each kind of parse error
PARSE_ERRORS = (
    ('', 'unexpected end of input', 1, 1),
    ('c', "generator needs a numeric index after 'c'", 1, 1),
    ('c0', 'generator index must be at least 1, got c0', 1, 1),
    ('2t', 'unexpected trailing input', 1, 2),
    ('2 t', 'unexpected trailing input', 1, 3),
    ('$', "unexpected character '$'", 1, 1),
    ('Q[2,]', "bad partition entry '' in Q[...]", 1, 1),
    ('Q[1,2]', 'parts not weakly decreasing in Q[1,2]', 1, 1),
    ('Q', "'Q' must be followed by '[parts]'", 1, 1),
    ('Q[1', "unterminated 'Q[' bracket", 1, 1),
    ('c1^-2', 'exponent must be a nonnegative integer', 1, 4),
    ('c1^t', "expected an integer exponent after '^'", 1, 4),
    ('1 + ', 'unexpected end of input', 1, 5),
    ('(1))', 'unexpected trailing input', 1, 4),
    ('*2', 'expected a value', 1, 1),
    ('Q[x]', "bad partition entry 'x' in Q[...]", 1, 1),
    ('\u00b2', "unexpected character '\u00b2'", 1, 1),
    ('c\u00b2', "generator needs a numeric index after 'c'", 1, 1),
    ('Q[\u00b2]', "bad partition entry '\u00b2' in Q[...]", 1, 1),
    ('1 +\n\n  $', "unexpected character '$'", 3, 3),
    ('Q[1\n]', "newline inside 'Q[...]'", 1, 1),
    ('Q[3,\n1]', "newline inside 'Q[...]'", 1, 1),
    ('(1))$', "unexpected character '$'", 1, 5),
)


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
def test_parse_errors_are_pinned(text, message, line, col):
    with pytest.raises(ExprError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.col) == (
        f"line {line}, col {col}: {message}", line, col)


def test_no_implicit_multiplication():
    with pytest.raises(ExprError):
        parse("2c1")
    with pytest.raises(ExprError):
        parse("t Q[1]")


def test_elaborate_examples():
    assert elaborate(parse("Q[2,1]")).constant_part() == c2 * c1 - 2 * SymPoly.gen(3)
    assert elaborate(parse("c1*0 + Q[1]")).constant_part() == c1
    assert elaborate(parse("c1^2 - 2*c2")).constant_part() == qtilde_pair(1, 1)
    tp = elaborate(parse("t*t*c1 + t^2*c2 + 5"))
    assert tp.parts == {0: SymPoly.const(5), 2: c1 + c2}
    assert elaborate(parse("t - t")) == TPoly({})


def test_elaborate_is_invariant_under_commutation():
    a = elaborate(parse("3*Q[2] + t*Q[1]"))
    b = elaborate(parse("t*Q[1] + 3*Q[2]"))
    c = elaborate(parse("Q[2]*3 + Q[1]*t"))
    assert a == b == c


def test_tpoly_arithmetic():
    t = TPoly.t()
    p = TPoly.of(c1)
    assert (t + p).parts == {0: c1, 1: SymPoly.one()}
    assert (t * t).parts == {2: SymPoly.one()}
    assert (t ** 3).parts == {3: SymPoly.one()}
    assert (p - p) == TPoly({})
    assert t ** 0 == TPoly.of(1)
    assert (0 * p).parts == {} and (p * 0).parts == {}
    assert repr(t + t + p) == "TPoly({1: SymPoly(2), 0: SymPoly(c1)})"
    assert str(TPoly()) == "TPoly({})"
    assert TPoly({0: 5, 2: 0}).parts == {0: SymPoly.const(5)}
    assert in_qtilde_basis(TPoly({1: 3})).coeffs == {((), 1): 3}
    with pytest.raises(ValueError):
        TPoly({-1: c1})
    with pytest.raises(ValueError):
        t ** -1
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p * c1


def test_in_qtilde_basis():
    texp = in_qtilde_basis(elaborate(parse("3*Q[2] + t*Q[1]")))
    assert texp.coeffs == {((2,), 0): 3, ((1,), 1): 1}
    texp = in_qtilde_basis(elaborate(parse("c1^3")))
    assert texp.coeffs == {((1, 1, 1), 0): 1, ((2, 1), 0): 2, ((3,), 0): 4}
    bounded = in_qtilde_basis(elaborate(parse("c1^2")), max_part=2)
    assert bounded.coeffs == {((1, 1), 0): 1, ((2,), 0): 2}


def rand_texpansion(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(0, 5)
        options = enumerate_partitions(d)
        i = rng.choice(options) if options else ()
        j = rng.randint(0, 3)
        c = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        coeffs[(i, j)] = c
    return TExpansion(coeffs)


def test_round_trip_parse_render():
    rng = random.Random(99)
    for _ in range(150):
        texp = rand_texpansion(rng)
        back = in_qtilde_basis(elaborate(parse(str(texp))))
        assert back == texp, str(texp)


def test_fuzz_parser_never_crashes():
    rng = random.Random(1234)
    alphabet = "ctQ[]()+-*^0123456789 ,\n\tzäé"
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse(text)
        except ExprError:
            pass


def test_deep_nesting_is_rejected_not_crashed():
    with pytest.raises(ExprError):
        parse("(" * 2000 + "1" + ")" * 2000)
    with pytest.raises(ExprError):
        parse("-" * 2000 + "1")
    # moderately deep input still parses
    assert const(parse("(" * 50 + "1" + ")" * 50)) == 1


def test_flat_chains_of_any_length_elaborate():
    # the parser nests a chain to the left; elaborate folds it in a loop
    assert elaborate(parse("+".join(["c1"] * 5000))).constant_part() == 5000 * c1
    assert const(parse("-".join(["2"] * 3000))) == -5996
    assert elaborate(parse("*".join(["t"] * 3000))).parts == {3000: SymPoly.one()}
    chain = elaborate(parse("1 + " + "*".join(["c1"] * 5 + ["t"])))
    assert chain == elaborate(parse("1 + c1^5*t"))
    assert in_qtilde_basis(chain).coeffs[((5,), 1)] == 16


def test_in_qtilde_basis_checks_the_bound_first():
    with pytest.raises(ValueError, match="max_part must be positive, got 0"):
        in_qtilde_basis(TPoly({}), max_part=0)
