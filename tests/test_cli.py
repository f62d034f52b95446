import json
import sys

from qschubert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_qtilde_command(capsys):
    code, out, err = run(capsys, "qtilde", "2,1")
    assert (code, out, err) == (0, "c2*c1 - 2*c3\n", "")
    code, out, _ = run(capsys, "qtilde", "[]")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "qtilde", "2,1", "--json")
    assert code == 0
    assert json.loads(out) == {
        "partition": [2, 1],
        "terms": [{"monomial": [2, 1], "coefficient": 1},
                  {"monomial": [3], "coefficient": -2}],
    }


def test_schur_q_command(capsys):
    code, out, _ = run(capsys, "schur-q", "1")
    assert (code, out) == (0, "2*c1\n")
    code, out, _ = run(capsys, "schur-q", "1,1")
    assert (code, out) == (0, "0\n")


def test_expand_command(capsys):
    code, out, _ = run(capsys, "expand", "c1^3")
    assert code == 0
    assert out == "Q[1,1,1] + 2*Q[2,1] + 4*Q[3]\npositivity: nonnegative\n"
    code, out, _ = run(capsys, "expand", "Q[1] - Q[2] + t*Q[1]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-Q[2] + Q[1] + t*Q[1]"
    assert lines[1] == "positivity: negative coefficients at Q[2]"
    code, out, _ = run(capsys, "expand", "c1^2", "--max-part", "2", "--json")
    obj = json.loads(out)
    assert obj["max_part"] == 2
    assert obj["positivity"]["nonnegative"] is True
    assert obj["terms"] == [
        {"partition": [1, 1], "t_power": 0, "coefficient": 1},
        {"partition": [2], "t_power": 0, "coefficient": 2},
    ]


def test_expand_errors(capsys):
    code, _, err = run(capsys, "expand", "((")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "expand", "c3", "--max-part", "2")
    assert code == 2 and "not representable" in err


def test_expand_checks_max_part_before_any_work(capsys):
    # a bound below 1 is rejected before parsing, whatever the expression
    for expr in ("0", "1", "(c1+c2)^99999", "(("):
        code, out, err = run(capsys, "expand", expr, "--max-part", "0")
        assert (code, out, err) == (2, "", "error: max_part must be positive, got 0\n"), expr


def test_expand_renders_integers_of_any_size(capsys):
    # 2^99999 has 30103 digits, past the interpreter's default int->str limit
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
    limit = get_limit()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
    set_limit(0)
    try:
        digits = str(2 ** 99999)
    finally:
        set_limit(limit)
    code, out, err = run(capsys, "expand", "2^99999")
    assert (code, out, err) == (0, f"{digits}*Q[]\npositivity: nonnegative\n", "")
    code, out, err = run(capsys, "expand", "2^99999", "--json")
    assert (code, err) == (0, "")
    assert f'"coefficient": {digits}}}' in out
    assert get_limit() == limit


def test_expand_of_one_generator_is_one_term(capsys):
    for index in ("99999999999999999999", "40"):
        code, out, err = run(capsys, "expand", f"c{index}")
        assert (code, out, err) == (0, f"Q[{index}]\npositivity: nonnegative\n", "")


def test_mul_command(capsys):
    code, out, _ = run(capsys, "mul", "1", "1", "--n", "2")
    assert (code, out) == (0, "2*S[2]\n")
    code, out, _ = run(capsys, "mul", "1", "2", "--n", "2", "--json")
    assert json.loads(out) == {
        "n": 2, "terms": [{"partition": [2, 1], "coefficient": 1}]}
    code, _, _ = run(capsys, "mul", "1", "1")
    assert code == 2


def test_pair_command(capsys):
    code, out, _ = run(capsys, "pair", "1", "2", "--n", "2")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "pair", "2", "2", "--n", "2")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "pair", "2,1", "[]", "--n", "2", "--json")
    assert json.loads(out) == {"n": 2, "i": [2, 1], "j": [], "value": 1}
    code, _, err = run(capsys, "pair", "1,1", "2", "--n", "2")
    assert code == 2 and "strict" in err


def test_betti_command(capsys):
    code, out, _ = run(capsys, "betti", "--n", "2")
    assert (code, out) == (0, "1,1,1,1\n")
    code, out, _ = run(capsys, "betti", "--n", "3", "--json")
    assert json.loads(out) == {"n": 3, "betti": [1, 1, 1, 2, 1, 1, 1]}


def test_verify_tables_command(capsys):
    code, out, _ = run(capsys, "verify-tables")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "A_2 (codim 1): PASS"
    assert lines[-1] == "13/13 records pass"
    code, out, _ = run(capsys, "verify-tables", "--codim", "6")
    assert code == 0
    assert out.splitlines()[-1] == "4/4 records pass"
    code, out, _ = run(capsys, "verify-tables", "--codim", "99")
    assert code == 0
    assert out.splitlines()[-1] == "0/0 records pass"
    code, out, _ = run(capsys, "verify-tables", "--json")
    obj = json.loads(out)
    assert obj["all_pass"] is True and obj["total"] == 13 and obj["passed"] == 13
    assert obj["records"][0]["name"] == "A_2"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2
    code, _, _ = run(capsys)
    assert code == 2
    code, _, err = run(capsys, "qtilde", "1,2")
    assert code == 2 and "error" in err


def test_json_everywhere(capsys):
    invocations = [
        ["qtilde", "2,1", "--json"],
        ["schur-q", "2", "--json"],
        ["expand", "Q[2] + t*Q[1]", "--json"],
        ["mul", "1", "1", "--n", "2", "--json"],
        ["pair", "1", "2", "--n", "2", "--json"],
        ["betti", "--n", "2", "--json"],
        ["verify-tables", "--json"],
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


def test_output_is_deterministic(capsys):
    first = run(capsys, "expand", "c1^3 + 2*t*Q[2,1] - c2*c1")
    second = run(capsys, "expand", "c1^3 + 2*t*Q[2,1] - c2*c1")
    assert first == second


def test_long_arguments_are_named_by_length(capsys):
    sevens = "7" * 5000
    code, out, err = run(capsys, "mul", sevens, "1", "--n", "3")
    assert (code, out, err) == (
        2, "", "error: cannot parse partition from an argument of 5000 characters\n")
    for argv in (["mul", "1", "1", "--n", sevens],
                 ["expand", "c1", "--max-part", sevens],
                 ["verify-tables", "--codim", sevens]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.endswith(": invalid int value: an argument of 5000 characters\n"), argv
        assert len(err) < 200, argv


def test_range_checks_name_long_values_by_length(capsys):
    # these arguments parse, so the range checks report them; a value
    # over 100 characters is named by its length, not echoed
    sevens = "7" * 4000
    cases = {
        ("mul", sevens, "1", "--n", "3"):
            "error: part <4000 characters> exceeds n = 3 in <4003 characters>\n",
        ("pair", "1", "1", "--n", "-" + sevens):
            "error: n must be positive, got <4001 characters>\n",
        ("betti", "--n", "-" + sevens): "error: n must be positive, got <4001 characters>\n",
        ("mul", ",".join(["1"] * 3000), "1", "--n", "3"):
            "error: Schubert index must be strict, got <9000 characters>\n",
        ("qtilde", "1," + sevens):
            "error: partition parts must be weakly decreasing, got <4005 characters>\n",
        ("expand", "c1", "--max-part", "-" + sevens):
            "error: max_part must be positive, got <4001 characters>\n",
        # the short forms are unchanged
        ("mul", "4", "1", "--n", "3"): "error: part 4 exceeds n = 3 in (4,)\n",
        ("mul", "1", "1", "--n", "0"): "error: n must be positive, got 0\n",
    }
    for argv, message in cases.items():
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", message), argv[:2]
        assert len(err) < 200


def test_short_argument_errors_quote_the_argument(capsys):
    code, _, err = run(capsys, "qtilde", "x,1")
    assert (code, err) == (2, "error: cannot parse partition from 'x,1'\n")
    code, _, err = run(capsys, "pair", "1", "y" * 100, "--n", "3")
    assert (code, err) == (2, f"error: cannot parse partition from '{'y' * 100}'\n")
    code, _, err = run(capsys, "mul", "1", "1", "--n", "x")
    assert code == 2
    assert err.splitlines()[-1] == "qschubert mul: error: argument --n: invalid int value: 'x'"
    code, _, err = run(capsys, "verify-tables", "--codim", "1.5")
    assert code == 2
    assert err.splitlines()[-1] == (
        "qschubert verify-tables: error: argument --codim: invalid int value: '1.5'")
