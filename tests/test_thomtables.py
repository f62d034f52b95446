import json
import os
import subprocess
import sys

import pytest

import qschubert

from qschubert.basisconv import QExpansion, expand_in_qtilde
from qschubert.schubert import SchubertClass
from qschubert.sympoly import SymPoly
from qschubert.thomtables import (
    CheckResult,
    TExpansion,
    ThomRecord,
    builtin_records,
    positivity_check,
    specialize,
    to_chern,
    verify_record,
)

c1, c2, c3 = SymPoly.gen(1), SymPoly.gen(2), SymPoly.gen(3)

NAMES = ["A_2", "A_3", "A_4", "D_4", "A_5", "D_5", "A_6", "D_6", "E_6",
         "A_7", "D_7", "E_7", "P_8"]
CODIMS = {"A_2": 1, "A_3": 2, "A_4": 3, "D_4": 3, "A_5": 4, "D_5": 4,
          "A_6": 5, "D_6": 5, "E_6": 5, "A_7": 6, "D_7": 6, "E_7": 6,
          "P_8": 6}


def by_name(name):
    return next(r for r in builtin_records() if r.name == name)


def test_builtin_records_inventory():
    recs = builtin_records()
    assert [r.name for r in recs] == NAMES
    assert {r.name: r.codim for r in recs} == CODIMS


def test_builtin_records_are_fresh_copies():
    a = builtin_records()[0]
    a.legendre.coeffs[((1,), 0)] = -99
    assert builtin_records()[0].legendre.coeffs[((1,), 0)] == 1


def test_spot_values():
    assert by_name("A_2").lagrange.coeffs == {(1,): 1}
    assert by_name("P_8").lagrange.coeffs == {(3, 2, 1): 1}
    assert by_name("E_7").legendre.coeffs[((2, 1), 3)] == 10
    assert by_name("A_7").lagrange.coeffs == {
        (3, 2, 1): 135, (4, 2): 1275, (5, 1): 2004, (6,): 2520}
    assert by_name("A_3").legendre.coeffs == {((2,), 0): 3, ((1,), 1): 1}


def test_all_records_verify():
    for r in builtin_records():
        report = verify_record(r)
        assert report.passed, report.json_obj()
        assert [c.name for c in report.checks] == [
            "nonnegative", "homogeneous", "lagrange_matches", "strict_keys"]


def test_injected_negative_coefficient_is_caught():
    r = by_name("A_3")
    r.legendre.coeffs[((2,), 0)] = -3
    r.lagrange.coeffs[(2,)] = -3
    report = verify_record(r)
    checks = {c.name: c for c in report.checks}
    assert not checks["nonnegative"].passed
    assert ((2,), 0) in checks["nonnegative"].violators
    assert checks["homogeneous"].passed
    assert not report.passed
    # a key in both parts is reported once, and its Legendre value decides
    assert checks["nonnegative"].violators == [((2,), 0)]
    r = by_name("A_3")
    r.legendre.coeffs[((2,), 0)] = -3
    checks = {c.name: c for c in verify_record(r).checks}
    assert checks["nonnegative"].violators == [((2,), 0)]
    r = by_name("A_3")
    r.lagrange.coeffs[(2,)] = -3
    checks = {c.name: c for c in verify_record(r).checks}
    assert checks["nonnegative"].passed
    assert not checks["lagrange_matches"].passed
    # a Lagrange key with no Legendre copy is reported as its t^0 term
    r = by_name("D_5")
    r.lagrange.coeffs[(4,)] = -2
    checks = {c.name: c for c in verify_record(r).checks}
    assert checks["nonnegative"].violators == [((4,), 0)]
    assert checks["homogeneous"].passed and checks["strict_keys"].passed


def test_injected_homogeneity_fault_is_caught():
    r = by_name("A_3")
    r.legendre.coeffs[((2,), 1)] = 7
    report = verify_record(r)
    checks = {c.name: c for c in report.checks}
    assert not checks["homogeneous"].passed
    assert ((2,), 1) in checks["homogeneous"].violators
    r = by_name("A_3")
    r.lagrange.coeffs[(3,)] = 1
    checks = {c.name: c for c in verify_record(r).checks}
    assert checks["homogeneous"].violators == [((3,), 0)]
    assert checks["nonnegative"].passed and checks["strict_keys"].passed


def test_injected_lagrange_mismatch_is_caught():
    r = by_name("A_3")
    r.lagrange.coeffs[(2,)] = 4
    report = verify_record(r)
    checks = {c.name: c for c in report.checks}
    assert not checks["lagrange_matches"].passed
    assert checks["nonnegative"].passed


def test_injected_non_strict_key_is_caught():
    r = by_name("A_3")
    r.legendre.coeffs[((1, 1), 0)] = 1
    report = verify_record(r)
    checks = {c.name: c for c in report.checks}
    assert not checks["strict_keys"].passed
    assert ((1, 1), 0) in checks["strict_keys"].violators
    r = by_name("A_3")
    r.lagrange.coeffs[(1, 1)] = 1
    checks = {c.name: c for c in verify_record(r).checks}
    assert checks["strict_keys"].violators == [((1, 1), 0)]
    assert checks["nonnegative"].passed and checks["homogeneous"].passed


def test_positivity_check():
    ok, violators = positivity_check(by_name("A_7").lagrange)
    assert ok and violators == []
    ok, violators = positivity_check(QExpansion({(1,): -1}))
    assert not ok and violators == [(1,)]
    ok, violators = positivity_check(QExpansion({}))
    assert ok and violators == []


def test_to_chern():
    assert to_chern(by_name("A_2").lagrange) == c1
    assert to_chern(by_name("A_3").lagrange) == 3 * c2
    assert to_chern(by_name("D_4").lagrange) == c2 * c1 - 2 * c3


def test_to_chern_round_trips():
    for r in builtin_records():
        assert expand_in_qtilde(to_chern(r.lagrange)) == r.lagrange


def test_specialize():
    a7 = by_name("A_7").lagrange
    s = specialize(a7, 3)
    assert s.coeffs == {(3, 2, 1): 135}
    for n in range(1, 5):
        assert specialize(by_name("A_2").lagrange, n).coeffs == {(1,): 1}
    assert specialize(by_name("P_8").lagrange, 2) == 0
    assert isinstance(s, SchubertClass)


def test_specialize_stays_nonnegative():
    for r in builtin_records():
        for n in range(1, 5):
            cls = specialize(r.lagrange, n)
            assert all(c >= 0 for c in cls.coeffs.values())


def test_texpansion_type():
    t = TExpansion({((2,), 0): 3, ((1,), 1): 1})
    assert str(t) == "3*Q[2] + t*Q[1]"
    a4 = by_name("A_4").legendre
    assert str(a4) == "3*Q[2,1] + 12*Q[3] + 10*t*Q[2] + 2*t^2*Q[1]"
    assert a4.t_powers() == (0, 1, 2)
    assert a4.t_part(1).coeffs == {(2,): 10}
    assert t.json_obj() == [
        {"partition": [2], "t_power": 0, "coefficient": 3},
        {"partition": [1], "t_power": 1, "coefficient": 1},
    ]
    assert TExpansion({((2,), 0): 0}) == TExpansion({})
    with pytest.raises(ValueError):
        TExpansion({((1,), -1): 1})
    with pytest.raises(ValueError):
        TExpansion({((1, 2), 0): 1})
    assert repr(t) == "TExpansion(3*Q[2] + t*Q[1])"
    assert repr(TExpansion({})) == "TExpansion(0)"
    assert t + t == 2 * t
    assert t + (-1) * t == TExpansion({})
    # the same terms in another combination type are unequal
    assert QExpansion({(1,): 1}) != TExpansion({((1,), 0): 1})
    assert TExpansion({((1,), 0): 1}) != QExpansion({(1,): 1})


def test_record_json_shape():
    r = by_name("A_3")
    obj = r.json_obj()
    assert obj["name"] == "A_3" and obj["codim"] == 2
    assert obj["legendre"] == [
        {"partition": [2], "t_power": 0, "coefficient": 3},
        {"partition": [1], "t_power": 1, "coefficient": 1},
    ]
    json.dumps(obj)
    report = verify_record(r)
    lines = report.lines()
    assert lines[0] == "A_3 (codim 2): PASS"
    json.dumps(report.json_obj())


def test_record_report_lines_on_failure():
    r = ThomRecord("X_0", 1, TExpansion({((1,), 0): -1}), QExpansion({(1,): -1}))
    report = verify_record(r)
    assert not report.passed
    lines = report.lines()
    assert lines[0] == "X_0 (codim 1): FAIL"
    assert any("nonnegative" in line for line in lines[1:])


def test_cli_import_loads_no_dataclasses():
    # the records are plain classes: dataclasses would pull in inspect,
    # ast, dis and tokenize on every start of the command
    src = os.path.dirname(os.path.dirname(qschubert.__file__))
    code = ("import sys; before = set(sys.modules); import qschubert.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60).stdout
    assert out == "[]\n"


def test_record_classes_behave_as_records():
    a2 = builtin_records()[0]
    assert repr(verify_record(a2)) == (
        "RecordReport(record_name='A_2', codim=1, checks=["
        "CheckResult(name='nonnegative', passed=True, violators=[]), "
        "CheckResult(name='homogeneous', passed=True, violators=[]), "
        "CheckResult(name='lagrange_matches', passed=True, violators=[]), "
        "CheckResult(name='strict_keys', passed=True, violators=[])])")
    assert repr(a2) == ("ThomRecord(name='A_2', codim=1, legendre=TExpansion(Q[1]), "
                        "lagrange=QExpansion(Q[1]))")
    assert verify_record(a2) == verify_record(builtin_records()[0])
    # each check owns its default violators list
    first, second = CheckResult("x", False), CheckResult(name="x", passed=False)
    first.violators.append(1)
    assert second.violators == [] and first != second
    assert first != ("x", False, [1])
    copy = ThomRecord(name=a2.name, codim=a2.codim, legendre=a2.legendre,
                      lagrange=a2.lagrange)
    assert copy == a2
    copy.codim = 2
    assert copy != a2
    with pytest.raises(TypeError):
        hash(copy)
