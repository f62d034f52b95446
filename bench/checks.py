"""Correctness gate and statistics for the benchmark.

An op passes only if its exit status is 0, the SHA-256 of its canonical
output matches the digest stored in golden.json (computed once at the
seed commit by golden.py), and the exact invariants of its kind hold:

  mul      every term has weight |I| + |J|; complementary halves give
           exactly the top class
  pair     of total degree dim LG(n): 1 for complementary I, J, else 0
  qtilde,  every monomial has degree |I|
  schur-q
  evaluate homogeneous of degree |I| and symmetric in x1..xn
  betti    sums to 2^n, palindromic, dim LG(n) + 1 entries
  expand   (cli-cold, needs the library) re-expanding the output gives
           the input back, and the positivity report matches the signs
  verify-tables  every selected record passes

The invariants do not depend on the seed.
"""

import hashlib
import json
import re

from workloads import complement, dim, option, parse


def op_key(op):
    return json.dumps(op, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def tail(samples):
    """Highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 11
    samples that is impossible; the maximum is returned with the count
    of samples beyond it (0).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    k = n - 11  # nearest-rank index: xs[k] is the 100*(k+1)/n percentile
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def _is_json(op, lib):
    if lib:
        return op[0] in ("mul", "pair", "betti", "evaluate")
    return "--json" in op


_MONO = re.compile(r"c(\d+)(?:\^(\d+))?")


def _text_degrees(poly_text):
    """Degrees of the monomials in a rendered SymPoly such as 'c2*c1 - 2*c3'."""
    if poly_text == "0":
        return []
    degrees = []
    for term in re.split(r" [+-] ", poly_text.lstrip("-")):
        degrees.append(sum(int(k) * int(e or 1) for k, e in _MONO.findall(term)))
    return degrees


def _schubert_terms(text, as_json):
    if as_json:
        return [(tuple(t["partition"]), t["coefficient"]) for t in json.loads(text)["terms"]]
    if text.strip() == "0":
        return []
    out = []
    for term in re.split(r" (?=[+-] )", text.strip()):
        coeff, _, key = term.replace(" ", "").rpartition("S[")
        coeff = coeff.rstrip("*")
        sign = -1 if coeff.startswith("-") else 1
        coeff = coeff.lstrip("+-")
        out.append((parse(key.rstrip("]")), sign * int(coeff or 1)))
    return out


def invariant_failure(op, text, lib):
    """Reason an output breaks an exact invariant of its op, or None."""
    kind = op[0]
    as_json = _is_json(op, lib)
    if kind in ("mul", "pair"):
        i, j, n = parse(op[1]), parse(op[2]), int(option(op, "--n"))
        d = sum(i) + sum(j)
        complementary = j == complement(i, n)
        if kind == "pair":
            value = json.loads(text)["value"] if as_json else int(text)
            if d == dim(n) and value != int(complementary):
                return f"pairing is {value}, duality says {int(complementary)}"
            return None
        terms = _schubert_terms(text, as_json)
        if any(sum(k) != d for k, _ in terms):
            return f"product is not homogeneous of degree {d}"
        if d == dim(n) and complementary and terms != [(complement((), n), 1)]:
            return "complementary halves do not give the top class"
        return None
    if kind in ("qtilde", "schur-q"):
        w = sum(parse(op[1]))
        if as_json:
            degrees = [sum(t["monomial"]) for t in json.loads(text)["terms"]]
        else:
            degrees = _text_degrees(text.strip())
        if any(deg != w for deg in degrees):
            return f"not homogeneous of degree {w}"
        return None
    if kind == "evaluate":
        w = sum(parse(op[1]))
        terms = {tuple(e): c for e, c in json.loads(text)}
        for e, c in terms.items():
            if sum(e) != w:
                return f"not homogeneous of degree {w}"
            if terms.get(tuple(sorted(e, reverse=True))) != c:
                return "not symmetric"
        return None
    if kind == "betti":
        n = int(option(op, "--n"))
        ranks = json.loads(text)["betti"] if as_json else [int(v) for v in text.split(",")]
        if sum(ranks) != 2 ** n or ranks != ranks[::-1] or len(ranks) != dim(n) + 1:
            return "Betti numbers do not sum to 2^n palindromically"
        return None
    if kind == "verify-tables":
        if as_json:
            report = json.loads(text)
            ok = report["all_pass"] and report["passed"] == report["total"] > 0
        else:
            last = text.strip().splitlines()[-1].split()[0]
            passed, total = last.split("/")
            ok = passed == total and int(total) > 0
        return None if ok else "a table record fails"
    return None


def expand_failure(q, op, text, lib):
    """Round trip of an expansion through the library (q is qschubert):
    the output, read back as Q~ terms, must give the input polynomial."""
    want = q.elaborate(q.parse(op[1]))
    if _is_json(op, lib):
        report = json.loads(text)
        got = q.TPoly()
        for t in report["terms"]:
            part = q.QExpansion({tuple(t["partition"]): t["coefficient"]}).to_sympoly()
            got = got + q.TPoly({t["t_power"]: part})
        negative = any(t["coefficient"] < 0 for t in report["terms"])
        stated = not report["positivity"]["nonnegative"]
    else:
        lines = text.strip().splitlines()
        got = q.elaborate(q.parse(lines[0]))
        negative = lines[0].startswith("-") or " - " in lines[0]
        # the CLI adds a positivity line; the library's str() has none
        stated = lines[1] != "positivity: nonnegative" if len(lines) > 1 else negative
    if negative != stated:
        return "positivity report contradicts the coefficients"
    return None if got == want else "expansion does not round-trip"


def check(golden, op, text, lib, exit_code=0):
    """Reason an op failed the digest or invariant gate, or None."""
    if exit_code != 0:
        return f"exit status {exit_code}"
    if text is None:
        return "no output"
    expected = golden.get(op_key(op))
    if expected is None:
        return "no reference digest for this op"
    if digest(text) != expected:
        return "output differs from the reference digest"
    try:
        return invariant_failure(op, text, lib)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"output does not parse: {exc!r}"
