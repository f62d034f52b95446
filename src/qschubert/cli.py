"""Command-line front end.

Subcommands:

  qtilde <partition>            print Q[I] as a polynomial in c1, c2, ...
  schur-q <partition>           print the Schur Q-function of I
  expand <expr> [--max-part N]  expand an expression in the Q basis per t-power
  mul <I> <J> --n N             Schubert product in LG(n)
  pair <I> <J> --n N            duality pairing value in LG(n)
  betti --n N                   Betti numbers of LG(n)
  verify-tables [--codim K]     run the built-in table checks

Every subcommand accepts --json.  Exit status: 0 on success (and when
all verifications pass), 1 when a verification fails, 2 on usage or
parse errors.
"""

import argparse
import json
import sys

from .basisconv import check_max_part, qmono
from .exprio import elaborate, in_qtilde_basis, parse
from .partitions import echo, parse_partition
from .qtilde import qtilde, schur_q
from .schubert import LGRing, betti, multiply, omega, pair
from .thomtables import builtin_records, positivity_check, verify_record


def _emit(*lines):
    """Print each line, JSON-encoding dicts, with exact integers of any size.

    The int->str digit limit (Python 3.11+, some 3.10 patch releases) is
    lifted while rendering and restored afterwards.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit:
        old = sys.get_int_max_str_digits()
        set_limit(0)
    try:
        for line in lines:
            print(json.dumps(line) if isinstance(line, dict) else line)
    finally:
        if set_limit:
            set_limit(old)


def _poly_json(p) -> list:
    return [{"monomial": list(k), "coefficient": p.coeffs[k]}
            for k in sorted(p.coeffs, key=p._order)]


def _poly_command(build):
    """Handler printing build(I), a polynomial in the generators ci."""
    def handler(args) -> int:
        parts = parse_partition(args.partition)
        p = build(parts)
        if args.json:
            _emit({"partition": list(parts), "terms": _poly_json(p)})
        else:
            _emit(p)
        return 0
    return handler


def _cmd_expand(args) -> int:
    check_max_part(args.max_part)
    texp = in_qtilde_basis(elaborate(parse(args.expr)), args.max_part)
    nonnegative, negatives = positivity_check(texp)
    if args.json:
        _emit({
            "expression": args.expr,
            "max_part": args.max_part,
            "terms": texp.json_obj(),
            "positivity": {
                "nonnegative": nonnegative,
                "violators": [{"partition": list(i), "t_power": j}
                              for i, j in negatives],
            },
        })
    elif nonnegative:
        _emit(texp, "positivity: nonnegative")
    else:
        where = ", ".join(f"t^{j}*{qmono(i)}" if j else qmono(i)
                          for i, j in negatives)
        _emit(texp, f"positivity: negative coefficients at {where}")
    return 0


def _cmd_mul(args) -> int:
    ring = LGRing(args.n)
    product = multiply(omega(parse_partition(args.i), ring),
                       omega(parse_partition(args.j), ring))
    if args.json:
        _emit(product.json_obj())
    else:
        _emit(product)
    return 0


def _cmd_pair(args) -> int:
    ring = LGRing(args.n)
    i, j = parse_partition(args.i), parse_partition(args.j)
    value = pair(i, j, ring)
    if args.json:
        _emit({"n": args.n, "i": list(i), "j": list(j), "value": value})
    else:
        _emit(value)
    return 0


def _cmd_betti(args) -> int:
    ranks = betti(LGRing(args.n))
    if args.json:
        _emit({"n": args.n, "betti": list(ranks)})
    else:
        _emit(",".join(map(str, ranks)))
    return 0


def _cmd_verify_tables(args) -> int:
    records = builtin_records()
    if args.codim is not None:
        records = [r for r in records if r.codim == args.codim]
    reports = [verify_record(r) for r in records]
    passed = sum(1 for r in reports if r.passed)
    if args.json:
        _emit({
            "records": [r.json_obj() for r in reports],
            "passed": passed,
            "total": len(reports),
            "all_pass": passed == len(reports),
        })
    else:
        _emit(*(line for report in reports for line in report.lines()),
              f"{passed}/{len(reports)} records pass")
    return 0 if passed == len(reports) else 1


def _int_arg(text: str) -> int:
    """An integer option; argparse's message, naming a long text by its length."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qschubert",
        description="Exact Q-function and Lagrangian Schubert calculus toolkit.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("qtilde", _poly_command(qtilde), "print Q[I] in the generators ci")
    p.add_argument("partition", help="comma-separated parts, e.g. '2,1' ('[]' for empty)")

    p = add("schur-q", _poly_command(schur_q), "print the Schur Q-function of I")
    p.add_argument("partition", help="comma-separated parts")

    p = add("expand", _cmd_expand, "expand an expression in the Q basis")
    p.add_argument("expr", help="expression over ck, Q[...], t, integers")
    p.add_argument("--max-part", type=_int_arg, default=None, metavar="N",
                   help="bound the parts of the expansion partitions")

    p = add("mul", _cmd_mul, "Schubert product in LG(n)")
    p.add_argument("i", help="first strict partition")
    p.add_argument("j", help="second strict partition")
    p.add_argument("--n", type=_int_arg, required=True, help="rank of LG(n)")

    p = add("pair", _cmd_pair, "duality pairing in LG(n)")
    p.add_argument("i", help="first strict partition")
    p.add_argument("j", help="second strict partition")
    p.add_argument("--n", type=_int_arg, required=True, help="rank of LG(n)")

    p = add("betti", _cmd_betti, "Betti numbers of LG(n)")
    p.add_argument("--n", type=_int_arg, required=True, help="rank of LG(n)")

    p = add("verify-tables", _cmd_verify_tables, "check the built-in tables")
    p.add_argument("--codim", type=_int_arg, default=None,
                   help="restrict to records of this codimension")

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
