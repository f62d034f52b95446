"""Parsing and elaboration of polynomial expressions.

The input language covers everything the command line needs: integer
literals, generators c1, c2, ... (greedy digit run, so "c12" is one
generator), the symbols Q[...] with a comma-separated partition inside,
and the variable t.  Operators are + - * ^ with the usual precedence
(power, then unary minus, then product, then sum), left associative;
multiplication is always explicit, powers are nonnegative integer
literals.  Errors carry a 1-based line and column.

Positions are offsets into the source, turned into a line and a column
only when _fail raises.  One compiled pattern tokenizes the whole source,
one match per token, before parsing starts, so a bad character is reported
ahead of a grammar error: "(1))$" names the '$' at col 5, not ')' at col 4.

Elaboration replaces Q[I] by qtilde(I) and collects by t-power into a
TPoly, a polynomial in t with SymPoly coefficients.  TPoly is a
sympoly.Combination keyed by the t-power, so its sum, product and
powers are those of every other combination; only its coefficients are
SymPoly values instead of ints.  in_qtilde_basis re-expands each
t-power in the Q basis.
"""

import re
import sys
from operator import add, mul, sub

from .basisconv import check_max_part, expand_in_qtilde
from .qtilde import qtilde
from .sympoly import Combination, SymPoly
from .thomtables import TExpansion

# each nesting level costs several interpreter stack frames; keep the
# cap far below the default recursion limit
_MAX_DEPTH = 100

# one alternative per token kind.  Every character but whitespace starts a
# match, so finditer skips exactly the whitespace between tokens; \d and \S
# agree with str.isdecimal and str.isspace.  A Q token runs to its ']', or
# to the end of the source when there is none.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<gen>c\d*)|(?P<q>Q(?:\[[^\]]*\]?)?)"
                    r"|(?P<op>[-+*^()t])|(?P<bad>\S)")


class ExprError(ValueError):
    """Parse or elaboration failure with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _fail(source: str, message: str, offset: int):
    """Raise ExprError at the line and column of source[offset]."""
    line_start = source.rfind("\n", 0, offset)  # -1 on the first line
    raise ExprError(message, source.count("\n", 0, offset) + 1, offset - line_start)


def _int(digits: str, source: str, offset: int) -> int:
    """int(digits), or ExprError at offset past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        _fail(source, f"integer literal of {len(digits)} digits exceeds the limit "
                      f"of {sys.get_int_max_str_digits()} digits", offset)


def _parts(text: str, source: str, offset: int) -> tuple:
    """The partition of a Q token's text "Q[...]", trailing zeros dropped."""
    if text == "Q":
        _fail(source, "'Q' must be followed by '[parts]'", offset)
    if text[-1] != "]":
        _fail(source, "unterminated 'Q[' bracket", offset)
    inner = text[2:-1]
    if "\n" in inner:
        _fail(source, "newline inside 'Q[...]'", offset)
    parts = []
    if inner.strip():
        for piece in inner.split(","):
            piece = piece.strip()
            if not piece.isdecimal():
                _fail(source, f"bad partition entry {piece!r} in Q[...]", offset)
            parts.append(_int(piece, source, offset))
    if any(a < b for a, b in zip(parts, parts[1:])):
        _fail(source, f"parts not weakly decreasing in Q[{inner}]", offset)
    while parts and parts[-1] == 0:
        parts.pop()
    return tuple(parts)


def _tokenize(source: str) -> list:
    """(kind, value, offset) per token, the last of kind "end"; an operator is its own kind."""
    tokens = []
    for m in _TOKEN.finditer(source):
        kind, value, offset = m.lastgroup, m[0], m.start()
        if kind == "int":
            value = _int(value, source, offset)
        elif kind == "gen":
            if value == "c":
                _fail(source, "generator needs a numeric index after 'c'", offset)
            value = _int(value[1:], source, offset)
            if value < 1:
                _fail(source, f"generator index must be at least 1, got c{value}", offset)
        elif kind == "q":
            value = _parts(value, source, offset)
        elif kind == "bad":
            _fail(source, f"unexpected character {value!r}", offset)
        tokens.append((value if kind == "op" else kind, value, offset))
    tokens.append(("end", None, len(source)))
    return tokens


class _Parser:
    """Recursive descent over the token stream; builds tuple ASTs.

    Nodes: ("int", v), ("gen", k), ("t",), ("q", parts),
    ("add"|"sub"|"mul", a, b), ("pow", a, k), ("neg", a).
    """

    def __init__(self, source):
        self.source, self.depth = source, 0
        self.tokens = _tokenize(source)[::-1]  # the next token is the last

    def peek(self):
        return self.tokens[-1][0]

    def take(self):
        return self.tokens.pop()

    def fail(self, message, tok=None):
        _fail(self.source, message, (tok or self.tokens[-1])[2])

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")

    def sum(self):
        node = self.prod()
        while self.peek() in ("+", "-"):
            node = ("add" if self.take()[0] == "+" else "sub", node, self.prod())
        return node

    def prod(self):
        node = self.unary()
        while self.peek() == "*":
            self.take()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek() == "-":
            self.enter()
            self.take()
            node = ("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                self.fail("exponent must be a nonnegative integer")
            if self.peek() != "int":
                self.fail("expected an integer exponent after '^'")
            node = ("pow", node, self.take()[1])
        return node

    def atom(self):
        tok = self.take()
        kind = tok[0]
        if kind in ("int", "gen", "q"):
            return tok[:2]
        if kind == "t":
            return ("t",)
        if kind == "(":
            self.enter()
            node = self.sum()
            closing = self.take()
            if closing[0] != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
            return node
        self.fail("expected a value" if kind != "end" else "unexpected end of input", tok)


def parse(source: str):
    """Parse source text into an AST; raises ExprError with position."""
    parser = _Parser(source)
    node = parser.sum()
    if parser.peek() != "end":
        parser.fail("unexpected trailing input")
    return node


class TPoly(Combination):
    """Polynomial in t whose coefficients are SymPoly values, keyed by the t-power."""

    __slots__ = ()

    parts = Combination.coeffs  # the same dict under its own name
    _merge = staticmethod(add)  # t^i * t^j = t^(i+j)

    def __init__(self, parts=None):
        # an int coefficient stands for the constant SymPoly
        super().__init__({j: SymPoly.const(p) if isinstance(p, int) else p
                          for j, p in (parts or {}).items()})

    @staticmethod
    def _key(j):
        if j < 0:
            raise ValueError(f"t-power must be nonnegative, got {j}")
        return j

    @classmethod
    def of(cls, p) -> "TPoly":
        return cls({0: p})

    @classmethod
    def t(cls) -> "TPoly":
        return cls._like({1: SymPoly.one()})

    def _unit(self):
        return TPoly.of(1)

    def constant_part(self) -> SymPoly:
        """The t^0 coefficient."""
        return self.coeffs.get(0, SymPoly.zero())

    def __repr__(self):
        return f"TPoly({self.coeffs})"

    __str__ = __repr__


_FOLD = {"add": add, "sub": sub, "mul": mul}


def elaborate(node) -> TPoly:
    """Evaluate an AST into a TPoly, expanding Q[I] via qtilde."""
    # the parser nests a chain of sums and products to the left: walk that
    # spine in a loop; the right operands nest at most _MAX_DEPTH deep
    spine = []
    while node[0] in _FOLD:
        spine.append(node)
        node = node[1]
    kind = node[0]
    if kind == "int":
        value = TPoly.of(node[1])
    elif kind == "gen":
        value = TPoly.of(SymPoly.gen(node[1]))
    elif kind == "t":
        value = TPoly.t()
    elif kind == "q":
        value = TPoly.of(qtilde(node[1]))
    elif kind == "neg":
        value = -elaborate(node[1])
    elif kind == "pow":
        value = elaborate(node[1]) ** node[2]
    else:
        raise ValueError(f"unknown node kind {kind!r}")
    for kind, _, rhs in reversed(spine):
        value = _FOLD[kind](value, elaborate(rhs))
    return value


def in_qtilde_basis(tp: TPoly, max_part=None) -> TExpansion:
    """Re-expand each t-power of a TPoly in the Q basis."""
    check_max_part(max_part)
    return TExpansion({(i, j): c for j, p in tp.coeffs.items()
                       for i, c in expand_in_qtilde(p, max_part).coeffs.items()})
