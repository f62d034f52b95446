"""Parsing and elaboration of polynomial expressions.

The input language covers everything the command line needs: integer
literals, generators c1, c2, ... (greedy digit run, so "c12" is one
generator), the symbols Q[...] with a comma-separated partition inside,
and the variable t.  Operators are + - * ^ with the usual precedence
(power, then unary minus, then product, then sum), left associative;
multiplication is always explicit, powers are nonnegative integer
literals.  Errors carry a 1-based line and column.

Elaboration replaces Q[I] by qtilde(I) and collects by t-power into a
TPoly, a polynomial in t with SymPoly coefficients.  TPoly is a
sympoly.Combination keyed by the t-power, so its sum, product and
powers are those of every other combination; only its coefficients are
SymPoly values instead of ints.  in_qtilde_basis re-expands each
t-power in the Q basis.
"""

import sys
from operator import add

from .basisconv import expand_in_qtilde
from .qtilde import qtilde
from .sympoly import Combination, SymPoly
from .thomtables import TExpansion

# each nesting level costs several interpreter stack frames; keep the
# cap far below the default recursion limit
_MAX_DEPTH = 100


class ExprError(ValueError):
    """Parse or elaboration failure with source position."""

    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


def _int(digits: str, line, col) -> int:
    """int(digits), or ExprError at (line, col) past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ExprError(f"integer literal of {len(digits)} digits exceeds the limit "
                        f"of {sys.get_int_max_str_digits()} digits", line, col) from None


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def _tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    length = len(source)
    while i < length:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch.isdecimal():
            j = i
            while j < length and source[j].isdecimal():
                j += 1
            tokens.append(_Token("int", _int(source[i:j], start_line, start_col),
                                 start_line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "t":
            tokens.append(_Token("t", None, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch == "c":
            j = i + 1
            while j < length and source[j].isdecimal():
                j += 1
            if j == i + 1:
                raise ExprError("generator needs a numeric index after 'c'",
                                start_line, start_col)
            k = _int(source[i + 1:j], start_line, start_col)
            if k < 1:
                raise ExprError(f"generator index must be at least 1, got c{k}",
                                start_line, start_col)
            tokens.append(_Token("gen", k, start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "Q":
            if i + 1 >= length or source[i + 1] != "[":
                raise ExprError("'Q' must be followed by '[parts]'",
                                start_line, start_col)
            j = source.find("]", i + 2)
            if j < 0:
                raise ExprError("unterminated 'Q[' bracket", start_line, start_col)
            inner = source[i + 2:j]
            if "\n" in inner:
                raise ExprError("newline inside 'Q[...]'", start_line, start_col)
            parts = []
            if inner.strip():
                for piece in inner.split(","):
                    piece = piece.strip()
                    if not piece.isdecimal():
                        raise ExprError(f"bad partition entry {piece!r} in Q[...]",
                                        start_line, start_col)
                    parts.append(_int(piece, start_line, start_col))
            if any(a < b for a, b in zip(parts, parts[1:])):
                raise ExprError(f"parts not weakly decreasing in Q[{inner}]",
                                start_line, start_col)
            while parts and parts[-1] == 0:
                parts.pop()
            tokens.append(_Token("q", tuple(parts), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        raise ExprError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(_Token("end", None, line, col))
    return tokens


class _Parser:
    """Recursive descent over the token stream; builds tuple ASTs.

    Nodes: ("int", v), ("gen", k), ("t",), ("q", parts),
    ("add"|"sub"|"mul", a, b), ("pow", a, k), ("neg", a).
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprError(message, tok.line, tok.col)

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.fail("expression nested too deeply")

    def sum(self):
        node = self.prod()
        while self.peek().kind in ("+", "-"):
            op = self.take().kind
            rhs = self.prod()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def prod(self):
        node = self.unary()
        while self.peek().kind == "*":
            self.take()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.enter()
            self.take()
            node = ("neg", self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.take()
            tok = self.peek()
            if tok.kind == "-":
                self.fail("exponent must be a nonnegative integer")
            if tok.kind != "int":
                self.fail("expected an integer exponent after '^'")
            self.take()
            node = ("pow", node, tok.value)
        return node

    def atom(self):
        tok = self.take()
        if tok.kind == "int":
            return ("int", tok.value)
        if tok.kind == "gen":
            return ("gen", tok.value)
        if tok.kind == "t":
            return ("t",)
        if tok.kind == "q":
            return ("q", tok.value)
        if tok.kind == "(":
            self.enter()
            node = self.sum()
            closing = self.take()
            if closing.kind != ")":
                self.fail("expected ')'", closing)
            self.depth -= 1
            return node
        self.fail("expected a value" if tok.kind != "end" else "unexpected end of input", tok)


def parse(source: str):
    """Parse source text into an AST; raises ExprError with position."""
    parser = _Parser(_tokenize(source))
    node = parser.sum()
    trailing = parser.peek()
    if trailing.kind != "end":
        parser.fail("unexpected trailing input", trailing)
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


def elaborate(node) -> TPoly:
    """Evaluate an AST into a TPoly, expanding Q[I] via qtilde."""
    kind = node[0]
    if kind == "int":
        return TPoly.of(node[1])
    if kind == "gen":
        return TPoly.of(SymPoly.gen(node[1]))
    if kind == "t":
        return TPoly.t()
    if kind == "q":
        return TPoly.of(qtilde(node[1]))
    if kind == "neg":
        return -elaborate(node[1])
    if kind == "pow":
        return elaborate(node[1]) ** node[2]
    a, b = elaborate(node[1]), elaborate(node[2])
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    raise ValueError(f"unknown node kind {kind!r}")


def in_qtilde_basis(tp: TPoly, max_part=None) -> TExpansion:
    """Re-expand each t-power of a TPoly in the Q basis."""
    coeffs = {}
    for j, p in tp.coeffs.items():
        for i, c in expand_in_qtilde(p, max_part).coeffs.items():
            coeffs[(i, j)] = c
    return TExpansion(coeffs)
