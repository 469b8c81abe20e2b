"""Text grammar for symbols and phase-space expressions.

Expressions: variables x1..x9, xi1..xi9, the imaginary unit `i`, numeric
literals with an optional exponent (2.5e-07, as `Expr.render` prints),
operators + - * / ^ with conventional precedence (^ binds tightest,
right-associative, constant exponent), functions sin, cos, exp, sqrt,
and `|xi|` as sugar for sqrt(xi1^2 + ... + xin^2).

Symbol documents:

    symbol P {
      dim=2 order=2 trunc=4
      term 2: "xi1^2 + (1+0.5*sin(x1))*xi2^2"
    }

`dim` is an integer in 1..9, since the variables stop at x9.  Degrees
must be strictly decreasing and stay above order - trunc; every term is
validated against the Euler relation at parse time.

Map files, for `psido pullback`, give a diffeomorphism of T^n by its
components in x1..xn, each once in each direction:

    dim=1
    forward 1: "x1 + 0.5"
    inverse 1: "x1 - 0.5"

One reader takes both line by line: each non-blank line is a line of
`key=value` fields or one item line, and SyntaxError names any other.
An error in an item's expression keeps its class and names its line.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import expr as ex
from .errors import DegreeOrderError, DomainError
from .symbols import ClassicalSymbol, Diffeo, HomogeneousTerm

_TOKEN_RE = re.compile(r"""
    (?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<name>xi[1-9]|x[1-9]|sin|cos|exp|sqrt|i)
  | (?P<op>\|xi\||[-+*/^()|])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SyntaxError(
                f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _ExprParser:
    def __init__(self, text: str, dimension: int):
        self.text = text
        self.n = dimension
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def expect(self, value):
        kind, val, pos = self.take()
        if val != value:
            raise SyntaxError(
                f"expected {value!r} at position {pos}, found {val or 'end'!r}")

    def parse(self) -> ex.Expr:
        e = self.sum_()
        kind, val, pos = self.peek()
        if kind != "end":
            raise SyntaxError(
                f"unexpected {val!r} at position {pos}")
        return e

    def sum_(self) -> ex.Expr:
        e = self.product()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs = self.product()
            e = ex.add(e, rhs if op == "+" else ex.neg(rhs))
        return e

    def product(self) -> ex.Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs = self.unary()
            e = ex.mul(e, rhs) if op == "*" else ex.div(e, rhs)
        return e

    def unary(self) -> ex.Expr:
        if self.peek()[1] == "-":
            self.take()
            return ex.neg(self.unary())
        if self.peek()[1] == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> ex.Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            _, _, pos = self.take()
            expo = self.unary()
            if not isinstance(expo, ex.Const) or expo.value.imag != 0:
                raise SyntaxError(
                    f"exponent after position {pos} must be a real constant")
            return ex.pow_(base, expo.value.real)
        return base

    def atom(self) -> ex.Expr:
        kind, val, pos = self.take()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise SyntaxError(f"number at position {pos} is not finite")
            return ex.Const(value)
        if kind == "name":
            if val == "i":
                return ex.I
            if val in ("sin", "cos", "exp", "sqrt"):
                self.expect("(")
                arg = self.sum_()
                self.expect(")")
                return {"sin": ex.sin, "cos": ex.cos,
                        "exp": ex.exp, "sqrt": ex.sqrt}[val](arg)
            if val.startswith("xi"):
                j = int(val[2:])
                if j > self.n:
                    raise SyntaxError(
                        f"variable {val} exceeds dimension {self.n} "
                        f"at position {pos}")
                return ex.xi(j)
            j = int(val[1:])
            if j > self.n:
                raise SyntaxError(
                    f"variable {val} exceeds dimension {self.n} "
                    f"at position {pos}")
            return ex.x(j)
        if val == "(":
            e = self.sum_()
            self.expect(")")
            return e
        if val == "|xi|":
            return ex.xi_norm(self.n)
        raise SyntaxError(
            f"unexpected {val or 'end'!r} at position {pos}")


def parse_expr(text: str, dimension: int) -> ex.Expr:
    """Parse an expression over x1..xn, xi1..xin."""
    return _ExprParser(text, dimension).parse()


@dataclass(frozen=True)
class SymbolDocument:
    name: str
    dimension: int
    leading_order: float
    truncation_order: int
    terms: tuple    # of (degree, expression text, line number)

    def to_symbol(self) -> ClassicalSymbol:
        built = []
        for degree, text, no in self.terms:
            e = _parse_item(no, text, self.dimension)
            built.append(HomogeneousTerm.checked(e, degree, self.dimension))
        return ClassicalSymbol(self.leading_order, tuple(built),
                               self.truncation_order, self.dimension)


_DOC_RE = re.compile(
    r"\s*symbol\s+(?P<name>\w+)\s*\{(?P<body>.*)\}\s*$", re.DOTALL)
_TERM_RE = re.compile(r"term\s+(-?\d+(?:\.\d+)?)\s*:\s*\"([^\"]*)\"")
_COMPONENT_RE = re.compile(r"(forward|inverse)\s+(\d+)\s*:\s*\"([^\"]*)\"")
# each field of a document: the pattern of its value and what it names
_MAP_FIELDS = {"dim": (r"[1-9]", "an integer in 1..9")}
_SYMBOL_FIELDS = {**_MAP_FIELDS,
                  "order": (r"-?\d+(?:\.\d+)?", "a number"),
                  "trunc": (r"-?\d+", "an integer")}


def _parse_item(no: int, text: str, dimension: int) -> ex.Expr:
    """parse_expr of the expression on line `no`; its SyntaxError or
    DomainError keeps its class and names the line."""
    try:
        return parse_expr(text, dimension)
    except (SyntaxError, DomainError) as err:
        raise type(err)(f"line {no}: {err}") from err


def _read_lines(lines, first: int, fields: dict, item_re, item: str):
    """The field values, and (line number, *groups) of each item line, of
    lines numbered from `first`; SyntaxError names a line neither of
    `key=value` fields nor matched in full by `item_re`, a field given
    twice or not at all, and a value not of its field's pattern."""
    keys = "|".join(fields)
    values, items = {}, []
    for no, line in enumerate(lines, first):
        line = line.strip()
        match = item_re.fullmatch(line)
        if match:
            items.append((no, *match.groups()))
        elif re.fullmatch(rf"(?:(?:{keys})\s*=\s*\S+\s*)+", line):
            for key, value in re.findall(rf"({keys})\s*=\s*(\S+)", line):
                pattern, what = fields[key]
                if key in values:
                    raise SyntaxError(f"line {no}: field {key}= is given "
                                      "twice")
                if not re.fullmatch(pattern, value):
                    raise SyntaxError(f"line {no}: {key}= must be {what}, "
                                      f"got {value!r}")
                values[key] = value
        elif line:
            raise SyntaxError(f"line {no}: {line!r} is neither fields nor "
                              f"{item}")
    for key in fields:
        if key not in values:
            raise SyntaxError(f"missing field {key}=")
    return values, items


def parse_symbol_document(text: str) -> SymbolDocument:
    """The name, fields and terms of a symbol document, its body read by
    `_read_lines` with `term d: "..."` items; SyntaxError also for a body
    without terms, DegreeOrderError for degrees out of order or range."""
    m = _DOC_RE.match(text)
    if m is None:
        raise SyntaxError("expected `symbol NAME { ... }`")
    first = text.count("\n", 0, m.start("body")) + 1
    fields, items = _read_lines(m.group("body").splitlines(), first,
                                _SYMBOL_FIELDS, _TERM_RE,
                                'a term line `term d: "..."`')
    n = int(fields["dim"])
    order = float(fields["order"])
    trunc = int(fields["trunc"])
    terms = [(float(degree), body, no) for no, degree, body in items]
    if not terms:
        raise SyntaxError("symbol body declares no terms")
    degrees = [d for d, _, _ in terms]
    if any(b >= a for a, b in zip(degrees, degrees[1:])):
        raise DegreeOrderError("term degrees must be strictly decreasing")
    if degrees[0] > order or any(d <= order - trunc for d in degrees):
        raise DegreeOrderError(
            f"degrees must lie in ({order - trunc}, {order}]")
    return SymbolDocument(m.group("name"), n, order, trunc, tuple(terms))


def parse_symbol_text(text: str) -> ClassicalSymbol:
    """Parse and fully validate a symbol document."""
    return parse_symbol_document(text).to_symbol()


def parse_map_text(text: str) -> Diffeo:
    """The diffeomorphism of a map file: dim=n in 1..9 and each component
    j in 1..n given once in each direction, else SyntaxError naming it.
    Diffeo checks the round trip and the Jacobian."""
    fields, items = _read_lines(
        text.splitlines(), 1, _MAP_FIELDS, _COMPONENT_RE,
        'a component line `forward j: "..."` or `inverse j: "..."`')
    n = int(fields["dim"])
    parts = {"forward": [None] * n, "inverse": [None] * n}
    for no, kind, j, body in items:
        comps, j = parts[kind], int(j)
        if not 1 <= j <= n:
            raise SyntaxError(f"line {no}: component {kind} {j} is outside "
                              f"1..{n}")
        if comps[j - 1] is not None:
            raise SyntaxError(f"line {no}: component {kind} {j} is given "
                              "twice")
        comps[j - 1] = _parse_item(no, body, n)
    for kind, comps in parts.items():
        if None in comps:
            raise SyntaxError(f"map file gives no component {kind} "
                              f"{comps.index(None) + 1}")
    return Diffeo(parts["forward"], parts["inverse"])
