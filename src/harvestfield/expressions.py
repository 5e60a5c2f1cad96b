"""A minimal arithmetic expression grammar for user-supplied coefficient functions.

Grammar (whitespace insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power           # -x^2 parses as -(x^2)
    power   := primary ('^' factor)?        # right associative
    primary := NUMBER | VARIABLE | 'exp' '(' expr ')' | 'log' '(' expr ')'
             | '(' expr ')'

NUMBER accepts decimal and scientific notation. Exactly one free variable is
allowed (``x`` for drift/volatility, ``z`` for price functions); its name is
chosen by the caller. Compiled expressions evaluate with numpy semantics, so
they accept scalars and arrays alike. An expression nests at most 128 levels
deep, or raises :class:`ScenarioError`: each parenthesis, call, sign and
exponent opens a level, and each operator adds one to its operands' depth, so
129 nested parentheses and a sum of 130 terms are both too deep.
"""

from __future__ import annotations

import contextlib
import re
from typing import Callable

import numpy as np

from .errors import ScenarioError

__all__ = ["parse_expression"]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ScenarioError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((match.lastgroup, match.group(match.lastgroup), match.start(match.lastgroup)))
        pos = match.end()
    return tokens


def _power(base, exponent):
    """``base ^ exponent`` by ``np.power`` for floats and arrays alike, so both round the same."""
    with np.errstate(invalid="ignore"):   # a negative base under a fractional exponent: NaN
        value = np.power(base, exponent)
    return value if isinstance(value, np.ndarray) else float(value)


def _exp(value):
    """``np.exp``, overflowing to inf without a warning; the price checks refuse an infinite price."""
    with np.errstate(over="ignore"):
        return np.exp(value)


_MAX_DEPTH = 128   # the nesting bound of the module docstring; it bounds every recursion below


def _level(depth: int) -> int:
    """``depth``, refused past the nesting bound."""
    if depth > _MAX_DEPTH:
        raise ScenarioError(f"expression nests deeper than {_MAX_DEPTH} levels")
    return depth


class _Parser:
    """Recursive descent; each rule returns ``(callable, depth of its operator tree)``."""

    def __init__(self, tokens, variable):
        self.tokens = tokens
        self.variable = variable
        self.pos = 0
        self.open = 0   # levels opened and not yet closed

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ScenarioError("unexpected end of expression")
        if kind is not None and tok[0] != kind:
            raise ScenarioError(f"expected {kind} at position {tok[2]}, found {tok[1]!r}")
        if value is not None and tok[1] != value:
            raise ScenarioError(f"expected {value!r} at position {tok[2]}, found {tok[1]!r}")
        self.pos += 1
        return tok

    @contextlib.contextmanager
    def inward(self):
        """Parse the body one level further in (a ``with`` body adds no stack frame)."""
        self.open = _level(self.open + 1)
        yield
        self.open -= 1

    def parse(self):
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] is not None:
            raise ScenarioError(f"trailing input at position {tok[2]}: {tok[1]!r}")
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs, rhs_depth = self.term()
            node = (lambda f, g: (lambda v: f(v) + g(v)))(node, rhs) if op == "+" else \
                (lambda f, g: (lambda v: f(v) - g(v)))(node, rhs)
            depth = _level(max(depth, rhs_depth) + 1)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.take()[1]
            rhs, rhs_depth = self.factor()
            node = (lambda f, g: (lambda v: f(v) * g(v)))(node, rhs) if op == "*" else \
                (lambda f, g: (lambda v: f(v) / g(v)))(node, rhs)
            depth = _level(max(depth, rhs_depth) + 1)
        return node, depth

    def factor(self):
        # unary minus binds looser than the power: -x^2 means -(x^2)
        if self.peek()[1] == "-":
            self.take()
            with self.inward():
                inner, depth = self.factor()
            return (lambda v, f=inner: -f(v)), _level(depth + 1)
        return self.power()

    def power(self):
        base, depth = self.primary()
        if self.peek()[1] == "^":
            self.take()
            with self.inward():
                exponent, exponent_depth = self.factor()
            node = lambda v, f=base, g=exponent: _power(f(v), g(v))
            return node, _level(max(depth, exponent_depth) + 1)
        return base, depth

    def primary(self):
        kind, value, where = self.peek()
        if kind is None:
            raise ScenarioError("unexpected end of expression")
        if kind == "num":
            self.take()
            const = float(value)
            return (lambda v, c=const: c), 0
        if kind == "name":
            self.take()
            if value in ("exp", "log"):
                self.take("op", "(")
                with self.inward():
                    inner, depth = self.expr()
                self.take("op", ")")
                fn = _exp if value == "exp" else np.log
                return (lambda v, f=inner, fn=fn: fn(f(v))), _level(depth + 1)
            if value == self.variable:
                return (lambda v: v), 0
            raise ScenarioError(
                f"unknown name {value!r} at position {where}; "
                f"the free variable here is {self.variable!r}"
            )
        if value == "(":
            self.take()
            with self.inward():
                inner = self.expr()
            self.take("op", ")")
            return inner
        raise ScenarioError(f"unexpected token {value!r} at position {where}")


def parse_expression(text: str, variable: str = "x") -> Callable[[float], float]:
    """Compile ``text`` into a callable of one variable named ``variable``."""
    if not isinstance(text, str) or not text.strip():
        raise ScenarioError("expression must be a non-empty string")
    node = _Parser(_tokenize(text), variable).parse()

    def compiled(v, _node=node):
        return _node(np.asarray(v, dtype=float)) if isinstance(v, np.ndarray) else _node(v)

    return compiled
