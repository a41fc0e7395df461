"""Parser, evaluator and symbolic differentiator for external-potential expressions.

Grammar (recursive descent, standard precedence):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the coordinates ``s`` and ``rho``, the functions sin, cos,
exp, tanh, sech and abs, or free parameter names bound at evaluation time.
Division is not policed at parse time; non-finite values are caught when an
expression is sampled on a grid.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, GridMismatchError, ParseError,
                     UnboundParameterError, UnknownIdentifierError)
from .grid import Geometry, Grid

FUNCTIONS = ("abs", "cos", "exp", "sech", "sin", "tanh")
COORDINATES = ("s", "rho")

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sech": lambda x: 1.0 / np.cosh(x),
    "abs": np.abs,
}


# --- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # 's' or 'rho'


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


# --- tokenizer / parser ----------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", off)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ParseError(f"got {val!r}" if val is not None else "input ended",
                         off, expected=(repr(op),))

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", off,
                             expected=("operator", "end of input"))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Bin("^", base, self.factor())
        return base

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                if val not in FUNCTIONS:
                    raise UnknownIdentifierError(val, off, FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val in COORDINATES:
                return Var(val)
            return Param(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        shown = "end of input" if kind == "end" else repr(val)
        raise ParseError(f"got {shown}", off,
                         expected=("number", "identifier", "'('", "'-'"))


# --- public wrapper ---------------------------------------------------------


@dataclass(frozen=True)
class PotentialExpr:
    """Compiled potential expression over s (and rho) with named parameters."""

    root: object
    source: str

    def parameters(self) -> frozenset[str]:
        return frozenset(_collect_params(self.root))

    def variables(self) -> frozenset[str]:
        return frozenset(_collect_vars(self.root))

    def __call__(self, s=None, rho=None, params=None):
        env = {}
        if s is not None:
            env["s"] = np.asarray(s, dtype=float)
        if rho is not None:
            env["rho"] = np.asarray(rho, dtype=float)
        return _eval(self.root, env, dict(params or {}))

    def derivative(self, var: str = "s") -> "PotentialExpr":
        if var not in COORDINATES:
            raise DomainError(f"can only differentiate in {COORDINATES}, got {var!r}")
        d = _diff(self.root, var)
        return PotentialExpr(d, f"d/d{var}({self.source})")


def parse(text: str) -> PotentialExpr:
    """Parse an expression; raises ParseError with a byte offset on bad input."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0)
    root = _Parser(text).parse()
    return PotentialExpr(root, text)


def _collect_params(node):
    if isinstance(node, Param):
        yield node.name
    elif isinstance(node, Neg):
        yield from _collect_params(node.arg)
    elif isinstance(node, Bin):
        yield from _collect_params(node.left)
        yield from _collect_params(node.right)
    elif isinstance(node, Call):
        yield from _collect_params(node.arg)


def _collect_vars(node):
    if isinstance(node, Var):
        yield node.name
    elif isinstance(node, Neg):
        yield from _collect_vars(node.arg)
    elif isinstance(node, Bin):
        yield from _collect_vars(node.left)
        yield from _collect_vars(node.right)
    elif isinstance(node, Call):
        yield from _collect_vars(node.arg)


def _eval(node, env, params):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise DomainError(
                f"variable '{node.name}' is not available here "
                f"(have: {', '.join(sorted(env)) or 'none'})"
            )
        return env[node.name]
    if isinstance(node, Param):
        if node.name not in params:
            raise UnboundParameterError([node.name])
        return params[node.name]
    if isinstance(node, Neg):
        return -_eval(node.arg, env, params)
    if isinstance(node, Call):
        return _NUMPY_FUNCS[node.fn](_eval(node.arg, env, params))
    a = _eval(node.left, env, params)
    b = _eval(node.right, env, params)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.divide(a, b)
        return np.power(a, b)


def evaluate_on_grid(expr: PotentialExpr, grid: Grid, params=None):
    """Vectorized samples at every node; rejects non-finite values with coordinates."""
    params = dict(params or {})
    missing = expr.parameters() - set(params)
    if missing:
        raise UnboundParameterError(missing)
    env = {}
    if grid.kind is Geometry.LINE:
        env["s"] = grid.s
    elif grid.kind is Geometry.CYLINDRICAL:
        env["s"] = grid.s_coords()
        env["rho"] = grid.rho_coords()
    else:
        raise DomainError("external potentials apply to line or cylindrical grids")
    values = _eval(expr.root, env, params)
    values = np.broadcast_to(np.asarray(values, dtype=float), grid.shape).copy()
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = tuple(int(k[0]) for k in np.nonzero(bad))
        if grid.kind is Geometry.LINE:
            where = f"s = {grid.s[idx[0]]:g}"
        else:
            where = f"rho = {grid.rho[idx[0]]:g}, s = {grid.s[idx[1]]:g}"
        raise DomainError(
            f"potential '{expr.source}' is non-finite at node ({where})"
        )
    return values


# --- symbolic differentiation ------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_const(node, value):
    return isinstance(node, Num) and node.value == value


def _add(a, b):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return Bin("-", a, b)


def _mul(a, b):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Bin("*", a, b)


def _diff(node, var):
    if isinstance(node, (Num, Param)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE if node.name == var else _ZERO
    if isinstance(node, Neg):
        d = _diff(node.arg, var)
        return _ZERO if _is_const(d, 0.0) else Neg(d)
    if isinstance(node, Call):
        da = _diff(node.arg, var)
        if _is_const(da, 0.0):
            return _ZERO
        a = node.arg
        outer = {
            "sin": lambda: Call("cos", a),
            "cos": lambda: Neg(Call("sin", a)),
            "exp": lambda: Call("exp", a),
            "tanh": lambda: _sub(_ONE, Bin("^", Call("tanh", a), Num(2.0))),
            "sech": lambda: Neg(_mul(Call("sech", a), Call("tanh", a))),
            # derivative of |x| as x/|x|; non-finite at 0, caught on sampling
            "abs": lambda: Bin("/", a, Call("abs", a)),
        }[node.fn]()
        return _mul(outer, da)
    if node.op == "+":
        return _add(_diff(node.left, var), _diff(node.right, var))
    if node.op == "-":
        return _sub(_diff(node.left, var), _diff(node.right, var))
    if node.op == "*":
        return _add(_mul(_diff(node.left, var), node.right),
                    _mul(node.left, _diff(node.right, var)))
    if node.op == "/":
        num = _sub(_mul(_diff(node.left, var), node.right),
                   _mul(node.left, _diff(node.right, var)))
        if _is_const(num, 0.0):
            return _ZERO
        return Bin("/", num, Bin("^", node.right, Num(2.0)))
    # d(f^g): general form f^g * (g'*ln f + g*f'/f); restrict to constant g,
    # which covers the potentials this toolkit targets
    if _is_const(_diff(node.right, var), 0.0):
        df = _diff(node.left, var)
        down = Bin("^", node.left, _sub(node.right, _ONE))
        return _mul(_mul(node.right, down), df)
    raise DomainError(
        "cannot differentiate a power with a coordinate-dependent exponent")


def _render(node):
    """Fully parenthesised source text of a node; parse(_render(n)).root == n."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Param)):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_render(node.arg)})"
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg)})"
    return f"({_render(node.left)}{node.op}{_render(node.right)})"


@dataclass(frozen=True)
class ExternalPotential:
    """A parsed expression with every parameter bound, ready to sample on grids."""

    expr: PotentialExpr
    params: dict

    def __post_init__(self):
        missing = self.expr.parameters() - set(self.params)
        if missing:
            raise UnboundParameterError(missing)

    @classmethod
    def from_text(cls, text: str, params=None) -> "ExternalPotential":
        return cls(parse(text), dict(params or {}))

    def sample(self, grid: Grid):
        return evaluate_on_grid(self.expr, grid, self.params)

    def sample_gradient_s(self, grid: Grid):
        return evaluate_on_grid(self.expr.derivative("s"), grid, self.params)

    def describe(self) -> str:
        bound = ", ".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return self.expr.source + (f" [{bound}]" if bound else "")
