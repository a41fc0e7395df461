"""Parser and evaluator for external-potential expressions.

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

The axial force dV/ds is a complex-step derivative, Im V(s + ih)/h: the
evaluator runs on complex s, and with no difference of two samples there is no
cancellation, so h can be tiny and the derivative is exact to round-off
(Squire & Trapp, SIAM Rev. 40, 110, 1998).  abs and sech take analytic,
overflow-free forms off the real axis; on it they are the plain numpy ones.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnboundParameterError, UnknownIdentifierError
from .grid import Geometry, Grid

FUNCTIONS = ("abs", "cos", "exp", "sech", "sin", "tanh")
COORDINATES = ("s", "rho")

_COMPLEX_STEP = 1e-30


def _abs(x):
    # x*sign(Re x) continues |x| analytically off the real axis
    return x * np.sign(x.real) if np.iscomplexobj(x) else np.abs(x)


def _sech(x):
    if not np.iscomplexobj(x):
        return 1.0 / np.cosh(x)
    # cosh of a complex argument overflows to inf + inf*j for |Re x| > ~710,
    # where 1/cosh gives nan; 2e/(1 + e^2) with e = exp(-x*sign(Re x)), |e| <= 1, cannot
    e = np.exp(-_abs(x))
    return 2.0 * e / (1.0 + e * e)


_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sech": _sech,
    "abs": _abs,
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

    def __call__(self, s=None, rho=None, params=None):
        env = {}
        if s is not None:
            env["s"] = np.asarray(s, dtype=float)
        if rho is not None:
            env["rho"] = np.asarray(rho, dtype=float)
        return _eval(self.root, env, dict(params or {}))


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
    return _sample(expr, grid, params)


def _sample(expr: PotentialExpr, grid: Grid, params, step=0.0):
    """Samples of expr, or with step > 0 of d(expr)/ds by a complex step of that size."""
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
    if step:
        env["s"] = env["s"] + 1j * step
        values = np.imag(_eval(expr.root, env, params)) / step
    else:
        values = _eval(expr.root, env, params)
    values = np.broadcast_to(np.asarray(values, dtype=float), grid.shape).copy()
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = tuple(int(k[0]) for k in np.nonzero(bad))
        if grid.kind is Geometry.LINE:
            where = f"s = {grid.s[idx[0]]:g}"
        else:
            where = f"rho = {grid.rho[idx[0]]:g}, s = {grid.s[idx[1]]:g}"
        source = f"d/ds({expr.source})" if step else expr.source
        raise DomainError(f"potential '{source}' is non-finite at node ({where})")
    return values


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
        return _sample(self.expr, grid, self.params, _COMPLEX_STEP)
