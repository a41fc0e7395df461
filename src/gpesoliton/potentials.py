"""Parser and evaluator for external-potential expressions.

The language, loosest binding first:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right associative
    atom   := NUMBER | NAME | FUNCTION '(' expr ')' | '(' expr ')'

NUMBER is digits with an optional point and exponent (``007.5``, ``1.e5``,
``.5e-3``).  NAME is ASCII ``[A-Za-z_][A-Za-z_0-9]*``, not a Python keyword: the
coordinate ``s`` or ``rho``, or a parameter bound at evaluation time.  FUNCTION
is abs, cos, exp, sech, sin or tanh.  ``^`` is the power; ``**`` is rejected.

Python's ``**`` is right associative and binds tighter than a leading minus,
as ``^`` does here, so the parser is ``ast.parse`` of the text with ``^``
written ``**``, then one walk that admits only the nodes above.  A scan first
rejects characters outside the language, blanks whitespace (dropping it where
it leads), and writes each NUMBER as a zero of its length, since Python reads
some differently (``01`` is an error, ``1_0`` is ten); the walk takes the
values from the text.  Error offsets refer to the text as given.  Division is
not policed at parse time; non-finite values are caught when sampled.

The axial force dV/ds is a complex-step derivative, Im V(s + ih)/h: the
evaluator runs on complex s, and with no difference of two samples there is no
cancellation, so h can be tiny and the derivative is exact to round-off
(Squire & Trapp, SIAM Rev. 40, 110, 1998).  abs and sech take analytic,
overflow-free forms off the real axis; on it they are the plain numpy ones.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, UnboundParameterError, UnknownIdentifierError
from .grid import Grid

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


_NUMPY_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
                "sech": _sech, "abs": _abs}

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: np.divide, ast.Pow: np.power}

# one lexeme per match; a character that starts none is "bad"
_LEXEME = re.compile(r"(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
                     r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>\*\*|[-+*/^()])|(?P<space>\s)"
                     r"|(?P<bad>.)")


def _python_source(text: str):
    """text as Python source; the text offset of each source character, and of
    its end; the value of each number by its source span; and the names' spans."""
    src, where, numbers, names = [], [], {}, set()
    for m in _LEXEME.finditer(text):
        kind, lexeme, at = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {lexeme!r}", at)
        if lexeme == "**":
            raise ParseError("'**' is not an operator", at, expected=("'^' for a power",))
        if kind == "space":
            if not where:
                continue  # Python reads leading whitespace as an indent
            lexeme = " "
        elif kind == "num":
            numbers[len(where), len(where) + len(lexeme)] = float(lexeme)
            lexeme = "0" if len(lexeme) == 1 else "0." + "0" * (len(lexeme) - 2)
        elif kind == "name":
            names.add((len(where), len(where) + len(lexeme)))
        elif lexeme == "^":
            lexeme = "**"
        src.append(lexeme)
        where += range(at, m.end()) if kind != "op" else [at] * len(lexeme)
    return "".join(src), where + [len(text)], numbers, names


def parse(text: str) -> PotentialExpr:
    """Parse an expression; raises ParseError with a byte offset on bad input."""
    if not isinstance(text, str):
        raise ParseError("input must be a string", 0)
    src, where, numbers, names = _python_source(text)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", SyntaxWarning)  # '1if': an error, not a printed warning
            root = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        at = min(exc.offset - 1 if exc.offset else len(src), len(src))  # offset 0: input ended
        expected = (("number", "name", "'('", "'-'") if src[:at].rstrip()[-1:] in "+-*/("
                    else ("operator", "')'", "end of input")) if exc.msg == "invalid syntax" else ()
        # without Python's hints, such as "Perhaps you forgot a comma?"
        raise ParseError(exc.msg.partition(".")[0], where[at], expected) from None
    except (RecursionError, MemoryError):  # beyond the nesting CPython's parser takes
        raise ParseError("expression nests too deeply", 0) from None
    calls, params = set(), set()
    for node in ast.walk(root):
        if isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            continue  # checked with the node that holds it
        span, at = (node.col_offset, node.end_col_offset), where[node.col_offset]
        if (isinstance(node, ast.BinOp) and type(node.op) in _BINARY
                or isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)):
            continue
        # a call starts with its function's name: '(sin)(s)' is not a call here
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and (node.col_offset, node.func.end_col_offset) in names):
            if node.func.id not in FUNCTIONS:
                raise UnknownIdentifierError(node.func.id, at, FUNCTIONS)
            if len(node.args) == 1 and not node.keywords:
                calls.add(node.func)
                continue
        elif isinstance(node, ast.Name) and span in names:
            if node not in calls and node.id not in COORDINATES:
                params.add(node.id)
            continue
        elif isinstance(node, ast.Constant) and span in numbers:
            node.value = numbers[span]
            continue
        shown = text[at:where[span[1] - 1] + 1]
        raise ParseError(f"unsupported expression {shown!r}", at)
    return PotentialExpr(root, text, frozenset(params))


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed potential expression over s (and rho) with named parameters."""

    root: ast.expr  # admitted by parse; each Constant holds the float of its text
    source: str
    names: frozenset[str]  # the free parameters

    def parameters(self) -> frozenset[str]:
        return self.names

    def __call__(self, s=None, rho=None, params=None):
        env = {k: np.asarray(v, dtype=float) for k, v in (("s", s), ("rho", rho)) if v is not None}
        return _eval(self.root, env, dict(params or {}))


def _eval(root, env, params):
    """Value of a parsed tree, walked with an explicit stack: no recursion, at any depth."""
    todo, values = [root], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while todo:
            node = todo.pop()
            if isinstance(node, ast.BinOp):
                todo += [node.op, node.right, node.left]
            elif isinstance(node, ast.UnaryOp):
                todo += [operator.neg, node.operand]
            elif isinstance(node, ast.Call):
                todo += [_NUMPY_FUNCS[node.func.id], node.args[0]]
            elif isinstance(node, ast.Constant):
                values.append(node.value)
            elif isinstance(node, ast.Name):
                scope = env if node.id in COORDINATES else params
                if node.id not in scope:
                    raise (UnboundParameterError([node.id]) if scope is params else DomainError(
                        f"variable '{node.id}' is not available here "
                        f"(have: {', '.join(sorted(env)) or 'none'})"))
                values.append(scope[node.id])
            elif isinstance(node, ast.operator):
                right = values.pop()
                values.append(_BINARY[type(node)](values.pop(), right))
            else:  # a function or the negation, on the value below
                values.append(node(values.pop()))
    return values.pop()


def _sample(expr: PotentialExpr, grid: Grid, params, step=0.0):
    """Samples of expr, or with step > 0 of d(expr)/ds by a complex step of that size."""
    env = {"s": grid.s_coords() + 1j * step if step else grid.s_coords()}
    if grid.rho is not None:
        env["rho"] = grid.rho_coords()
    values = _eval(expr.root, env, params)
    if step:
        values = np.imag(values) / step
    values = np.broadcast_to(np.asarray(values, dtype=float), grid.shape).copy()
    bad = ~np.isfinite(values)
    if np.any(bad):
        idx = tuple(int(k[0]) for k in np.nonzero(bad))
        where = f"s = {grid.s[idx[-1]]:g}"
        if grid.rho is not None:
            where = f"rho = {grid.rho[idx[0]]:g}, {where}"
        source = f"d/ds({expr.source})" if step else expr.source
        raise DomainError(f"potential '{source}' is non-finite at node ({where})")
    return values


@dataclass(frozen=True)
class ExternalPotential:
    """A parsed expression with every parameter bound, ready to sample on grids;
    each field is evaluated once per grid, into read-only samples."""

    expr: PotentialExpr
    params: dict

    def __post_init__(self):
        missing = self.expr.parameters() - set(self.params)
        if missing:
            raise UnboundParameterError(missing)
        object.__setattr__(self, "_samples", {})  # (grid, step) -> samples

    def _sampled(self, grid: Grid, step):
        if (grid, step) not in self._samples:
            self._samples[grid, step] = _sample(self.expr, grid, self.params, step)
            self._samples[grid, step].setflags(write=False)
        return self._samples[grid, step]

    def sample(self, grid: Grid):
        """Vectorized samples at every node; rejects non-finite values with coordinates."""
        return self._sampled(grid, 0.0)

    def sample_gradient_s(self, grid: Grid):
        return self._sampled(grid, _COMPLEX_STEP)
