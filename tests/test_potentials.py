import ast
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gpesoliton.errors import (DomainError, ParseError, UnboundParameterError,
                               UnknownIdentifierError)
from gpesoliton import potentials
from gpesoliton.grid import cylindrical_grid, line_grid, spherical_grid
from gpesoliton.potentials import parse


def sample(text, g, **params):
    return parse(text).sample(g, params)[0]


class TestParsing:
    def test_linear_tilt(self):
        expr = parse("0.01*s")
        assert ast.dump(expr.root) == ("BinOp(left=Constant(value=0.01), op=Mult(), "
                                       "right=Name(id='s', ctx=Load()))")
        g = line_grid(-5.0, 5.0, 64)
        assert np.array_equal(sample("0.01*s", g), 0.01 * g.s)

    def test_arithmetic(self):
        # 0.5 * 0.2^2 * 2^2 under standard precedence
        assert float(parse("0.5*0.2^2*s^2")(s=2.0)) == pytest.approx(0.08)
        assert float(parse("0.5*0.2^2*s^2")(s=math.sqrt(2.0))) == pytest.approx(0.04)

    def test_gaussian_barrier_peak(self):
        expr = parse("A*exp(-(s-s0)^2/w^2)")
        val = expr(s=5.0, params={"A": 0.1, "s0": 5.0, "w": 2.0})
        assert float(val) == pytest.approx(0.1)

    def test_precedence(self):
        assert float(parse("2^3^2")()) == 512.0          # right associative
        assert float(parse("-2^2")()) == -4.0            # ^ binds before unary -
        assert float(parse("2-3-4")()) == -5.0           # left associative
        assert float(parse("6/3/2")()) == 1.0
        assert float(parse("1+2*3")()) == 7.0

    def test_whitespace_insensitive(self):
        assert ast.dump(parse(" 1 +  2*s ").root) == ast.dump(parse("1+2*s").root)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1 + * 2")
        assert err.value.offset == 4
        assert err.value.expected

    def test_unknown_function_lists_allowed(self):
        with pytest.raises(UnknownIdentifierError) as err:
            parse("foo(s)")
        assert "sech" in str(err.value)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("sin(s")

    def test_illegal_character(self):
        with pytest.raises(ParseError) as err:
            parse("s + $")
        assert err.value.offset == 4


class TestEvaluation:
    def test_coordinates_verbatim(self):
        g = line_grid(-3.0, 3.0, 48)
        assert np.array_equal(sample("s", g), g.s)

    def test_division_by_zero_names_node(self):
        # n odd with unit spacing puts a node exactly at s = 0
        g = line_grid(-8.5, 8.5, 17)
        assert g.s[8] == 0.0
        with pytest.raises(DomainError) as err:
            sample("1/s", g)
        assert "s = 0" in str(err.value)

    def test_sech_identity(self):
        g = line_grid(-4.0, 4.0, 64)
        vals = sample("sech(s)^2", g)
        assert np.max(np.abs(vals - 1 / np.cosh(g.s) ** 2)) < 1e-15

    def test_unbound_parameter(self):
        # the evaluator's own check, for a PotentialExpr called rather than sampled
        g = line_grid(-1.0, 1.0, 16)
        with pytest.raises(UnboundParameterError) as err:
            parse("a*s")(s=g.s)
        assert "a" in str(err.value)

    def test_rho_on_line_grid_rejected(self):
        g = line_grid(-1.0, 1.0, 16)
        with pytest.raises(DomainError):
            sample("rho^2", g)

    def test_cylindrical_broadcast(self):
        g = cylindrical_grid(2.0, -1.0, 1.0, 16, 24)
        vals = sample("rho^2 + 0*s", g)
        assert vals.shape == g.shape
        assert np.allclose(vals, np.broadcast_to(g.rho_coords() ** 2, g.shape))


# (text, params, closed-form dV/ds)
GRADIENT_CASES = [
    ("0.01*s", {}, lambda s: 0.01 + 0.0 * s),
    ("A*exp(-(s-s0)^2/w^2)", {"A": 0.1, "s0": 5.0, "w": 2.0},
     lambda s: -0.05 * (s - 5.0) * np.exp(-(s - 5.0) ** 2 / 4.0)),
    ("sech(s)^2", {}, lambda s: -2.0 * np.tanh(s) / np.cosh(s) ** 2),
    ("sin(2*s)*cos(s) + tanh(s/3)", {},
     lambda s: (2.0 * np.cos(2 * s) * np.cos(s) - np.sin(2 * s) * np.sin(s)
                + 1.0 / (3.0 * np.cosh(s / 3) ** 2))),
    ("s^3 - 2*s", {}, lambda s: 3.0 * s ** 2 - 2.0),
    ("abs(s)", {}, np.sign),  # no node at s = 0 on the grids below
    ("2^s", {}, lambda s: math.log(2.0) * 2.0 ** s),
]


class TestDerivative:
    @pytest.mark.parametrize("text,params", [c[:2] for c in GRADIENT_CASES[:5]])
    def test_matches_finite_differences(self, text, params):
        g = line_grid(-5.0, 5.0, 64)
        got = parse(text).sample(g, params)[1]
        expr, h = parse(text), 1e-6
        fd = (expr(s=g.s + h, params=params) - expr(s=g.s - h, params=params)) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("make_grid", [lambda: line_grid(-6.0, 6.0, 1024),
                                           lambda: cylindrical_grid(3.0, -6.0, 6.0, 16, 384)],
                             ids=["line", "cylindrical"])
    @pytest.mark.parametrize("text,params,closed_form", GRADIENT_CASES,
                             ids=[c[0] for c in GRADIENT_CASES])
    def test_matches_closed_form(self, text, params, closed_form, make_grid):
        g = make_grid()
        got = parse(text).sample(g, params)[1]
        want = np.broadcast_to(closed_form(g.s_coords()), g.shape)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sech_rule(self):
        # 1/cosh of a complex argument is nan beyond |s| ~ 710; the gradient
        # must stay finite out there and equal -tanh(s)/cosh(s), which is 0
        g = line_grid(-1000.0, 1000.0, 1024)
        got = parse("sech(s)").sample(g, {})[1]
        with np.errstate(over="ignore"):
            want = -np.tanh(g.s) / np.cosh(g.s)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSample:
    def test_requires_bound_parameters(self):
        # before any other check: a spherical grid has no s axis to sample along
        for g in (line_grid(-5.0, 5.0, 64), spherical_grid(2.0, 32)):
            with pytest.raises(UnboundParameterError):
                parse("F*s").sample(g, {})

    def test_sampling_and_gradient(self):
        g = line_grid(-5.0, 5.0, 64)
        v, dv_ds = parse("F*s").sample(g, {"F": 0.01})
        assert np.allclose(v, 0.01 * g.s)
        assert np.allclose(dv_ds, 0.01)

    @pytest.mark.parametrize("text", ["s^2", "0.5", "rho^2 + s", "rho"])
    def test_read_only_and_of_the_grid_shape(self, text):
        # a constant, or a field along one axis, still fills the grid
        g = cylindrical_grid(2.0, -1.0, 1.0, 16, 24)
        for field in parse(text).sample(g, {}):
            assert field.shape == g.shape
            assert not field.flags.writeable
            with pytest.raises(ValueError):
                field[0, 0] = 1.0

    def test_non_finite_value_names_its_node_on_a_cylinder(self):
        g = cylindrical_grid(2.0, -1.0, 1.0, 16, 17)  # s = 0 is the middle node
        with pytest.raises(DomainError, match=r"potential '1/s \+ rho' is non-finite at "
                                              r"node \(rho = 0.0625, s = 0\)"):
            parse("1/s + rho").sample(g, {})

    def test_non_finite_gradient_names_its_node(self):
        # V = 1e300 sin(1e10 s) is finite; dV/ds = 1e310 cos(1e10 s) overflows
        g = line_grid(-0.5, 0.5, 16)
        with pytest.raises(
                DomainError, match=r"potential 'd/ds\(1e300\*sin\(1e10\*s\)\)' is "
                                   r"non-finite at node \(s = -0.46875\)"):
            parse("1e300*sin(1e10*s)").sample(g, {})


# --- the language at its edges ------------------------------------------------

# (text, verdict, value at s = 2): the parameter names if parse accepts the text,
# else the error it raises
LANGUAGE = [
    (" 1 + 2*s ", set(), 5.0),
    ("\ts", set(), 2.0),
    ("s\n+1", set(), 3.0),
    ("01*s", set(), 2.0),
    ("007.5", set(), 7.5),
    ("1.e5", set(), 1e5),
    (".5e-3", set(), 5e-4),
    ("sin (s)", set(), math.sin(2.0)),
    ("2^-s", set(), 0.25),
    ("a*s + b0", {"a", "b0"}, 3.0),
    ("1_0", ParseError, None),
    ("0x10", ParseError, None),
    ("1j", ParseError, None),
    ("é*s", ParseError, None),
    ("+s", ParseError, None),
    ("s[0]", ParseError, None),
    ("sin(s, s)", ParseError, None),
    ("s.real", ParseError, None),
    ("a\x00", ParseError, None),
    ("2**3", ParseError, None),
    ("1 +", ParseError, None),
    ("", ParseError, None),
    ("s if s else 1", ParseError, None),
    ("(sin)(s)", ParseError, None),
    ("f(s)", UnknownIdentifierError, None),
    # Python keywords are not names
    ("True*s", ParseError, None),
    ("if*s", ParseError, None),
]


@pytest.mark.parametrize("text,verdict,value", LANGUAGE, ids=[repr(c[0]) for c in LANGUAGE])
def test_language(text, verdict, value):
    if isinstance(verdict, set):
        expr = parse(text)
        assert expr.parameters == verdict
        assert float(expr(s=2.0, params={n: 1.0 for n in verdict})) == value
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert type(err.value) is verdict
    assert 0 <= err.value.offset <= len(text)


# --- property tests ----------------------------------------------------------

# Expression trees as tuples: a float, a name (the coordinate "s" or a parameter),
# ("-", x) for negation, (fn, x) for a call and (op, left, right) for + - * / ^.
_names = st.sampled_from(["a", "b0", "amp_", "w"])
_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def _leaf():
    # the parser never emits negative literals (unary minus is a node of its own),
    # so the strategy sticks to trees that parse can produce
    return st.one_of(
        st.floats(min_value=0, max_value=5, allow_nan=False).map(lambda v: abs(round(v, 3))),
        st.just("s"),
        _names,
    )


def _exprs():
    return st.recursive(
        _leaf(),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*/^"), inner, inner),
            inner.map(lambda x: ("-", x)),
            st.tuples(st.sampled_from(["sin", "cos", "exp", "tanh", "sech", "abs"]), inner),
        ),
        max_leaves=12,
    )


def _render(tree):
    """Fully parenthesised source text of a tree."""
    if isinstance(tree, float):
        return repr(tree)
    if isinstance(tree, str):
        return tree
    if len(tree) == 2:
        return f"(-{_render(tree[1])})" if tree[0] == "-" else f"{tree[0]}({_render(tree[1])})"
    return f"({_render(tree[1])}{tree[0]}{_render(tree[2])})"


def _tree(node):
    """The tuple tree of a parsed expression's root."""
    if isinstance(node, ast.Constant):
        assert type(node.value) is float
        return node.value
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.UnaryOp):
        assert isinstance(node.op, ast.USub)
        return ("-", _tree(node.operand))
    if isinstance(node, ast.Call):
        assert len(node.args) == 1 and not node.keywords
        return (node.func.id, _tree(node.args[0]))
    assert isinstance(node, ast.BinOp)
    return (_OPS[type(node.op)], _tree(node.left), _tree(node.right))


def _reference_eval(tree, s, params):
    """Independent tree walker on python floats; numpy ufuncs for the elementary functions and ^."""
    if isinstance(tree, float):
        return tree
    if isinstance(tree, str):
        return s if tree == "s" else params[tree]
    if tree[0] == "-" and len(tree) == 2:
        return -_reference_eval(tree[1], s, params)
    if len(tree) == 2:
        # the elementary functions are numpy's ufuncs on float64 scalars, as in the
        # program: the walk is under test here, not libm (math.tanh and np.tanh may
        # differ by an ulp, which 1 - tanh(1.5) magnifies to 1.2e-15)
        x = np.float64(_reference_eval(tree[1], s, params))
        with np.errstate(all="ignore"):
            return float({
                "sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh, "abs": np.abs,
                "sech": lambda t: 1.0 / np.cosh(t),
            }[tree[0]](x))
    op, a, b = tree[0], _reference_eval(tree[1], s, params), _reference_eval(tree[2], s, params)
    if op == "^":
        # np.power, as in the program: math.pow(2.5, 2.5) is an ulp above it,
        # which sin(s^s) magnifies to 3.5e-15
        with np.errstate(all="ignore"):
            return float(np.power(np.float64(a), np.float64(b)))
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a / b
    except ZeroDivisionError:
        if math.isnan(a) or a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


@given(_exprs(), st.floats(min_value=-3, max_value=3, allow_nan=False))
@example(("+", 1.0, ("-", ("tanh", 1.5))), 0.0)
@example(("tanh", ("sech", ("/", 3.0, "s"))), 0.00390625)
@example(("-", ("sin", ("^", "s", "s"))), 2.5)
@settings(max_examples=200, deadline=None)
def test_vectorized_eval_matches_reference(tree, s):
    expr = parse(_render(tree))
    params = {n: 1.5 for n in expr.parameters}
    with np.errstate(all="ignore"):
        got = expr(s=s, params=params)
    want = _reference_eval(tree, s, params)
    got = float(got)
    if math.isnan(want) or math.isinf(want) or math.isnan(got) or math.isinf(got):
        return  # non-finite branches differ only in nan/inf flavor
    assert got == pytest.approx(want, rel=1e-15, abs=1e-300)


@given(_exprs())
@settings(max_examples=200, deadline=None)
def test_pretty_print_round_trip(tree):
    assert _tree(parse(_render(tree)).root) == tree


@given(st.text(max_size=40))
@example("(" * 300 + "s" + ")" * 300)  # more nesting than Python's parser takes
@example("1" + "+s" * 2000)  # deeper than the interpreter's recursion limit
@example("s" + "^s" * 3000)  # ast.parse runs out of parser stack: MemoryError
@example("-" * 3000 + "s")  # a unary chain as deep
@settings(max_examples=300, deadline=None)
def test_parse_is_total(text):
    # every string parses or raises ParseError, and what parses samples
    # without a RecursionError
    try:
        expr = parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
        return
    # both fields, V and dV/ds, are evaluated before either is checked; on a
    # cylinder both coordinates exist, so the evaluation itself raises nothing
    calls, evaluate = [], potentials._eval
    g = cylindrical_grid(1.0, -1.0, 1.0, 16, 16)
    with mock.patch.object(potentials, "_eval", lambda *a: calls.append(a) or evaluate(*a)):
        try:
            expr.sample(g, {n: 1.5 for n in expr.parameters})
        except DomainError:
            pass
    assert len(calls) == 2
