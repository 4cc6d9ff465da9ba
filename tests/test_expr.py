"""Expression parser and evaluator."""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pontrylie.expr import (
    Binary,
    Constant,
    Expression,
    ExprEvaluationError,
    ExprSyntaxError,
    UndeclaredVariableError,
    Unary,
    Variable,
    _newton_step,
    compile_tables,
    derivative_table,
    differentiate,
    evaluate,
    load_problem,
    parse,
)
from pontrylie.heisenberg import PROBLEM_JSON

XU = {"x1", "x2", "x3", "u1", "u2"}
HEISENBERG_FILE = json.loads(PROBLEM_JSON)


def test_hand_evaluated_example():
    e = parse("(x1*u2 - x2*u1)/2", XU)
    value = evaluate(e, {"x1": 1.0, "x2": 2.0, "x3": 0.0, "u1": 3.0, "u2": 4.0})
    assert value == (1.0 * 4.0 - 2.0 * 3.0) / 2.0 == -1.0


def test_constant_zero():
    e = parse("0", XU)
    assert isinstance(e.ast, Constant)
    assert evaluate(e, {}) == 0.0


def test_undeclared_variable_rejected():
    with pytest.raises(UndeclaredVariableError) as err:
        parse("u3", XU)
    assert err.value.name == "u3"


def test_trig_identity():
    e = parse("sin(x1)^2 + cos(x1)^2", XU)
    for x1 in (-2.0, 0.0, 0.4, 17.3):
        assert abs(evaluate(e, {"x1": x1}) - 1.0) <= 1e-15


def test_division_by_zero():
    e = parse("x1/x2", XU)
    with pytest.raises(ExprEvaluationError):
        evaluate(e, {"x1": 1.0, "x2": 0.0})


def test_sqrt_domain_error():
    e = parse("sqrt(x1)", XU)
    assert evaluate(e, {"x1": 4.0}) == 2.0
    with pytest.raises(ExprEvaluationError):
        evaluate(e, {"x1": -1.0})


def test_unit_circle_energy():
    e = parse("0.5*(u1^2+u2^2)", XU)
    theta = 0.7345
    value = evaluate(e, {"u1": math.cos(theta), "u2": math.sin(theta)})
    assert abs(value - 0.5) <= 1e-15


def test_precedence_and_associativity():
    cases = [
        ("2+3*4", 14.0),
        ("2*3+4", 10.0),
        ("6/3/2", 1.0),  # left associative
        ("2-3-4", -5.0),
        ("2^3^2", 512.0),  # right associative exponent
        ("-2^2", -4.0),  # unary minus binds below ^
        ("(-2)^2", 4.0),
        ("2^-1", 0.5),
        ("-x1 + 1", 0.5),
    ]
    for src, expected in cases:
        assert evaluate(parse(src, XU), {"x1": 0.5}) == expected, src


def test_exponent_must_be_constant():
    with pytest.raises(ExprSyntaxError):
        parse("x1^u1", XU)
    # constant subexpressions fold fine
    assert evaluate(parse("x1^(1+1)", XU), {"x1": 3.0}) == 9.0


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + * 2", XU)
    assert err.value.pos == 5
    with pytest.raises(ExprSyntaxError):
        parse("", XU)
    with pytest.raises(ExprSyntaxError):
        parse("(x1", XU)
    with pytest.raises(ExprSyntaxError):
        parse("x1 $ 2", XU)


# each source with its fully parenthesized form: precedence and associativity decide the tree
PARENTHESIZED_SOURCES = [
    ("(x1*u2 - x2*u1)/2", "((x1*u2) - (x2*u1))/2"),
    ("0.5*(u1^2+u2^2)", "0.5*((u1^2)+(u2^2))"),
    ("sin(x1)^2 + cos(x1)^2", "(sin(x1)^2) + (cos(x1)^2)"),
    ("-x1 - -x2", "(-x1) - (-x2)"),
    ("x1 - (x2 - x3)", "(x1) - ((x2) - (x3))"),
    ("x1/x2/x3", "(x1/x2)/x3"),
    ("exp(-x1^2)", "exp(-(x1^2))"),
    ("sqrt(x1 + 2)*cos(u1)", "(sqrt(x1 + 2))*(cos(u1))"),
    ("2^-2 + x1^(-3)", "(2^(-2)) + (x1^(-3))"),
    ("-(x1 + u1)*x2", "(-(x1 + u1))*x2"),
]


@pytest.mark.parametrize("src, parenthesized", PARENTHESIZED_SOURCES)
def test_a_source_parses_to_the_tree_of_its_fully_parenthesized_form(src, parenthesized):
    assert parse(src, XU).ast == parse(parenthesized, XU).ast


def test_random_sources_parse_to_the_trees_they_were_written_from():
    """Random sources written together with their trees (binary operations parenthesized, negation, sin and cos,
    integer powers): each parses to its tree."""
    rng = np.random.default_rng(13)
    variables = sorted(XU)

    def random_node(depth):
        pick = rng.integers(0, 6 if depth < 4 else 2)
        if pick == 0:
            text = f"{rng.uniform(0.1, 3.0):.3f}"
            return text, Constant(float(text))
        if pick == 1:
            name = variables[rng.integers(0, len(variables))]
            return name, Variable(name)
        if pick == 2:
            (left, a), op, (right, b) = random_node(depth + 1), "+-*"[rng.integers(0, 3)], random_node(depth + 1)
            return f"({left} {op} {right})", Binary(op, a, b)
        if pick == 3:
            text, a = random_node(depth + 1)
            return f"-{text}", Unary("neg", a)
        if pick == 4:
            fn, (text, a) = "sin" if rng.integers(0, 2) else "cos", random_node(depth + 1)
            return f"{fn}({text})", Unary(fn, a)
        exponent, (text, a) = int(rng.integers(1, 4)), random_node(depth + 1)
        return f"({text})^{exponent}", Binary("^", a, Constant(float(exponent)))

    for _ in range(60):
        src, tree = random_node(0)
        assert parse(src, XU).ast == tree, src


def test_referential_transparency():
    e = parse("sin(x1)*exp(u1) - x2^3/7", XU)
    bindings = {"x1": 0.311, "x2": -2.0, "u1": 1.25}
    values = {evaluate(e, dict(bindings)) for _ in range(5)}
    assert len(values) == 1


# ---------------------------------------------------------------- derivatives and compilation

VARS = ["x1", "x2", "u1"]
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _grammar(safe: bool):
    """Source strings over x1, x2, u1.  ``safe`` keeps every operation smooth near the sample box."""
    leaves = st.sampled_from(VARS) | st.sampled_from(["0.5", "1.25", "2", "3.0"])

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        power = st.tuples(inner, st.sampled_from(["2", "3", "-1"])).map(lambda t: f"(1.5 + ({t[0]})^2)^{t[1]}")
        trig = st.tuples(st.sampled_from(["sin", "cos"]), inner).map(lambda t: f"{t[0]}({t[1]})")
        parts = [binary, power, trig, inner.map(lambda a: f"-{a}"),
                 inner.map(lambda a: f"exp(sin({a}))"),
                 inner.map(lambda a: f"sqrt(2 + cos({a}))"),
                 st.tuples(inner, inner).map(lambda t: f"{t[0]} / (1 + ({t[1]})^2)"),
                 inner.map(lambda a: f"(1 + ({a})^2)^0.5")]
        if not safe:
            parts += [st.tuples(inner, inner).map(lambda t: f"({t[0]} / {t[1]})"),
                      inner.map(lambda a: f"sqrt({a})"), inner.map(lambda a: f"exp({a})"),
                      st.tuples(inner, st.sampled_from(["0.5", "-2", "1.5"])).map(lambda t: f"({t[0]})^{t[1]}")]
        return st.one_of(parts)

    return st.recursive(leaves, extend, max_leaves=8)


POINTS = st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=3, max_size=3)


def _compiled(node):
    (fn,) = compile_tables([(np.array(node, dtype=object), [VARS])])
    return lambda v: fn(np.asarray(v, dtype=float))


def _central(fn, v, k, scale, h=1e-4):
    """Fourth-order central difference of fn along coordinate k.

    The step is halved until two successive estimates agree within the
    tolerance of ``_close`` at ``scale``; a derivative whose estimates never
    settle fails the test instead of being compared at a step too coarse
    for it.
    """
    def estimate(h):
        def at(s):
            w = np.array(v, dtype=float)
            w[k] += s * h
            return fn(w)
        return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)

    previous = estimate(h)
    for _ in range(12):
        h /= 2.0
        current = estimate(h)
        if abs(current - previous) <= _tolerance(scale):
            return current
        previous = current
    pytest.fail(f"central differences along coordinate {k} did not settle down to h = {h:g}")


def _tolerance(scale):
    return 1e-6 * (1.0 + scale)


def _close(a, b, scale):
    assert abs(a - b) <= _tolerance(scale), (a, b)


@PROPERTY
@given(_grammar(safe=True), POINTS)
# d/dx1 is 1260.79 here, and the difference at h = 1e-4 read 1812.73; smaller steps converge
@example("(1 + (exp(sin((1.5 + ((1.5 + (x1)^2)^2)^2)^2)))^2)^0.5", [1.0, 0.0, 0.0])
def test_derivatives_match_central_differences(src, point):
    tree = parse(src, VARS).ast
    f = _compiled(tree)
    scale = max(abs(f(np.array(point) + d)) for d in np.linspace(-0.01, 0.01, 5))
    for k, var in enumerate(VARS):
        first = differentiate(tree, var)
        df = _compiled(first)
        bound = scale + abs(df(point))
        _close(df(point), _central(f, point, k, bound), bound)
        for j, var2 in enumerate(VARS):
            d2f = _compiled(differentiate(first, var2))(point)
            _close(d2f, _central(df, point, j, bound + abs(d2f)), bound + abs(d2f))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_grammar(safe=True), POINTS)
def test_derivatives_match_sympy(src, point):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(VARS)
    reference = sympy.sympify(src.replace("^", "**"), locals=dict(zip(VARS, symbols)))
    tree = parse(src, VARS).ast
    bindings = dict(zip(VARS, point))
    subs = dict(zip(symbols, point))
    for var, sym in zip(VARS, symbols):
        exact = float(sympy.diff(reference, sym).evalf(subs=subs))
        ours = evaluate_tree(differentiate(tree, var), bindings)
        assert abs(ours - exact) <= 1e-10 * (1.0 + abs(exact)), (src, var)
        for var2, sym2 in zip(VARS, symbols):
            exact2 = float(sympy.diff(reference, sym, sym2).evalf(subs=subs))
            ours2 = evaluate_tree(differentiate(differentiate(tree, var), var2), bindings)
            assert abs(ours2 - exact2) <= 1e-9 * (1.0 + abs(exact2)), (src, var, var2)
    # the compiled control Hessian of H = p1 src + p2 x2 u1^2 - u1 src, the README file's d2H_du2 for this src
    data = {"n": 2, "r": 1, "dynamics": [src, "x2 * u1^2"], "lagrangian": f"u1 * ({src})"}
    x1, x2, u1 = symbols
    p = np.array([0.7, -1.3])
    h = p[0] * reference + p[1] * x2 * u1**2 - u1 * reference
    exact = float(sympy.diff(h, u1, u1).evalf(subs=subs))
    ours = load_problem(data, "sympy", "test")[0].jacobians.d2H_du2(np.array(point[:2]), p, np.array(point[2:]))
    assert abs(ours[0, 0] - exact) <= 1e-9 * (1.0 + abs(exact)), src


def evaluate_tree(node, bindings):
    return evaluate(Expression(node, frozenset(VARS)), bindings)


def _outcome(fn):
    try:
        return float.hex(float(fn()))
    except ExprEvaluationError as exc:
        return f"error: {exc}"


@PROPERTY
@given(_grammar(safe=False), st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                      min_size=3, max_size=3))
# ^2 is a product: inf on both paths, where 1e200**2.0 would raise OverflowError
@example("1e200^2", [0.0, 0.0, 0.0])
@example("(1e200*x1)^2", [1.0, 0.0, 0.0])
def test_compiled_matches_tree_walker_bit_for_bit(src, point):
    tree = parse(src, VARS).ast
    trees = [tree] + [differentiate(tree, var) for var in VARS]
    fns = compile_tables([(np.array(t, dtype=object), [VARS]) for t in trees])
    bindings = dict(zip(VARS, point))
    # one member is a stack of leading shape (): run as the solvers run it, as an overflow to inf warns on any stack
    with np.errstate(over="ignore", invalid="ignore"):
        for t, fn in zip(trees, fns):
            expected = _outcome(lambda: evaluate_tree(t, bindings))
            assert _outcome(lambda: fn(np.array(point))) == expected, src
        # a vector table computes each entry exactly as the scalar one does
        (vector,) = compile_tables([(np.array(trees, dtype=object), [VARS])])
        try:
            values = vector(np.array(point))
        except ExprEvaluationError:
            return
        assert [float.hex(float(v)) for v in values] == [_outcome(lambda: fn(np.array(point))) for fn in fns]


@PROPERTY
@given(_grammar(safe=False), st.lists(st.lists(st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                               min_size=3, max_size=3), min_size=1, max_size=5))
# a guarded table (exp) whose only floating-point event, an overflow to inf, does not raise in evaluate
@example("exp(x1) * 1e308", [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
def test_stacked_compiled_tables_equal_the_tree_walker_row_by_row(src, rows):
    """Arguments (N, k) give one value per member, each bit for bit what evaluate gives on that member's bindings."""
    tree = parse(src, VARS).ast
    trees = [tree] + [differentiate(tree, var) for var in VARS]
    split = [VARS[:2], VARS[2:]]
    scalar, vector = compile_tables([(np.array(tree, dtype=object), split), (np.array(trees, dtype=object), split)])
    x, u = np.array(rows)[:, :2], np.array(rows)[:, 2:]
    expected = [[_outcome(lambda: evaluate_tree(t, dict(zip(VARS, row)))) for t in trees] for row in rows]
    failed = [value for row in expected for value in row if value.startswith("error")]
    if failed:  # the first failing member's first failing entry, with its source offset
        with pytest.raises(ExprEvaluationError) as err:
            vector(x, u)
        assert f"error: {err.value}" == failed[0]
        return
    values = vector(x, u)
    assert values.shape == (len(rows), len(trees))
    assert [[float.hex(float(v)) for v in row] for row in values] == expected
    assert [float.hex(float(v)) for v in scalar(x, u)] == [row[0] for row in expected]
    assert np.array_equal(vector(x[:, None], u[:, None]), values[:, None])  # any leading member axes


@PROPERTY
@given(st.lists(_grammar(safe=True), min_size=3, max_size=3),
       st.lists(st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=5, max_size=5), min_size=1, max_size=3))
def test_compiled_gradient_of_h_is_the_contraction_of_the_blocks(sources, rows):
    """dH = (dH/du, dH/dx, f) and d2H_du2, compiled from the tree of H = p1 f1 + p2 f2 - L, against p paired
    with the compiled derivative tables of f and L: a few ulp of the terms apart (a sum may round in another
    order); the f entries of dH are the dynamics, bit for bit."""
    problem, _ = load_problem({"n": 2, "r": 1, "dynamics": sources[:2], "lagrangian": sources[2]}, "random", "test")
    jac = problem.jacobians
    x, p, u = (np.array(rows)[:, i] for i in (slice(0, 2), slice(2, 4), slice(4, 5)))
    dH, d2H_du2 = jac.dH(x, p, u), jac.d2H_du2(x, p, u)
    assert dH.shape == (len(rows), 5) and d2H_du2.shape == (len(rows), 1, 1)
    f, lagrangian = (np.array([parse(src, VARS).ast for src in group], dtype=object) for group in (sources[:2],
                                                                                                   sources[2:]))
    d_u, l_u = derivative_table(f, ["u1"]), derivative_table(lagrangian, ["u1"])[0]
    tables = [d_u, l_u, derivative_table(f, ["x1", "x2"]), derivative_table(lagrangian, ["x1", "x2"])[0],
              derivative_table(d_u, ["u1"])[..., 0], derivative_table(l_u, ["u1"])[..., 0]]
    blocks = [fn(x, u) for fn in compile_tables([(table, [VARS[:2], VARS[2:]]) for table in tables])]
    for d_f, cost, got in zip(blocks[::2], blocks[1::2], (dH[:, :1], dH[:, 1:3], d2H_du2[..., 0])):
        paired = (p[:, None, :] @ d_f)[:, 0, :] - cost
        scale = (np.abs(p)[:, None, :] @ np.abs(d_f))[:, 0, :] + np.abs(cost)
        assert np.all(np.abs(got - paired) <= 4 * np.finfo(float).eps * scale), sources
    assert np.array_equal(dH[:, 3:], problem.dynamics(x, u))


def _positions(node):
    out = {node.pos}
    if isinstance(node, Unary):
        out |= _positions(node.operand)
    if isinstance(node, Binary):
        out |= _positions(node.left) | _positions(node.right)
    return out


@PROPERTY
@given(_grammar(safe=False))
def test_derivative_nodes_keep_source_offsets(src):
    tree = parse(src, VARS).ast
    for var in VARS:
        assert _positions(differentiate(tree, var)) <= _positions(tree)


def test_derivative_folds_constants():
    tree = parse("0.5*(u1^2 + x2^2)", VARS).ast
    assert differentiate(tree, "x1") == Constant(0.0)
    assert differentiate(differentiate(tree, "u1"), "u1") == Constant(1.0)
    assert differentiate(parse("x1*u1", VARS).ast, "u1") == Variable("x1")
    assert differentiate(parse("(x1*u1 - x2)/2", VARS).ast, "u1") == Binary("/", Variable("x1"), Constant(2.0))
    # nested constant factors fold, and a sign moves into a constant factor
    assert differentiate(tree, "u1") == Variable("u1")
    assert differentiate(parse("(x1*u1 - x2*u1)/2", VARS).ast, "x2") == Binary("/", Variable("u1"), Constant(-2.0))


def test_derivative_table_shapes():
    table = np.array([parse(s, VARS).ast for s in ("x1*u1", "u1^2")], dtype=object)
    d2 = derivative_table(derivative_table(table, ["u1"]), ["u1"])
    assert d2.shape == (2, 1, 1)
    assert derivative_table(table, []).shape == (2, 0)
    fn, empty = compile_tables([(d2, [VARS]), (derivative_table(table, []), [VARS])])
    assert fn(np.zeros(3)).tolist() == [[[0.0]], [[2.0]]]
    assert empty(np.zeros(3)).shape == (2, 0)


def test_undefined_derivative_raises_with_offset():
    src = "x2 + sqrt(x1)"
    tree = parse(src, VARS).ast
    d = differentiate(tree, "x1")
    with pytest.raises(ExprEvaluationError) as err:
        evaluate_tree(d, {"x1": 0.0, "x2": 1.0, "u1": 0.0})
    assert err.value.pos == src.index("sqrt")
    (fn,) = compile_tables([(np.array(d, dtype=object), [VARS])])
    with pytest.raises(ExprEvaluationError) as err:
        fn(np.array([0.0, 1.0, 0.0]))
    assert err.value.pos == src.index("sqrt")
    # a negative power of zero in the derivative of a fractional power
    src = "x1^0.5"
    (fn,) = compile_tables([(np.array(differentiate(parse(src, VARS).ast, "x1"), dtype=object), [VARS])])
    with pytest.raises(ExprEvaluationError) as err:
        fn(np.zeros(3))
    assert err.value.pos == src.index("^")


def test_fractional_power_of_negative_value():
    src = "(u1 - 1)^0.5"
    e = parse(src, VARS)
    with pytest.raises(ExprEvaluationError) as err:
        evaluate(e, {"u1": 0.0})
    assert err.value.pos == src.index("^")
    assert "fractional power" in str(err.value)
    (fn,) = compile_tables([(np.array(e.ast, dtype=object), [VARS])])
    with pytest.raises(ExprEvaluationError) as err:
        fn(np.zeros(3))
    assert err.value.pos == src.index("^")
    assert fn(np.array([0.0, 0.0, 5.0])) == 2.0


GUARDED_FILE = {"n": 2, "r": 1,
                "dynamics": ["sin(x1) * u1 + sqrt(2 + cos(x2))", "exp(x2 / (3 + x1^2)) - u1^3 / (1 + x1^2)"],
                "lagrangian": "0.5*u1^2 + 0.1*x1^3"}


def _compiled_callables(data):
    """Every function ``load_problem`` compiles from ``data``, and the bracket tables of the reduced view, with the
    widths of their arguments."""
    problem, reduced = load_problem(data, "file", "test")
    n, r = problem.n, problem.r
    jac = problem.jacobians
    found = [(fn, (n, r)) for fn in (problem.dynamics, problem.lagrangian)]
    found += [(fn, (n, n, r)) for fn in (jac.dH, jac.d2H_du2)]
    if problem.symmetry is not None:
        found.append((problem.symmetry.generators, (n,)))
    if reduced is not None:
        s, k = reduced.base_dim, reduced.base_dim + reduced.algebra.dim
        rj = reduced.jacobians
        found += [(fn, (s, r)) for fn in (reduced.base_dynamics, reduced.fiber_dynamics, reduced.lagrangian)]
        found += [(fn, (s, k, r)) for fn in (rj.dH, rj.d2H_du2)]
        found += [(reduced.view.form, (s, k)), (reduced.view.bracket, (s, k, k))]
    return found


@pytest.mark.parametrize("data", [HEISENBERG_FILE, GUARDED_FILE], ids=["readme", "guarded"])
def test_one_member_is_bit_for_bit_the_same_member_of_any_stack(data):
    """One-member stacks (leading shape () or (1,)) against stacks (8,) and (2, 4): every compiled function of the
    README file and of a guarded file gives a member the same bits alone as in a stack."""
    rng = np.random.default_rng(3)
    for fn, widths in _compiled_callables(data):
        stack = [rng.uniform(-1.5, 1.5, size=(8, w)) for w in widths]
        values = np.asarray(fn(*stack))
        grid = np.asarray(fn(*(a.reshape(2, 4, a.shape[-1]) for a in stack)))
        assert np.array_equal(grid, values.reshape((2, 4) + values.shape[1:]))
        for i in range(8):
            alone = fn(*(a[i] for a in stack))
            assert np.shape(alone) == values.shape[1:] and np.array_equal(alone, values[i])
            assert np.array_equal(fn(*(a[i : i + 1] for a in stack)), values[i : i + 1])


def test_one_member_raises_the_walkers_error_with_its_offset():
    data = {"n": 2, "r": 1, "dynamics": ["u1 / x2", "sqrt(x1) + u1"], "lagrangian": "0.5*u1^2"}
    problem, _ = load_problem(data, "file", "test")
    bindings = {"x1": -1.0, "x2": 0.0, "u1": 1.0}
    with pytest.raises(ExprEvaluationError) as walker:
        evaluate(parse(data["dynamics"][0], list(bindings)), bindings)
    x, u = np.array([-1.0, 0.0]), np.array([1.0])
    for args in ((x, u), (x[None], u[None]), (np.vstack([x, x + 1]), np.vstack([u, u]))):
        with pytest.raises(ExprEvaluationError) as compiled:
            problem.dynamics(*args)
        assert str(compiled.value) == str(walker.value) and compiled.value.pos == walker.value.pos == 3
    with pytest.raises(ExprEvaluationError, match="sqrt of negative value") as err:
        problem.dynamics(np.array([[-1.0, 1.0]]), np.array([[1.0]]))
    assert err.value.pos == data["dynamics"][1].index("sqrt")
    # an overflow in math.exp is the walker's error too, alone and in a stack
    overflowing = load_problem({"n": 1, "r": 0, "dynamics": ["exp(x1)"], "lagrangian": "0"}, "f", "t")[0]
    for x in (np.array([1000.0]), np.array([[0.0], [1000.0]])):
        with pytest.raises(ExprEvaluationError, match="exp failed"):
            overflowing.dynamics(x, np.zeros(x.shape[:-1] + (0,)))


def test_every_call_of_a_guarded_table_enters_np_errstate_once(monkeypatch):
    """A guarded table (here dH of a Lagrangian dividing by a variable) runs under ``np.errstate(all="raise")``,
    entered once per call: by a stack and by one member of leading shape () or (1,), which give the same bits."""
    entered, errstate = [], np.errstate

    @contextlib.contextmanager
    def counted(**kwargs):
        entered.append(kwargs)
        with errstate(**kwargs):
            yield

    monkeypatch.setattr(np, "errstate", counted)
    data = {"n": 1, "r": 1, "dynamics": ["u1"], "lagrangian": "0.5*u1^2 + x1/(2+x1^2)*u1"}
    dH = load_problem(data, "file", "test")[0].jacobians.dH
    rows = np.array([[0.3], [-1.2], [2.0]]), np.array([[1.0], [0.5], [-2.0]]), np.array([[0.2], [-0.4], [0.7]])
    stack = dH(*rows)
    assert entered == [{"all": "raise"}]
    entered.clear()
    for i in range(3):
        assert np.array_equal(dH(*(a[i] for a in rows)), stack[i])
        assert np.array_equal(dH(*(a[i : i + 1] for a in rows)), stack[i : i + 1])
    assert entered == [{"all": "raise"}] * 6


def counted_compiles(monkeypatch):
    """Lists that record, from now on, each ``compile()`` of ``expr`` and the table count of each ``compile_tables``."""
    from pontrylie import expr

    compiles, tables = [], []
    monkeypatch.setattr(expr, "compile", lambda *args: compiles.append(args[1]) or compile(*args), raising=False)
    compile_all = expr.compile_tables
    monkeypatch.setattr(expr, "compile_tables", lambda given: tables.append(len(given)) or compile_all(given))
    return compiles, tables


def test_a_problem_file_compiles_in_one_compile(monkeypatch):
    """All tables of the README file go through one ``compile()``: f, L, dH, d2H_du2 and the generators, then the
    reduced base, fiber, l, dH and d2H_du2."""
    compiles, tables = counted_compiles(monkeypatch)
    load_problem(HEISENBERG_FILE, "heisenberg", "test")
    assert compiles == ["<pontrylie.expr>"] and tables == [10]


def test_the_reduced_view_compiles_its_bracket_once(monkeypatch):
    """Building the README file's reduced view makes one more ``compile()``, of its algebra's B(mu) and
    -B(mu) xi; the held view makes none."""
    _, reduced = load_problem(HEISENBERG_FILE, "heisenberg", "test")
    compiles, tables = counted_compiles(monkeypatch)
    assert reduced.view is reduced.view
    assert compiles == ["<pontrylie.expr>"] and tables == [2]


def test_a_full_dirac_scan_compiles_no_lie_poisson_table(monkeypatch):
    """Loading the README file, integrating its full problem and scanning the rows never compiles B(mu)."""
    from pontrylie import expr
    from pontrylie.pmp import dirac_membership_residuals, integrate_pmp

    def refused(c, s, base_structure):
        raise AssertionError("a Lie-Poisson table was compiled")

    monkeypatch.setattr(expr, "_lie_poisson_tables", refused)
    problem, _ = load_problem(HEISENBERG_FILE, "heisenberg", "test")
    trajectory = integrate_pmp(problem, np.zeros(3), np.array([1.0, 0.0, 1.0]), 0.01)
    assert dirac_membership_residuals(problem, trajectory).max() <= 1e-12


def test_a_zero_width_argument_binds_only_the_other_arguments():
    """The builtin's reduced base has width 0: at leading shape (1,) or () the functions bind the columns of the
    other arguments and give the values of that member."""
    _, reduced = load_problem(HEISENBERG_FILE, "heisenberg", "test")
    z, mu, u = np.zeros((1, 0)), np.array([[0.3, -0.7, 1.1]]), np.array([[0.2, 0.5]])
    dH = reduced.jacobians.dH(z, mu, u)
    assert dH.shape == (1, 5) and dH.tolist() == [[0.3 - 0.2, -0.7 - 0.5, 0.2, 0.5, 0.0]]
    assert np.array_equal(reduced.jacobians.dH(z[0], mu[0], u[0]), dH[0])
    assert reduced.lagrangian(z, u).shape == (1,) and np.shape(reduced.lagrangian(z[0], u[0])) == ()
    assert reduced.lagrangian(z[0], u[0]) == reduced.lagrangian(z, u)[0] == 0.5 * (0.2 * 0.2 + 0.5 * 0.5)
    stack = reduced.jacobians.dH(np.zeros((3, 0)), np.repeat(mu, 3, axis=0), np.repeat(u, 3, axis=0))
    assert np.array_equal(stack, np.repeat(dH, 3, axis=0))


STEP_ENTRIES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e200, -1e200,
                                1.7976931348623157e308]) | st.floats(allow_nan=False, allow_infinity=False)


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.lists(st.tuples(st.integers(0, r - 1), STEP_ENTRIES, st.lists(st.booleans(), min_size=r, max_size=r)),
             min_size=r, max_size=r),
    st.lists(st.lists(STEP_ENTRIES, min_size=r, max_size=r), min_size=1, max_size=5))))
def test_the_emitted_newton_step_is_the_stacks_matmul_bit_for_bit(case):
    """Where no row of W^-1 has two nonzero entries, the float stage's step (``_newton_step``) is a fold whose
    value is, bit for bit, that member's entry of the stack's ``w_inverse @ g`` (``ocp._newton``'s step), with
    signed zeros in W^-1 and g, subnormals and products that overflow."""
    rows, members = case
    r = len(rows)
    w_inverse = np.array([[value if j == column else -0.0 if negative else 0.0 for j, negative in enumerate(signs)]
                          for column, value, signs in rows])
    step = _newton_step(w_inverse, [f"g{j}" for j in range(r)])
    assert "dot" not in step
    g = np.array(members)
    with np.errstate(over="ignore"):
        stack = (w_inverse @ g[..., None])[..., 0]
    for values, expected in zip(members, stack):
        folded = eval(step, {f"g{j}": value for j, value in enumerate(values)})
        assert np.array(folded).tobytes() == expected.tobytes()
