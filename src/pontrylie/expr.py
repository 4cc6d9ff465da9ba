"""Small arithmetic expression language for dynamics and Lagrangians in problem files.

Grammar (recursive descent, ~10 productions):

    expression := term (('+' | '-') term)*
    term       := unary (('*' | '/') unary)*
    unary      := '-' unary | power
    power      := atom ('^' power)?          # right associative
    atom       := NUMBER | IDENT | FUNC '(' expression ')' | '(' expression ')'

Precedence: ^  >  unary -  >  * /  >  + -.  The exponent of ^ must fold to a
constant (it is constant-folded at parse time; a non-constant exponent is a
syntax error).  Identifiers must come from the declared variable set.

``x^2`` is the product ``x*x``.  Trees are differentiated symbolically
(``differentiate``, which folds constants and nested constant factors) and
compiled once into functions of stacked vector arguments
(``compile_tables``) that repeat the tree walker's float operations in the
same order, on NumPy columns over the member axis of any stack, one
member's included; the generated one-member RK4 sweep (``float_stage``)
inlines the same lines on Python floats.  ``evaluate`` remains the
reference semantics and produces the error messages.  ``load_problem``
compiles a problem file's JSON data, in one ``compile()``, into a control
problem and its reduced form; the Heisenberg builtin is such a file.  It
differentiates the Pontryagin Hamiltonian H = <p, f> - L (and the reduced
h), assembling its gradient from the derivative trees of f and L, and
compiles it into the two stacked functions of (state, costate, control)
that are the problem's derivatives: ``dH`` = (dH/du, dH/dstate, f) and
``d2H_du2``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from itertools import islice, product
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConvergenceError, EvaluationError, ExprEvaluationError, PontrylieError, SolverError
from .lie import _nonnegative_int, _sparse_entries, algebra_from_dict
from .ocp import ControlProblem, ProblemJacobians, SymmetryHandle, _hamiltonian_value, constant, stacked
from .reduction import ReducedProblem

FUNCTIONS = ("sin", "cos", "exp", "sqrt")


class ExprSyntaxError(PontrylieError, ValueError):
    """Malformed source text; carries the byte offset of the failure."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class UndeclaredVariableError(ExprSyntaxError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"undeclared variable '{name}'", pos)
        self.name = name


@dataclass(frozen=True)
class Constant:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Variable:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a FUNCTIONS name
    operand: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


Node = Union[Constant, Variable, Unary, Binary]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(src: str):
    tokens = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            stripped = src[i:].lstrip()
            if not stripped:
                break
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", len(src) - len(stripped))
        if m.group("number") is not None:
            tokens.append(("number", m.group("number"), m.start("number")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        i = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, declared: FrozenSet[str]):
        self.src = src
        self.declared = declared
        self.tokens = _tokenize(src)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expression()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return node

    def expression(self) -> Node:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.term(), pos)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary(), pos)
            else:
                return node

    def unary(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary(), pos)
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.exponent()
            return Binary("^", node, exponent, pos)
        return node

    def exponent(self) -> Node:
        # right associative; a leading '-' is folded into the constant
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            inner = self.exponent()
            return Constant(-inner.value, pos)
        node = self.power()
        folded = _fold_constant(node)
        if folded is None:
            raise ExprSyntaxError("exponent must be a constant", pos)
        return folded

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "number":
            return Constant(float(text), pos)
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expression()
                self.expect_op(")")
                return Unary(text, arg, pos)
            if text not in self.declared:
                raise UndeclaredVariableError(text, pos)
            return Variable(text, pos)
        if kind == "op" and text == "(":
            node = self.expression()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected token {text!r}" if text else "unexpected end of input", pos)


def _fold_constant(node: Node) -> Optional[Constant]:
    """Fold a constant-only subtree to a Constant; None if it contains variables."""
    if isinstance(node, Constant):
        return node
    if isinstance(node, Unary) and node.op == "neg":
        inner = _fold_constant(node.operand)
        return None if inner is None else Constant(-inner.value, node.pos)
    if isinstance(node, Binary):
        left = _fold_constant(node.left)
        right = _fold_constant(node.right)
        if left is None or right is None:
            return None
        return Constant(_apply_binary(node.op, left.value, right.value, node.pos), node.pos)
    return None


def _apply_binary(op: str, a: float, b: float, pos: int) -> float:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0.0:
            raise ExprEvaluationError("division by zero", pos)
        return a / b
    if op == "^":
        if b == 2.0:
            return a * a  # a product never raises; a**2.0 raises OverflowError
        try:
            value = a**b
        except (OverflowError, ZeroDivisionError) as exc:
            raise ExprEvaluationError(f"power failed: {exc}", pos) from None
        if isinstance(value, complex):
            raise ExprEvaluationError(f"power failed: negative base {a!r} to the fractional power {b!r}", pos)
        return value
    raise ExprSyntaxError(f"unknown operator {op!r}", pos)


def _apply_unary(op: str, v: float, pos: int) -> float:
    if op == "neg":
        return -v
    if op == "sqrt" and v < 0.0:
        raise ExprEvaluationError(f"sqrt of negative value {v!r}", pos)
    if op not in FUNCTIONS:
        raise ExprSyntaxError(f"unknown function {op!r}", pos)
    try:
        return getattr(math, op)(v)
    except (OverflowError, ValueError) as exc:
        raise ExprEvaluationError(f"{op} failed: {exc}", pos) from None


@dataclass(frozen=True)
class Expression:
    """A parsed expression together with its declared variable set."""

    ast: Node
    variables: FrozenSet[str]
    source: str = field(default="", compare=False)

    def __call__(self, bindings: Mapping[str, float]) -> float:
        return evaluate(self, bindings)


def parse(src: str, declared_vars) -> Expression:
    """Parse ``src`` against a set of declared variable names."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0)
    declared = frozenset(declared_vars)
    node = _Parser(src, declared).parse()
    return Expression(ast=node, variables=declared, source=src)


def evaluate(expression: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate with all variables bound; IEEE double semantics."""
    return _eval_node(expression.ast, bindings)


def _eval_node(node: Node, bindings: Mapping[str, float]) -> float:
    if isinstance(node, Constant):
        return node.value
    if isinstance(node, Variable):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise ExprEvaluationError(f"unbound variable '{node.name}'", node.pos) from None
    if isinstance(node, Unary):
        return _apply_unary(node.op, _eval_node(node.operand, bindings), node.pos)
    return _apply_binary(node.op, _eval_node(node.left, bindings), _eval_node(node.right, bindings), node.pos)


# ---------------------------------------------------------------- differentiation


def _is_constant(node: Node, value: float) -> bool:
    return isinstance(node, Constant) and node.value == value


def _unary(op: str, operand: Node, pos: int) -> Node:
    """``op(operand)``, folded when the operand is a constant."""
    if isinstance(operand, Constant):
        try:
            return Constant(_apply_unary(op, operand.value, pos), pos)
        except ExprEvaluationError:
            pass  # leave the failure to evaluation time
    if op == "neg" and isinstance(operand, Unary) and operand.op == "neg":
        return operand.operand
    return Unary(op, operand, pos)


def _binary(op: str, left: Node, right: Node, pos: int) -> Node:
    """``left op right``, folding constants and the identities of 0 and 1."""
    if not isinstance(left, Constant) and not isinstance(right, Constant):
        return Binary(op, left, right, pos)  # every rule below needs a constant operand
    if isinstance(left, Constant) and isinstance(right, Constant):
        try:
            return Constant(_apply_binary(op, left.value, right.value, pos), pos)
        except ExprEvaluationError:
            pass  # leave the failure to evaluation time
    if op == "+":
        if _is_constant(left, 0.0):
            return right
        if _is_constant(right, 0.0):
            return left
    elif op == "-":
        if _is_constant(right, 0.0):
            return left
        if _is_constant(left, 0.0):
            return _unary("neg", right, pos)
    elif op == "*":
        if _is_constant(left, 0.0) or _is_constant(right, 0.0):
            return Constant(0.0, pos)
        if _is_constant(left, 1.0):
            return right
        if _is_constant(right, 1.0):
            return left
        # nested constant factors fold: 0.5*(2*u1) is u1
        for factor, other in ((left, right), (right, left)):
            if isinstance(factor, Constant) and isinstance(other, Binary) and other.op == "*":
                for inner, rest in ((other.left, other.right), (other.right, other.left)):
                    if isinstance(inner, Constant) and math.isfinite(factor.value * inner.value):
                        return _binary("*", Constant(factor.value * inner.value, pos), rest, pos)
    if op in "*/":
        # a sign moves into a constant factor, exactly: (-x2)/2 is x2/(-2)
        if isinstance(right, Constant) and isinstance(left, Unary) and left.op == "neg":
            return _binary(op, left.operand, Constant(-right.value, pos), pos)
        if isinstance(left, Constant) and isinstance(right, Unary) and right.op == "neg":
            return _binary(op, Constant(-left.value, pos), right.operand, pos)
    if op == "/":
        if _is_constant(left, 0.0) and not _is_constant(right, 0.0):
            return Constant(0.0, pos)
        if _is_constant(right, 1.0):
            return left
    elif op == "^":
        if _is_constant(right, 0.0):
            return Constant(1.0, pos)
        if _is_constant(right, 1.0):
            return left
    return Binary(op, left, right, pos)


def differentiate(node: Node, var: str) -> Node:
    """The derivative d(node)/d(var) as a constant-folded tree.

    Every node of the result carries the ``pos`` of the source node whose
    rule produced it, so a derivative that is undefined at a point (``sqrt``
    at 0, a negative power of 0) fails at evaluation with that offset.
    """
    pos = node.pos
    if isinstance(node, Constant):
        return Constant(0.0, pos)
    if isinstance(node, Variable):
        return Constant(1.0 if node.name == var else 0.0, pos)
    if isinstance(node, Unary):
        a = node.operand
        da = differentiate(a, var)
        if node.op == "neg":
            return _unary("neg", da, pos)
        if node.op == "sin":
            outer = _unary("cos", a, pos)
        elif node.op == "cos":
            outer = _unary("neg", _unary("sin", a, pos), pos)
        elif node.op == "exp":
            outer = node
        elif node.op == "sqrt":
            return _binary("/", da, _binary("*", Constant(2.0, pos), node, pos), pos)
        else:
            raise ExprSyntaxError(f"unknown function {node.op!r}", pos)
        return _binary("*", outer, da, pos)
    a, b = node.left, node.right
    da, db = differentiate(a, var), differentiate(b, var)
    if node.op in "+-":
        return _binary(node.op, da, db, pos)
    if node.op == "*":
        return _binary("+", _binary("*", da, b, pos), _binary("*", a, db, pos), pos)
    if node.op == "/":
        if _is_constant(db, 0.0):
            return _binary("/", da, b, pos)
        numerator = _binary("-", _binary("*", da, b, pos), _binary("*", a, db, pos), pos)
        return _binary("/", numerator, _binary("*", b, b, pos), pos)
    if node.op == "^":
        if not isinstance(b, Constant):
            raise ExprSyntaxError("exponent must be a constant", b.pos)
        c = b.value
        outer = _binary("*", Constant(c, pos), _binary("^", a, Constant(c - 1.0, pos), pos), pos)
        return _binary("*", outer, da, pos)
    raise ExprSyntaxError(f"unknown operator {node.op!r}", pos)


def derivative_table(table: np.ndarray, variables: Sequence[str]) -> np.ndarray:
    """Differentiate an object array of trees; the variables index a new last axis."""
    out = np.empty(table.shape + (len(variables),), dtype=object)
    out.flat = [differentiate(node, var) for node in table.flat for var in variables]
    return out


# ---------------------------------------------------------------- compilation


def _constant_divisor(node: Binary) -> bool:
    return isinstance(node.right, Constant) and node.right.value != 0.0


class _Emitter:
    """Straight-line arithmetic for a set of trees, one temporary per distinct operation.

    The lines run alike on Python floats and on NumPy member columns.  ``names`` maps each variable
    read to its local, given or named in order of first use; ``guarded`` is set when a line can raise
    (anything but + - *, negation, division by a nonzero constant and ^2), which ``evaluate`` would turn
    into an error.
    """

    def __init__(self, names: Optional[Mapping[str, str]] = None):
        self.names = dict(names or {})
        self.lines: List[str] = []
        self.temps = {}
        self.guarded = False

    def emit(self, node: Node) -> str:
        if isinstance(node, Constant):
            value = float(node.value)
            return f"({value!r})" if math.isfinite(value) else f"_float({str(value)!r})"
        if isinstance(node, Variable):
            return self.names.setdefault(node.name, f"_v{len(self.names)}")
        if isinstance(node, Unary):
            operand = self.emit(node.operand)
            code = f"-{operand}" if node.op == "neg" else f"_{node.op}({operand})"
            self.guarded |= node.op != "neg"
        else:
            left, right = self.emit(node.left), self.emit(node.right)
            if node.op == "^":
                squared = _is_constant(node.right, 2.0)
                code = f"{left} * {left}" if squared else f"_pow({left}, {right})"
                self.guarded |= not squared
            elif node.op == "/" and not _constant_divisor(node):
                code = f"_divide({left}, {right})"
                self.guarded = True
            else:
                code = f"{left} {node.op} {right}"
        name = self.temps.get(code)
        if name is None:
            name = self.temps[code] = f"_t{len(self.temps)}"
            self.lines.append(f"{name} = {code}")
        return name


def _elementwise(fn: Callable, nin: int) -> Callable:
    """``fn`` of Python floats, called member by member on the columns of a stack (a float on the 0-d columns of a
    one-member stack of leading shape ())."""
    ufunc = np.frompyfunc(fn, nin, 1)

    def apply(*columns):
        value = ufunc(*columns)
        return value if value.__class__ is float else value.astype(float)

    return apply


def _divide(a, b):
    """``a / b`` of columns, raising wherever ``evaluate`` does: at every zero divisor, whatever the numerator."""
    if not np.all(b):
        raise ZeroDivisionError("division by zero")
    return a / b


# the names the emitted lines read, on NumPy member columns (``compile_tables``) and on Python floats
# (``float_stage``), and what their float operations and math functions raise on failure
_COLUMNS = dict(_float=float, _divide=_divide, _sqrt=np.sqrt, _pow=_elementwise(math.pow, 2),
                **{f"_{fn.__name__}": _elementwise(fn, 1) for fn in (math.sin, math.cos, math.exp)},
                _ARITHMETIC_FAILURES=(ArithmeticError, ValueError))
_FLOATS = dict(_COLUMNS, _divide=operator.truediv, _sqrt=math.sqrt, _pow=math.pow,
               **{f"_{fn.__name__}": fn for fn in (math.sin, math.cos, math.exp)})


def _packing(atoms: np.ndarray, lead: Optional[str]) -> List[str]:
    """The lines returning a table's entries ``atoms`` for every member.

    ``lead`` is a local holding an array of the leading shape, or None when no variable is read.
    """
    shape = f"{lead}.shape" if lead else "a0.shape[:-1]"
    if not atoms.ndim:
        atom = atoms[()]
        return [f"return {atom}" if lead else f"return _full({shape}, {atom})[()]"]
    zeros = "(0.0)" in atoms.flat  # +0.0 only: "(-0.0)" is written like any other entry
    lines = [f"_out = {'_zeros' if zeros else '_empty'}({shape} + {atoms.shape!r})"]
    lines += [f"_out[..., {', '.join(map(str, position))}] = {atom}"
              for position, atom in zip(product(*map(range, atoms.shape)), atoms.flat)
              if not (zeros and atom == "(0.0)")]
    return lines + ["return _out"]


def _bindings(names: Mapping, arguments: Sequence[Sequence[str]]) -> Tuple[List[str], Optional[str]]:
    """The lines binding the locals ``names`` of variables to the member columns ``a[..., i]`` of the arguments, and
    one of those locals, which has the leading shape (None when no variable is read)."""
    columns = [(names[var], f"a{k}[..., {i}]") for k, group in enumerate(arguments)
               for i, var in enumerate(group) if var in names]
    return [f"{name} = {column}" for name, column in columns], next((name for name, _ in columns), None)


def compile_tables(tables: Sequence[Tuple[np.ndarray, Sequence[Sequence[str]]]]) -> List[Callable]:
    """Compile object arrays of trees into stacked functions of vector arguments, all in one ``compile()``.

    Each table comes with its ``arguments``: the variables bound to the
    entries of each positional vector argument, covering every variable of
    the table.  The arguments are float arrays with the same leading member
    axes, (..., k); the function returns one value of the table's shape per
    member, (..., *shape) (a NumPy scalar or 0-d array for a 0-d table
    without leading axes).  The functions are marked ``ocp.stacked``; a table of constants only
    becomes an ``ocp.constant``, and a table that is one argument returns a
    copy of it.  Every function but a constant carries its (table, arguments)
    as ``table`` (``float_stage`` inlines it) and the widths of its arguments
    as ``widths`` (``ocp._sized`` checks them before a call).

    A function binds the member columns ``a[..., i]`` of its arguments and
    writes its entries column by column, for any leading shape: a one-member
    stack, of leading shape () or (1,), runs the code of any other stack.
    Each entry is computed with the float operations of ``evaluate`` in the
    same order, so every member agrees with the tree walker bit for bit:

    - a safe table (nothing in it can raise: + - *, negation, division by a
      nonzero constant, ^2) runs unguarded;
    - any other runs under ``np.errstate(all="raise")``, with ``sin``, ``cos``,
      ``exp`` and powers other than 2 computed by ``math`` member by member
      (NumPy's differ in the last bit); on any arithmetic failure
      the tree walker re-runs member by member and raises the first failing
      member's ``ExprEvaluationError`` with the source offset and the
      member's flat index as ``member``, or, when no member fails (an
      overflow to inf, an underflow), returns its values.
    """
    constants, source = {}, []
    for index, (table, arguments) in enumerate(tables):
        groups = [list(group) for group in arguments]
        if table.ndim and all(isinstance(node, Constant) for node in table.flat):
            # no arithmetic, nothing can fail (a constant control Hessian, empty tables)
            constants[index] = constant(np.array([node.value for node in table.flat], dtype=float).reshape(table.shape))
            continue
        params = ", ".join(f"a{k}" for k in range(len(arguments)))
        if table.ndim == 1 and [getattr(node, "name", None) for node in table] in groups:
            # an argument itself, such as dynamics f = u
            body = [f"return a{groups.index([node.name for node in table])}.copy()"]
        else:
            emitter = _Emitter()
            atoms = np.array([emitter.emit(node) for node in table.flat], dtype=object).reshape(table.shape)
            body, lead = _bindings(emitter.names, arguments)
            if emitter.guarded:
                body += ["try:", "    with _errstate(all='raise'):",
                         *(f"        {line}" for line in emitter.lines),
                         "except _ARITHMETIC_FAILURES:", f"    return _walk({index}, ({params},))"]
            else:
                body += emitter.lines
            body += _packing(atoms, lead)
        source += [f"def _f{index}({params}):", *(f"    {line}" for line in body)]

    def walk(index, args):
        """The tree walker on every member: the first failing member's error, naming its flat index, else the values."""
        table, arguments = tables[index]
        args = [np.asarray(a, dtype=float) for a in args]
        lead = args[0].shape[:-1]
        count = math.prod(lead)
        nodes = table.ravel()
        values = []
        for member, row in enumerate(zip(*(a.reshape(count, a.shape[-1]).tolist() for a in args))):
            bindings = {var: value for group, vector in zip(arguments, row) for var, value in zip(group, vector)}
            try:
                values.append([_eval_node(node, bindings) for node in nodes])
            except ExprEvaluationError as exc:
                exc.member = member
                raise
        return np.array(values, dtype=float).reshape(lead + table.shape)[()]

    namespace = dict(_COLUMNS, _empty=np.empty, _zeros=np.zeros, _full=np.full, _errstate=np.errstate, _walk=walk)
    exec(compile("\n".join(source), "<pontrylie.expr>", "exec"), namespace)
    functions = {index: stacked(namespace[f"_f{index}"]) for index in range(len(tables)) if index not in constants}
    for index, function in functions.items():
        function.table, function.widths = tables[index], tuple(map(len, tables[index][1]))
    return [constants[index] if index in constants else functions[index] for index in range(len(tables))]


def _inline(table: np.ndarray, arguments: Sequence[Sequence[str]], values: Sequence[str], targets: List[str],
            compiled: str) -> List[str]:
    """Lines setting the locals ``targets`` to the entries of ``table``, the variables of its ``arguments`` read in
    order from the locals ``values``; a guarded table's run in a ``try`` whose failure calls ``compiled``, the compiled
    table, on the one-member stacks (1, width) of ``values`` for its error (or its one row of values)."""
    emitter = _Emitter(dict(zip([var for group in arguments for var in group], values)))
    assign = f"{', '.join(targets)}, = "
    lines = [assign + ", ".join([emitter.emit(node) for node in table.flat]) + ","]
    if not emitter.guarded:
        return emitter.lines + lines
    rows = iter(values)
    stacks = ", ".join(f"_array([[{', '.join(islice(rows, len(group)))}]])" for group in arguments)
    return ["try:", *(f"    {line}" for line in emitter.lines + lines), "except _ARITHMETIC_FAILURES:",
            f"    {assign}{compiled}({stacks}).ravel().tolist()"]


def _newton_step(w_inverse: np.ndarray, g: Sequence[str]) -> str:
    """The entries of W^-1 g, g the locals ``g``: where no row of ``w_inverse`` has two nonzero entries, the folds
    0.0 + w_ij * g_j over each row's nonzero entry, which give the bits of the stack's ``w_inverse @ g`` (a sum
    started from +0.0 is never -0.0, so the zero terms change nothing); else the stack's ``w_inverse.dot``."""
    if (np.count_nonzero(w_inverse, axis=-1) <= 1).all():
        folds = (" + ".join(["0.0", *(f"{w!r} * {v}" for w, v in zip(row, g) if w)]) for row in w_inverse.tolist())
        return f"[{', '.join(folds)}]"
    return f"_w_inverse.dot([{', '.join(g)}]).tolist()"


def _nonfinite(*point) -> EvaluationError:
    """The error of a non-finite Hamiltonian partial of the lone member at ``point``, the lists (q, lam, u)."""
    return EvaluationError("non-finite Hamiltonian partial", point=tuple(map(np.array, point)), member=0)


def _exhausted(max_iter: int, residual: float) -> ConvergenceError:
    """The error of the lone member's Newton solve that took ``max_iter`` steps and stayed at ``residual``."""
    return ConvergenceError(f"control Newton exhausted {max_iter} iterations", residual=residual, member=0)


def float_stage(ham) -> Optional[Callable]:
    """The one-member RK4 sweep of ``pmp._rk4_dae`` for the view ``ham``, one function from one ``compile()``; None
    unless ``ham`` has compiled dH, L and bracket and a regular constant W.

    ``sweep(grid, y, u, check, located, tol, max_iter)`` is RK4 over the nodes ``grid`` from the lists y = (q, lam)
    and u of Python floats, written for the view's widths.  Each step writes out four solves, of stages 2-4 and of
    the next node (stage 1 reuses the node's), each warm started from the previous one's control: ``ocp._newton``'s
    solve with ``tol`` and ``max_iter`` (its checks, its errors, of member 0, and ``_newton_step``), then the
    finiteness check of dH (one ``isfinite`` of the sum of 0.0 * v, NaN exactly when an entry v is not finite) and
    ``ocp._hamilton_field``, each float operation the stack's, in its order.  The dH, bracket and L lines are
    inlined (``_inline``), so a member's sweep calls no compiled table unless a guarded one fails on floats; node 0's
    solve reads ``check`` on (1, width) arrays of (q, lam, u) for dH instead, and no step reads the last node's
    field, so it is not computed.  The updates ``y + c * v`` and ``y + h/6 * (k1 + 2 k2 + 2 k3 + k4)`` of the stack
    are unrolled per component, h read per step.  A node's solve is followed by L, and a fold of H = <lam, F> - L
    whose non-finite value the stacked ``ocp._hamiltonian_value`` raises.  A failing stage is
    re-raised as ``located(exc, "while stepping from", t, y)``, t the start of the step and y the stage's own state,
    a failing node as ``located(exc, "at", t, y)``.  Returns lists per node: the rows (y, u*) and the F entries of
    dH, both flat, and L, the most iterations of the step's solves and the residual.
    """
    if ham.w_inverse is None or not all(hasattr(fn, "table") for fn in {ham.dH, ham.L, ham.bracket} - {None}):
        return None
    table, arguments = ham.dH.table
    nq, k, r = map(len, arguments)
    y, s, u, n, d = ([f"_{c}{i}" for i in range(size)] for c, size in zip("ysund", (nq + k, nq + k, r, r, table.size)))
    g, dq, f = d[:r], d[r : r + nq], d[r + nq :]
    ks = [[f"_k{j}_{i}" for i in range(nq + k)] for j in range(1, 5)]

    def listed(*blocks, around="[{}]"):
        return ", ".join(around.format(", ".join(block)) for block in blocks)

    def indented(lines):
        return [f"    {line}" for line in lines]

    # max |dH/du| as the stack's np.abs(g).max(initial=0.0) on finite g, without calls: |v| is v if v > 0.0 else
    # 0.0 - v (+0.0 at -0.0, as abs), and a later entry replaces the residual only when larger, as in max()
    absolute = [f"{v} if {v} > 0.0 else 0.0 - {v}" for v in g] or ["0.0"]
    residual = [f"_residual = {absolute[0]}"]
    for a in absolute[1:]:
        residual += [f"_a = {a}", "if _a > _residual: _residual = _a"]
    newton_step = [f"[{', '.join(n)}] = {_newton_step(ham.w_inverse, g)}",
                   f"[{', '.join(u)}] = [{', '.join(f'{a} - {b}' for a, b in zip(u, n))}]"]

    def solve(state, i, targets, node=False):
        """The lines of one solve at the locals ``state`` = (q, lam) from the controls u, its iterations counted in
        ``i``, setting ``targets`` to the vector field (at a node, only before the last)."""
        point = listed(state[:nq], state[nq:], u)
        gradient = _inline(table, arguments, state + u, d, "_dH")
        if node:
            gradient = ["if _check is None:", *indented(gradient), "else:",
                        f"    {', '.join(d)}, = _check({listed(state[:nq], state[nq:], u, around='_array([[{}]])')})"
                        "[0].tolist()"]
        loop = [f"for {i} in _iterations:", *indented(gradient),
                f"    if not ({' and '.join(f'_isfinite({v})' for v in g) or 'True'}): raise _nonfinite({point})",
                *indented(residual), "    if _residual <= _tol: break",
                f"    if {i} == _max: raise _exhausted(_max, _residual)", *indented(newton_step),
                f"if not _isfinite({' + '.join(f'0.0 * {v}' for v in d)}): raise _nonfinite({point})"]
        field, y_dot = [], f + [f"-{v}" for v in dq]
        if ham.bracket is not None:  # lam_dot = -B f, less (dH/dq, 0); the dH temporaries are dead by then
            (b_table, b_arguments), b = ham.bracket.table, [f"_b{j}" for j in range(k)]
            field = _inline(b_table, b_arguments, state + f, b, "_bracket")
            y_dot = f[:nq] + [f"{a} - {v}" for a, v in zip(b, dq)] + b[nq:]
        field.append(f"{', '.join(targets)}, = {', '.join(y_dot)},")
        return loop + (["if _k < _last:", *indented(field)] if node else field)

    stages = []
    for c, warm, into, i in (("_c", *ks[:2], "_i2"), ("_c", *ks[1:3], "_i3"), ("_h", *ks[2:], "_i4")):
        stages += [f"{', '.join(s)}, = {', '.join(f'{a} + {c} * {v}' for a, v in zip(y, warm))},", *solve(s, i, into)]
    update = (f"{a} + _c * ({b1} + 2.0 * {b2} + 2.0 * {b3} + {b4})" for a, b1, b2, b3, b4 in zip(y, *ks))
    fold = " + ".join(f"{a} * {v}" for a, v in zip(y[nq:], f)) or "0.0"
    sweep = [
        "_iterations = range(_max + 1)", "_rows, _fs, _lagrangians, _most, _residuals = [], [], [], [], []",
        f"{', '.join(y)}, = y", f"[{', '.join(u)}] = _u", "_i2 = _i3 = _i4 = 0", "_last = len(grid) - 1",
        "for _k in range(_last + 1):",
        "    if _k:", "        _t = grid[_k - 1]", "        _h = grid[_k] - _t", "        _c = 0.5 * _h",
        "        try:", *(f"            {line}" for line in stages), "        except _FAILURES as _exc:",
        f"            raise _located(_exc, 'while stepping from', _t, [{', '.join(s)}]) from _exc",
        "        _c = _h / 6.0", f"        {', '.join(y)}, = {', '.join(update)},",
        "    try:", *(f"        {line}" for line in solve(y, "_i", ks[0], node=True)),
        *(f"        {line}" for line in _inline(*ham.L.table, y[:nq] + u, ["_lagrangian"], "_L")),
        f"        if not _isfinite({fold} - _lagrangian):",
        f"            _hamiltonian_value({listed(y[:nq], y[nq:], u, f, around='_array([[{}]])')}, _lagrangian)",
        "    except _FAILURES as _exc:", f"        raise _located(_exc, 'at', grid[_k], [{', '.join(y)}]) from _exc",
        "    _check = None", f"    _rows += [{', '.join(y + u)}]", f"    _fs += [{', '.join(f)}]",
        "    _lagrangians.append(_lagrangian)", "    _most.append(max(_i2, _i3, _i4, _i))",
        "    _residuals.append(_residual)",
        "return _rows, _fs, _lagrangians, _most, _residuals",
    ]
    source = ["def _sweep(grid, y, _u, _check, _located, _tol, _max):", *indented(sweep)]
    namespace = dict(_FLOATS, _array=np.array, _isfinite=math.isfinite, _dH=ham.dH, _bracket=ham.bracket,
                     _L=ham.L, _w_inverse=ham.w_inverse, _hamiltonian_value=_hamiltonian_value,
                     _nonfinite=_nonfinite, _exhausted=_exhausted,
                     _FAILURES=(SolverError, EvaluationError, ExprEvaluationError))
    exec(compile("\n".join(source), "<pontrylie.expr stage>", "exec"), namespace)
    return namespace["_sweep"]


# ---------------------------------------------------------------- problem files

_FILE_KEYS = ("n", "r", "dynamics", "lagrangian", "algebra", "action", "reduced")
_ALGEBRA_KEYS = ("dim", "structure", "matrix_basis", "labels")
_REDUCED_KEYS = ("s", "lagrangian", "base_dynamics", "fiber_dynamics", "base_structure")


def _known_keys(block, allowed: Tuple[str, ...], where: str, required: Tuple[str, ...]) -> dict:
    """``block`` itself, once it is checked to be an object with every key of ``required`` and none outside
    ``allowed``."""
    if not isinstance(block, dict):
        raise PontrylieError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - set(allowed))
    if unknown:
        raise PontrylieError(f"unknown key '{unknown[0]}' in {where}; allowed keys: {', '.join(allowed)}")
    missing = [key for key in required if key not in block]
    if missing:
        raise PontrylieError(f"{where} is missing required field '{missing[0]}'")
    return block


def _expressions(sources, count: int, field: str) -> list:
    """``sources``, checked to be a list of ``count`` expressions; else an error naming ``field``."""
    if not isinstance(sources, list) or len(sources) != count:
        raise PontrylieError(f"{field} must be a list of {count} expressions, got {sources!r}")
    return sources


def _table(sources, variables: List[str], field: str) -> np.ndarray:
    """Parse an expression string, or a (nested) list of them, into an object array of trees; a syntax error is
    prefixed with ``field`` and the entry's index in it (``dynamics[2]: ...``)."""
    table = np.array(sources, dtype=object)
    for index in np.ndindex(table.shape):
        try:
            table[index] = parse(str(table[index]), variables).ast
        except ExprSyntaxError as exc:
            exc.args = (f"{field}{''.join(f'[{i}]' for i in index)}: {exc}",)
            raise
    return table


def _pairing(variables: Sequence[str], table: np.ndarray) -> np.ndarray:
    """The trees sum_i variables_i * table[i, j], one per column j of the object array ``table``, folded term by term
    (a zero entry's term folds away, so it is skipped)."""
    entries = []
    for column in table.T:
        h = Constant(0.0)
        for var, entry in zip(variables, column):
            if not _is_constant(entry, 0.0):
                h = _binary("+", h, _binary("*", Variable(var), entry, entry.pos), entry.pos)
        entries.append(h)
    return np.array(entries, dtype=object)


def _hamiltonian_tables(dynamics: Sequence[np.ndarray], lagrangian: np.ndarray, state: List[str],
                        costate: List[str], control: List[str]) -> List[Tuple[np.ndarray, List[List[str]]]]:
    """The tables, with their arguments, of each table of ``dynamics`` and of ``lagrangian``, functions of
    (state, control); then of dH = (dH/du, dH/dstate, f) and d2H_du2 of H = sum_i costate_i * f_i -
    lagrangian (f the dynamics joined), functions of (state, costate, control).

    The gradient of H is built by linearity from the derivative trees of
    the dynamics and the Lagrangian, folded term by term: the trees
    ``differentiate`` gives for the tree of H.  d2H_du2 is the derivative
    table of the dH/du entries of dH.
    """
    d_state, d_control = [], []
    for g in (*dynamics, lagrangian):
        d_state.append(derivative_table(g, state))
        d_control.append(derivative_table(g, control))

    def gradient(d_dynamics, d_lagrangian):
        """sum_i costate_i * d_dynamics[i, j] - d_lagrangian[j] for each column j."""
        return np.array([_binary("-", h, d_l, d_l.pos) for h, d_l in zip(_pairing(costate, d_dynamics), d_lagrangian)],
                        dtype=object)

    f = np.concatenate(dynamics)
    dH_du = gradient(np.concatenate(d_control[:-1]), d_control[-1])
    dH_dx = gradient(np.concatenate(d_state[:-1]), d_state[-1])
    hamiltonian = (np.concatenate([dH_du, dH_dx, f]), derivative_table(dH_du, control))
    return ([(g, [state, control]) for g in (*dynamics, lagrangian)]
            + [(table, [state, costate, control]) for table in hamiltonian])


def _structure_functions(entries, s: int, dim: int) -> List[Tuple[int, int, int, Node]]:
    """The entries (i, j, k, value) of a ``base_structure`` (``lie._sparse_entries``), each value parsed as ``_table``
    parses an expression: the tree of C^k_ij(z), 0 <= i < j < s, 0 <= k < dim, read from z1..zs."""
    z = [f"z{m+1}" for m in range(s)]
    return _sparse_entries(entries, "base_structure", (s, s, dim), lambda value: parse(str(value), z).ast, ordered=True)


def _lie_poisson_tables(c: np.ndarray, s: int, base_structure) -> List[Tuple[np.ndarray, List[List[str]]]]:
    """The tables, with their arguments, of B(z, lam)_ab = sum_k C^k_ab(z) mu_k and of -B(z, lam) f, lam = (p_z, mu):
    C holds ``base_structure`` (C^k_ji = -C^k_ij) and the structure constants ``c`` in its base and algebra blocks.
    Each sum runs in index order, as in the matmuls of ``lie._lie_poisson_form`` and -(B @ xi)."""
    dim = len(c)
    z, lam, f = ([f"{name}{i+1}" for i in range(n)] for name, n in (("z", s), ("lam", s + dim), ("f", s + dim)))
    table = np.full((s + dim, s + dim, dim), Constant(0.0), dtype=object)
    table[s:, s:] = np.array([Constant(float(v)) for v in c.flat], dtype=object).reshape(c.shape)
    for i, j, k, node in _structure_functions(base_structure, s, dim):
        table[i, j, k], table[j, i, k] = node, _unary("neg", node, node.pos)
    form = _pairing(lam[s:], table.reshape(-1, dim).T).reshape(s + dim, s + dim)
    bracket = np.array([_unary("neg", entry, 0) for entry in _pairing(f, form.T)], dtype=object)
    return [(form, [z, lam]), (bracket, [z, lam, f])]


def load_problem(data, name: str, where: str) -> Tuple[ControlProblem, Optional[ReducedProblem]]:
    """The control problem, and its reduced form when declared, of a problem file's JSON data (see README).

    ``data`` is the dict of expressions a problem file holds, so this also
    builds a problem in Python.  Every expression is parsed and compiled
    here, and so are both derivatives of the Hamiltonian that a problem
    gives, differentiated symbolically from them (``_hamiltonian_tables``,
    costates p1..pn, or pz1..pzs and mu1..mudim for the reduced h).  All
    tables of the file go through one ``compile_tables`` call, one
    ``compile()``; the reduced problem's B(z, lam) and -B(z, lam) F are
    compiled by its view (``ReducedProblem.view``), from its structure.
    ``where`` names the data in error messages.
    """
    data = _known_keys(data, _FILE_KEYS, where, ("n", "r", "dynamics", "lagrangian"))
    n, r = (_nonnegative_int(data[key], key) for key in ("n", "r"))
    dyn_src = _expressions(data["dynamics"], n, "dynamics")
    algebra = None
    if "algebra" in data:
        algebra = algebra_from_dict(_known_keys(data["algebra"], _ALGEBRA_KEYS, "the algebra block", ("dim",)))
    x_vars = [f"x{i+1}" for i in range(n)]
    u_vars = [f"u{a+1}" for a in range(r)]
    tables = _hamiltonian_tables([_table(dyn_src, x_vars + u_vars, "dynamics")],
                                 _table(str(data["lagrangian"]), x_vars + u_vars, "lagrangian"),
                                 x_vars, [f"p{i+1}" for i in range(n)], u_vars)
    if "action" in data:
        if algebra is None:
            raise PontrylieError("an action table requires an algebra block")
        rows = data["action"]
        if not (isinstance(rows, list) and len(rows) == algebra.dim
                and all(isinstance(row, list) and len(row) == n for row in rows)):
            raise PontrylieError(f"action must be a dim x n = {algebra.dim} x {n} table of expressions, got {rows!r}")
        tables.append((_table(rows, x_vars, "action"), [x_vars]))
    if "reduced" in data:
        if algebra is None:
            raise PontrylieError("a reduced block requires an algebra block")
        block = _known_keys(data["reduced"], _REDUCED_KEYS, "the reduced block", ("lagrangian", "fiber_dynamics"))
        s = _nonnegative_int(block.get("s", 0), "reduced s")
        z_vars = [f"z{i+1}" for i in range(s)]
        base_src = _expressions(block.get("base_dynamics", []), s, "reduced base_dynamics")
        fiber_src = _expressions(block["fiber_dynamics"], algebra.dim, "reduced fiber_dynamics")
        base_table, fiber_table, lag_table = (_table(src, z_vars + u_vars, f"reduced {field}") for src, field in (
            (base_src, "base_dynamics"), (fiber_src, "fiber_dynamics"), (str(block["lagrangian"]), "lagrangian")))
        costate = [f"pz{i+1}" for i in range(s)] + [f"mu{i+1}" for i in range(algebra.dim)]
        tables += _hamiltonian_tables([base_table, fiber_table], lag_table, z_vars, costate, u_vars)

    compiled = iter(compile_tables(tables))
    f, lagrangian, dH, d2H_du2 = islice(compiled, 4)
    symmetry = None
    if "action" in data:
        symmetry = SymmetryHandle(algebra=algebra, generators=next(compiled))
    jac = ProblemJacobians(dH=dH, d2H_du2=d2H_du2)
    problem = ControlProblem(n=n, r=r, dynamics=f, lagrangian=lagrangian, jacobians=jac, symmetry=symmetry, name=name)

    reduced = None
    if "reduced" in data:
        base, fiber, lagrangian_z, dH, d2H_du2 = compiled
        reduced = ReducedProblem(base_dim=s, algebra=algebra, control_dim=r, lagrangian=lagrangian_z,
                                 base_dynamics=base, fiber_dynamics=fiber, jacobians=ProblemJacobians(dH, d2H_du2),
                                 base_structure=block.get("base_structure", ()), name=name)
    return problem, reduced
