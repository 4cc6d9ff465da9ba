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

Trees are differentiated symbolically (``differentiate``) and compiled once
into Python functions of stacked vector arguments (``compile_tables``) that
repeat the tree walker's float operations in the same order, member by
member; ``evaluate`` remains the reference semantics and produces the error
messages.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import PontrylieError
from .ocp import constant, stacked

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


class ExprEvaluationError(PontrylieError, ArithmeticError):
    """Runtime failure (division by zero, domain error); carries the node offset."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


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

    def to_string(self) -> str:
        return _print_node(self.ast)


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


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _print_node(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, Constant):
        text = repr(node.value)
        return f"({text})" if node.value < 0 and parent_prec > 0 else text
    if isinstance(node, Variable):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = _print_node(node.operand, _PRECEDENCE["neg"])
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        return f"{node.op}({_print_node(node.operand)})"
    prec = _PRECEDENCE[node.op]
    # bump the context on the non-associating side so the shape survives printing
    if node.op == "^":
        left = _print_node(node.left, prec + 1)
        right = _print_node(node.right, prec)
        text = f"{left}^{right}"
    else:
        left = _print_node(node.left, prec)
        right = _print_node(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
    return f"({text})" if prec < parent_prec else text


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
    elif op == "/":
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
    for index, node in np.ndenumerate(table):
        for k, var in enumerate(variables):
            out[index + (k,)] = differentiate(node, var)
    return out


# ---------------------------------------------------------------- compilation

class _Emitter:
    """Straight-line Python for a set of trees: one temporary per distinct operation."""

    def __init__(self, names: Mapping[str, str]):
        self.names = names
        self.used = set()
        self.lines: List[str] = []
        self.temps = {}

    def emit(self, node: Node) -> str:
        if isinstance(node, Constant):
            value = float(node.value)
            return f"({value!r})" if math.isfinite(value) else f"_float({str(value)!r})"
        if isinstance(node, Variable):
            self.used.add(node.name)
            return self.names[node.name]
        if isinstance(node, Unary):
            operand = self.emit(node.operand)
            code = f"-{operand}" if node.op == "neg" else f"_{node.op}({operand})"
        else:
            left, right = self.emit(node.left), self.emit(node.right)
            if node.op != "^":
                code = f"{left} {node.op} {right}"
            elif isinstance(node.right, Constant) and float(node.right.value).is_integer():
                code = f"{left} ** {right}"
            else:
                # math.pow computes what float ** does, but raises ValueError
                # where ** would return a complex number
                code = f"_pow({left}, {right})"
        name = self.temps.get(code)
        if name is None:
            name = self.temps[code] = f"_t{len(self.temps)}"
            self.lines.append(f"{name} = {code}")
        return name


def _nested(atoms: np.ndarray) -> str:
    """A nested list display of an object array of atoms."""
    if atoms.ndim == 1:
        return "[" + ", ".join(atoms) + "]"
    return "[" + ", ".join(_nested(row) for row in atoms) + "]"


_FLOAT = np.dtype(float)


def _members(*args):
    """The leading member shape of the stacked arguments and, per member, its rows as lists of floats."""
    arrays = [np.asarray(a, _FLOAT) for a in args]
    lead = arrays[0].shape[:-1]
    if len(lead) != 1:  # one member without leading axes, or several leading axes
        arrays = [a.reshape(math.prod(lead), a.shape[-1]) for a in arrays]
    return lead, zip(*[a.tolist() for a in arrays])


def _assemble(values: list, lead: tuple, shape: tuple):
    """Per-member values as one array (*lead, *shape); one member without leading axes is returned alone."""
    if not lead:
        return values[0] if not shape else np.array(values[0], dtype=float)
    out = np.array(values, dtype=float)
    return out if len(lead) == 1 else out.reshape(lead + shape)


def compile_tables(tables: Sequence[np.ndarray], arguments: Sequence[Sequence[str]]) -> List[Callable]:
    """Compile object arrays of trees into stacked functions of vector arguments, in one pass.

    ``arguments`` names the variables bound to the entries of each positional
    vector argument; it must cover every variable of the trees.  The arguments
    may carry the same leading member axes, (..., k); the generated code loops
    over the members and returns one value of the table's shape per member,
    (..., *shape).  Without leading axes the function for a 0-d table returns
    a float, any other an ndarray of the table's shape.  The functions are
    marked ``ocp.stacked``; a table of constants only becomes an
    ``ocp.constant``.  Each entry is computed with the float operations
    of ``evaluate`` in the same order (``math`` functions on Python floats),
    so results agree bit for bit; on an arithmetic failure the tree walker
    re-runs on the failing member's bindings and raises
    ``ExprEvaluationError`` with the source offset.
    """
    names, loads = {}, {}
    for k, group in enumerate(arguments):
        for i, var in enumerate(group):
            names[var] = f"_v{len(names)}"
            loads[var] = f"{names[var]} = _r{k}[{i}]"
    params = ", ".join(f"a{k}" for k in range(len(arguments)))
    rows = "".join(f"_r{k}, " for k in range(len(arguments)))
    namespace = {}
    source = []
    constants = {}
    for index, table in enumerate(tables):
        if table.ndim and all(isinstance(node, Constant) for node in table.flat):
            # no arithmetic, nothing can fail (zero Jacobian blocks, empty tables)
            constants[index] = constant(np.array([node.value for node in table.flat], dtype=float).reshape(table.shape))
            continue
        emitter = _Emitter(names)
        atoms = np.empty(table.shape, dtype=object)
        for position, node in np.ndenumerate(table):
            atoms[position] = emitter.emit(node)
        source.append(f"def _f{index}({params}):")
        source.append(f"    _lead, _rows = _members({params})")
        result = atoms[()] if table.ndim == 0 else _nested(atoms)
        source += ["    _out = []", f"    for {rows}in _rows:"]
        source += [f"        {loads[var]}" for var in loads if var in emitter.used]
        source += ["        try:"] + [f"            {line}" for line in emitter.lines]
        source += [f"            _out.append({result})", "        except _ARITHMETIC_FAILURES as exc:",
                   f"            _walk({index}, [{rows}], exc)"]
        source.append(f"    return _assemble(_out, _lead, {table.shape!r})")

    def walk(index, args, exc):
        bindings = {var: float(value) for group, arg in zip(arguments, args) for var, value in zip(group, arg)}
        for node in np.ravel(tables[index]):
            _eval_node(node, bindings)
        raise exc

    namespace.update(
        _members=_members, _assemble=_assemble, _float=float,
        _pow=math.pow, _sin=math.sin, _cos=math.cos, _exp=math.exp, _sqrt=math.sqrt, _walk=walk,
        # what the float operations and math functions raise on failure
        _ARITHMETIC_FAILURES=(ArithmeticError, ValueError),
    )
    exec(compile("\n".join(source), "<pontrylie.expr>", "exec"), namespace)
    return [constants[index] if index in constants else stacked(namespace[f"_f{index}"]) for index in range(len(tables))]
