"""Safe evaluation of symbol and metric expressions from config files.

Expressions are written over the variables ``x1..xn`` and ``xi1..xin`` with
the operators ``+ - * / ^`` (``^`` meaning power), the functions ``sin``,
``cos``, ``exp``, ``sqrt``, ``abs``, and the bracket weight ``ang(t) =
sqrt(1 + t^2)``.  Parsing goes through :mod:`ast` with a strict whitelist;
anything outside the grammar raises :class:`ExpressionError`.
"""

from __future__ import annotations

import ast
from typing import Callable

import numpy as np


class ExpressionError(ValueError):
    """Expression uses syntax or names outside the allowed grammar."""


_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "ang": lambda t: np.sqrt(1.0 + np.square(t)),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.divide,
    ast.Pow: np.power,
}

_UNARYOPS = {ast.UAdd: lambda v: v, ast.USub: np.negative}


def _compile(node: ast.AST, names: list[str]) -> Callable:
    """The closure ``args -> value`` of a node, ``args`` holding the values
    of ``names`` in order; anything outside the grammar raises
    ExpressionError here, before any evaluation."""
    if isinstance(node, ast.Expression):
        return _compile(node.body, names)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        left, right = _compile(node.left, names), _compile(node.right, names)
        return lambda args: op(left(args), right(args))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
        op, operand = _UNARYOPS[type(node.op)], _compile(node.operand, names)
        return lambda args: op(operand(args))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError(f"unknown function in expression: {ast.dump(node.func)}")
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError("functions take exactly one positional argument")
        fn, arg = _FUNCTIONS[node.func.id], _compile(node.args[0], names)
        return lambda args: fn(arg(args))
    if isinstance(node, ast.Name):
        if node.id in names:
            i = names.index(node.id)
            return lambda args: args[i]
        if node.id in _CONSTANTS:
            value = _CONSTANTS[node.id]
            return lambda args: value
        raise ExpressionError(f"unknown name: {node.id!r}")
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"non-numeric constant: {node.value!r}")
        value = node.value
        return lambda args: value
    raise ExpressionError(f"disallowed syntax: {type(node).__name__}")


def parse_expression(text: str, dim: int, with_xi: bool = True) -> Callable:
    """Compile an expression string into f(x1..xd[, xi1..xid]) on arrays.

    The returned callable broadcasts over numpy array arguments.
    """
    names = [f"x{i + 1}" for i in range(dim)]
    if with_xi:
        names += [f"xi{i + 1}" for i in range(dim)]
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse expression {text!r}: {exc}") from exc
    run = _compile(tree, names)

    def f(*args):
        if len(args) != len(names):
            raise TypeError(f"expected {len(names)} arguments, got {len(args)}")
        return run(args)

    return f
