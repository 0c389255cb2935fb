"""Expression binding and evaluation over row tuples.

The planner flattens each operator's output schema into a *tuple
descriptor* — an ordered list of (table, column) slots — and compiles AST
expressions into Python closures over row tuples, the moral equivalent of
Impala's codegen'd expression trees (the real system JIT-compiles them
with LLVM; we close over slot indexes).  :func:`compile_expr` is the one
compiler: scan filters, join residuals, projections, aggregate inputs,
and — with the SELECT items bound to their output positions — HAVING and
ORDER BY over aggregated output all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PlanError
from repro.impala.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Expr,
    FunctionCall,
    Literal,
    Star,
    UnaryOp,
)
from repro.impala.udf import evaluate_spatial, is_spatial_function

__all__ = ["Slot", "TupleDescriptor", "calls_function", "compile_expr", "vectorize_conjuncts"]


@dataclass(frozen=True)
class Slot:
    """One column of an operator's output schema."""

    table: str  # exposed (aliased) table name
    column: str


class TupleDescriptor:
    """Ordered slots describing the rows an operator produces."""

    def __init__(self, slots: list[Slot]):
        self.slots = list(slots)
        self._by_qualified = {(s.table, s.column): i for i, s in enumerate(self.slots)}

    def __len__(self) -> int:
        return len(self.slots)

    def resolve(self, ref: ColumnRef) -> int:
        """Slot index for a column reference; raises on unknown/ambiguous."""
        if ref.table is not None:
            index = self._by_qualified.get((ref.table, ref.column))
            if index is None:
                raise PlanError(f"unknown column {ref.table}.{ref.column}")
            return index
        matches = [
            i for i, slot in enumerate(self.slots) if slot.column == ref.column
        ]
        if not matches:
            raise PlanError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise PlanError(f"ambiguous column {ref.column!r}")
        return matches[0]

    def concat(self, other: "TupleDescriptor") -> "TupleDescriptor":
        """Descriptor for join output rows: left slots then right slots."""
        return TupleDescriptor(self.slots + other.slots)


def compile_expr(
    expr: Expr, descriptor: TupleDescriptor, bound: dict[Expr, int] | None = None
) -> Callable[[tuple], object]:
    """Compile an expression AST into ``row -> value``.

    NULL (None) propagates through comparisons and arithmetic the SQL way:
    any operation on NULL yields NULL, and WHERE treats NULL as false.
    Any subexpression equal to a key of ``bound`` reads the row position
    it maps to — how HAVING and ORDER BY see an aggregation's output.
    """
    if bound and expr in bound:
        position = bound[expr]
        return lambda row: row[position]
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ColumnRef):
        index = descriptor.resolve(expr)
        return lambda row: row[index]
    if isinstance(expr, Star):
        raise PlanError("* is only legal in SELECT lists and COUNT(*)")
    if isinstance(expr, UnaryOp):
        operand = compile_expr(expr.operand, descriptor, bound)
        if expr.op == "NOT":
            return lambda row: None if operand(row) is None else not operand(row)
        if expr.op == "-":
            return lambda row: None if operand(row) is None else -operand(row)
        raise PlanError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, descriptor, bound)
    if isinstance(expr, FunctionCall):
        return _compile_function(expr, descriptor, bound)
    raise PlanError(f"cannot compile expression {expr!r}")


def _compile_binary(expr: BinaryOp, descriptor: TupleDescriptor, bound):
    left = compile_expr(expr.left, descriptor, bound)
    right = compile_expr(expr.right, descriptor, bound)
    op = expr.op
    if op == "AND":
        return lambda row: _sql_and(left(row), right(row))
    if op == "OR":
        return lambda row: _sql_or(left(row), right(row))
    if op == "IS NULL":
        return lambda row: left(row) is None
    comparators = {
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
    }
    try:
        func = comparators[op]
    except KeyError:
        raise PlanError(f"unknown operator {op!r}") from None

    def evaluate(row):
        a = left(row)
        b = right(row)
        if a is None or b is None:
            return None
        return func(a, b)

    return evaluate


def _compile_function(expr: FunctionCall, descriptor: TupleDescriptor, bound):
    name = expr.name.upper()
    if is_spatial_function(name):
        arg_funcs = [compile_expr(arg, descriptor, bound) for arg in expr.args]

        def evaluate(row):
            args = [f(row) for f in arg_funcs]
            if any(a is None for a in args):
                return None
            return evaluate_spatial(name, args)

        return evaluate
    if expr.is_aggregate:
        raise PlanError(
            f"aggregate {name} must be handled by an aggregation node, "
            "not compiled as a scalar"
        )
    raise PlanError(f"unknown function {expr.name!r}")


def calls_function(expr: Expr) -> bool:
    """Whether ``expr`` calls a function anywhere (only a call can charge
    the running task: a spatial UDF charges its WKT parse)."""
    if isinstance(expr, FunctionCall):
        return True
    if isinstance(expr, UnaryOp):
        return calls_function(expr.operand)
    if isinstance(expr, BinaryOp):
        return calls_function(expr.left) or calls_function(expr.right)
    return False


_VECTOR_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def vectorize_conjuncts(conjuncts, descriptor: TupleDescriptor):
    """Compile AND-ed conjuncts into a column-batch evaluator, if possible.

    Only ``column <cmp> literal`` (either operand order) conjuncts with
    numeric literals vectorize; any other shape returns ``None`` and the
    caller keeps its row-at-a-time predicate.  The returned evaluator
    takes a batch's column lists and yields a boolean keep-mask — or
    ``None`` when a column holds non-numeric values (NULLs, strings), so
    the scalar path decides and the kept rows are identical either way.
    """
    if not conjuncts:
        return None
    specs: list[tuple[int, str, float, bool]] = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, BinaryOp):
            return None
        op = conjunct.op
        if op not in _VECTOR_COMPARATORS:
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            slot, literal, flipped = descriptor.resolve(left), right.value, False
        elif isinstance(left, Literal) and isinstance(right, ColumnRef):
            slot, literal, flipped = descriptor.resolve(right), left.value, True
        else:
            return None
        if isinstance(literal, bool) or not isinstance(literal, (int, float)):
            return None
        specs.append((slot, op, float(literal), flipped))

    def evaluate(columns: list[list]):
        mask = None
        for slot, op, literal, flipped in specs:
            values = np.asarray(columns[slot])
            if values.dtype.kind not in "if":
                return None
            compare = _VECTOR_COMPARATORS[op]
            hits = compare(literal, values) if flipped else compare(values, literal)
            mask = hits if mask is None else (mask & hits)
        return mask

    return evaluate


def _sql_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return bool(a) and bool(b)


def _sql_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return bool(a) or bool(b)
