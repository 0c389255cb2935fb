"""Query AST produced by the SQL parser.

Expression nodes carry enough structure for the planner to classify WHERE
conjuncts into spatial-join predicates (``ST_WITHIN``/``ST_NEARESTD`` over
columns of both join sides, per Fig 1) versus per-table filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "AGGREGATES",
    "Expr",
    "ColumnRef",
    "Literal",
    "Star",
    "FunctionCall",
    "BinaryOp",
    "UnaryOp",
    "SelectItem",
    "TableRef",
    "JoinClause",
    "OrderItem",
    "SelectStatement",
]


AGGREGATES = frozenset({"COUNT", "SUM", "MIN", "MAX", "AVG"})


class Expr:
    """Base class for expression nodes."""

    def columns(self) -> list["ColumnRef"]:
        """Every column reference in this subtree (planner helper)."""
        return []


@dataclass(frozen=True)
class ColumnRef(Expr):
    """``table.column`` or bare ``column`` (table resolved by the planner)."""

    table: str | None
    column: str

    def columns(self) -> list["ColumnRef"]:
        return [self]

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal(Expr):
    """A number, string, boolean or NULL constant."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Star(Expr):
    """``*`` (optionally ``table.*``)."""

    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass(frozen=True)
class FunctionCall(Expr):
    """``name(arg, ...)`` — aggregates and ST_* spatial functions alike."""

    name: str
    args: tuple[Expr, ...]
    distinct: bool = False

    def columns(self) -> list[ColumnRef]:
        found: list[ColumnRef] = []
        for arg in self.args:
            found.extend(arg.columns())
        return found

    @property
    def is_aggregate(self) -> bool:
        """Whether this calls one of the :data:`AGGREGATES`."""
        return self.name.upper() in AGGREGATES

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.name}({inner})"


@dataclass(frozen=True)
class BinaryOp(Expr):
    """``left op right`` for comparison, arithmetic and AND/OR."""

    op: str
    left: Expr
    right: Expr

    def columns(self) -> list[ColumnRef]:
        return self.left.columns() + self.right.columns()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    """``NOT expr`` / ``- expr``."""

    op: str
    operand: Expr

    def columns(self) -> list[ColumnRef]:
        return self.operand.columns()

    def __str__(self) -> str:
        return f"{self.op} {self.operand}"


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias."""

    expr: Expr
    alias: str | None = None


@dataclass(frozen=True)
class TableRef:
    """A table in FROM/JOIN with an optional alias."""

    name: str
    alias: str | None = None

    @property
    def exposed_name(self) -> str:
        """The name other clauses refer to this table by."""
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """``[SPATIAL | INNER] JOIN table [ON cond]``."""

    table: TableRef
    spatial: bool
    on: Expr | None = None


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expr: Expr
    ascending: bool = True


@dataclass
class SelectStatement:
    """A parsed SELECT query."""

    select_items: list[SelectItem]
    from_table: TableRef
    joins: list[JoinClause] = field(default_factory=list)
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    explain: bool = False
