"""Recursive-descent SQL parser for the Impala frontend.

Grammar (the ISP-MC dialect — standard single-block SELECT plus the
``SPATIAL JOIN`` keyword added in Section IV of the paper)::

    select    := SELECT item (',' item)*
                 FROM table_ref join*
                 [WHERE expr] [GROUP BY expr_list]
                 [ORDER BY order_list] [LIMIT n]
    join      := (SPATIAL | INNER)? JOIN table_ref [ON expr]
    item      := '*' | expr [AS? alias]
    expr      := or_expr with the usual precedence
    primary   := literal | column | func '(' args ')' | '(' expr ')'
"""

from __future__ import annotations

from repro.errors import SQLParseError
from repro.impala.ast_nodes import (
    AGGREGATES,
    BinaryOp,
    ColumnRef,
    FunctionCall,
    JoinClause,
    Literal,
    OrderItem,
    SelectItem,
    SelectStatement,
    Star,
    TableRef,
    UnaryOp,
)
from repro.impala.lexer import Token, TokenType, tokenize

__all__ = ["parse"]

def parse(sql: str) -> SelectStatement:
    """Parse one SELECT statement; raises :class:`SQLParseError`."""
    return _Parser(tokenize(sql)).parse_select()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.END:
            self._pos += 1
        return token

    def _accept_keyword(self, *keywords: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.KEYWORD and token.value in keywords:
            return self._next()
        return None

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._next()
        if token.type is not TokenType.KEYWORD or token.value != keyword:
            raise SQLParseError(
                f"expected {keyword}, got {token.value!r}", token.position
            )
        return token

    def _accept_symbol(self, symbol: str) -> Token | None:
        token = self._peek()
        if token.type is TokenType.SYMBOL and token.value == symbol:
            return self._next()
        return None

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._next()
        if token.type is not TokenType.SYMBOL or token.value != symbol:
            raise SQLParseError(
                f"expected {symbol!r}, got {token.value!r}", token.position
            )
        return token

    def _expect_identifier(self) -> Token:
        token = self._next()
        if token.type is not TokenType.IDENTIFIER:
            raise SQLParseError(
                f"expected identifier, got {token.value!r}", token.position
            )
        return token

    # -- statement --------------------------------------------------------------

    def parse_select(self) -> SelectStatement:
        """Parse one (optionally EXPLAIN'd) SELECT statement."""
        explain = bool(self._accept_keyword("EXPLAIN"))
        self._expect_keyword("SELECT")
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        from_table = self._table_ref()
        joins = []
        while True:
            spatial = self._accept_keyword("SPATIAL")
            if spatial:
                self._expect_keyword("JOIN")
            else:
                inner = self._accept_keyword("INNER")
                if not self._accept_keyword("JOIN"):
                    if inner:
                        raise SQLParseError(
                            "expected JOIN after INNER", self._peek().position
                        )
                    break
            table = self._table_ref()
            on = None
            if self._accept_keyword("ON"):
                on = self._expr()
            joins.append(JoinClause(table, spatial=bool(spatial), on=on))
        where = self._expr() if self._accept_keyword("WHERE") else None
        group_by: list = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._expr())
            while self._accept_symbol(","):
                group_by.append(self._expr())
        having = self._expr() if self._accept_keyword("HAVING") else None
        order_by: list[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._order_item())
            while self._accept_symbol(","):
                order_by.append(self._order_item())
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.type is not TokenType.NUMBER:
                raise SQLParseError("LIMIT expects a number", token.position)
            limit = int(float(token.value))
        tail = self._next()
        if tail.type is not TokenType.END:
            raise SQLParseError(f"trailing input {tail.value!r}", tail.position)
        return SelectStatement(
            items, from_table, joins, where, group_by, having, order_by, limit,
            explain=explain,
        )

    def _order_item(self) -> OrderItem:
        expr = self._expr()
        if self._accept_keyword("DESC"):
            return OrderItem(expr, ascending=False)
        self._accept_keyword("ASC")
        return OrderItem(expr, ascending=True)

    def _select_item(self) -> SelectItem:
        if self._accept_symbol("*"):
            return SelectItem(Star())
        expr = self._expr()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier().value
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._next().value
        return SelectItem(expr, alias)

    def _table_ref(self) -> TableRef:
        name = self._expect_identifier().value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier().value
        elif self._peek().type is TokenType.IDENTIFIER:
            alias = self._next().value
        return TableRef(name, alias)

    # -- expressions (precedence climbing) ----------------------------------------

    def _expr(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_keyword("OR"):
            left = BinaryOp("OR", left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_keyword("AND"):
            left = BinaryOp("AND", left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_keyword("NOT"):
            return UnaryOp("NOT", self._not_expr())
        return self._comparison()

    def _comparison(self):
        left = self._additive()
        token = self._peek()
        if token.type is TokenType.SYMBOL and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            op = self._next().value
            if op == "!=":
                op = "<>"
            return BinaryOp(op, left, self._additive())
        if token.type is TokenType.KEYWORD and token.value == "BETWEEN":
            self._next()
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return BinaryOp(
                "AND", BinaryOp(">=", left, low), BinaryOp("<=", left, high)
            )
        if token.type is TokenType.KEYWORD and token.value == "IS":
            self._next()
            negated = bool(self._accept_keyword("NOT"))
            self._expect_keyword("NULL")
            test = BinaryOp("IS NULL", left, Literal(None))
            return UnaryOp("NOT", test) if negated else test
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            token = self._peek()
            if token.type is TokenType.SYMBOL and token.value in ("+", "-"):
                op = self._next().value
                left = BinaryOp(op, left, self._multiplicative())
            else:
                return left

    def _multiplicative(self):
        left = self._unary()
        while True:
            token = self._peek()
            if token.type is TokenType.SYMBOL and token.value in ("*", "/"):
                op = self._next().value
                left = BinaryOp(op, left, self._unary())
            else:
                return left

    def _unary(self):
        if self._accept_symbol("-"):
            return UnaryOp("-", self._unary())
        return self._primary()

    def _primary(self):
        token = self._next()
        if token.type is TokenType.NUMBER:
            text = token.value
            value = float(text) if any(c in text for c in ".eE") else int(text)
            return Literal(value)
        if token.type is TokenType.STRING:
            return Literal(token.value)
        if token.type is TokenType.KEYWORD and token.value in ("TRUE", "FALSE"):
            return Literal(token.value == "TRUE")
        if token.type is TokenType.KEYWORD and token.value == "NULL":
            return Literal(None)
        if token.type is TokenType.SYMBOL and token.value == "(":
            inner = self._expr()
            self._expect_symbol(")")
            return inner
        if token.type is TokenType.KEYWORD and token.value in AGGREGATES:
            return self._function_call(token.value)
        if token.type is TokenType.IDENTIFIER:
            if self._peek().type is TokenType.SYMBOL and self._peek().value == "(":
                return self._function_call(token.value.upper())
            if self._accept_symbol("."):
                if self._accept_symbol("*"):
                    return Star(token.value)
                column = self._expect_identifier().value
                return ColumnRef(token.value, column)
            return ColumnRef(None, token.value)
        raise SQLParseError(f"unexpected token {token.value!r}", token.position)

    def _function_call(self, name: str) -> FunctionCall:
        self._expect_symbol("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        args: list = []
        if self._accept_symbol(")"):
            return FunctionCall(name, tuple(args), distinct)
        if self._accept_symbol("*"):
            args.append(Star())
        else:
            args.append(self._expr())
        while self._accept_symbol(","):
            args.append(self._expr())
        self._expect_symbol(")")
        return FunctionCall(name, tuple(args), distinct)
