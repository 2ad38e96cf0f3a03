"""Recursive-descent JSONiq parser (paper §5.2–§5.3); OrExpr down to
MultiplicativeExpr parse by precedence climbing.

Produces the :mod:`repro.jsoniq.ast` tree. Grammar subset (operator
precedence follows the JSONiq specification, loosest first)::

    Expr            := ExprSingle ("," ExprSingle)*
    ExprSingle      := FLWORExpr | IfExpr | QuantifiedExpr | OrExpr
    OrExpr          := AndExpr ("or" AndExpr)*
    AndExpr         := NotExpr ("and" NotExpr)*
    NotExpr         := "not"* ComparisonExpr
    ComparisonExpr  := ConcatExpr ((eq|ne|lt|le|gt|ge|=|!=|<|<=|>|>=) ConcatExpr)?
    ConcatExpr      := RangeExpr ("||" RangeExpr)*
    RangeExpr       := AdditiveExpr ("to" AdditiveExpr)?
    AdditiveExpr    := MultiplicativeExpr (("+"|"-") MultiplicativeExpr)*
    MultiplicativeExpr := UnaryExpr (("*"|"div"|"idiv"|"mod") UnaryExpr)*
    UnaryExpr       := ("-"|"+")* PostfixExpr
    PostfixExpr     := PrimaryExpr ("." Key | "[]" | "[[" Expr "]]" | "[" Expr "]")*
    PrimaryExpr     := Literal | VarRef | "$$" | ParenExpr | ObjectCtor
                     | ArrayCtor | FunctionCall
"""
from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import Token, tokenize

_VALUE_COMP = {"eq", "ne", "lt", "le", "gt", "ge"}
_GENERAL_COMP = {"=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}

#: Binary operators (a keyword's value, else the token kind) by
#: precedence, loosest first. A bare ``not`` sits at ``_NOT``: its
#: operand is a ComparisonExpr. Comparisons and ranges do not chain.
_BINARY = {
    "or": 1, "and": 2,
    **dict.fromkeys([*_VALUE_COMP, *_GENERAL_COMP], 4),
    "||": 5, "to": 6, "+": 7, "-": 7, "*": 8, "div": 8, "idiv": 8, "mod": 8,
}
_NOT = 3
_NON_ASSOC = {4, 6}


def _precedence(t: Token) -> int | None:
    return _BINARY.get(t.value if t.kind == "KEYWORD" else t.kind)


def _binary_node(op: str, prec: int, left: ast.Expr, right: ast.Expr) -> ast.Expr:
    if prec <= 2:
        return ast.BoolOp(op, left, right)
    if prec == 4:
        return ast.Comparison(_GENERAL_COMP.get(op, op), left, right)
    if op == "||":
        return ast.StringConcat(left, right)
    if op == "to":
        return ast.RangeExpr(left, right)
    return ast.Arithmetic(op, left, right)


def _fold_prefix(node, n: int, operand: ast.Expr) -> ast.Expr:
    """A run of ``n`` prefix ``-`` or ``not`` as one node (odd ``n``) or
    two (even ``n``): two still check the operand's type and take its
    effective boolean value, and no run nests deeper than that."""
    for _ in range(min(n, 2 - n % 2)):
        operand = node(operand)
    return operand


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def at_kw(self, *words: str) -> bool:
        t = self.peek()
        return t.kind == "KEYWORD" and t.value in words

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {t!r}", t.line, t.column)
        return self.next()

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if not self.at_kw(word):
            raise ParseError(f"expected keyword {word!r}, found {t!r}", t.line, t.column)
        return self.next()

    # -- entry ---------------------------------------------------------------
    def parse(self) -> ast.Expr:
        e = self.parse_expr()
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError(f"unexpected trailing input {t!r}", t.line, t.column)
        return e

    def parse_expr(self) -> ast.Expr:
        first = self.parse_expr_single()
        if not self.at(","):
            return first
        exprs = [first]
        while self.at(","):
            self.next()
            exprs.append(self.parse_expr_single())
        return ast.SequenceExpr(exprs)

    def parse_expr_single(self) -> ast.Expr:
        if self.at_kw("for", "let"):
            return self.parse_flwor()
        if self.at_kw("if") and self.peek(1).kind == "(":
            return self.parse_if()
        if self.at_kw("some", "every") and self.peek(1).kind == "VAR":
            return self.parse_quantified()
        return self.parse_binary()

    # -- FLWOR ---------------------------------------------------------------
    def parse_flwor(self) -> ast.FLWORExpr:
        clauses: list[ast.Clause] = []
        while True:
            t = self.peek()
            if self.at_kw("for"):
                self.next()
                clauses.extend(self._for_bindings())
            elif self.at_kw("let"):
                self.next()
                clauses.extend(self._let_bindings())
            elif self.at_kw("where"):
                self.next()
                clauses.append(ast.WhereClause(self.parse_expr_single()))
            elif self.at_kw("group"):
                self.next()
                self.expect_kw("by")
                clauses.append(ast.GroupByClause(self._group_keys()))
            elif self.at_kw("stable") or self.at_kw("order"):
                stable = False
                if self.at_kw("stable"):
                    self.next()
                    stable = True
                self.expect_kw("order")
                self.expect_kw("by")
                clauses.append(ast.OrderByClause(self._order_specs(), stable=stable))
            elif self.at_kw("count"):
                # Disambiguate the count *clause* from the count() function:
                # a clause is always followed by a variable.
                if self.peek(1).kind != "VAR":
                    raise ParseError(
                        "expected variable after 'count' clause", t.line, t.column
                    )
                self.next()
                clauses.append(ast.CountClause(self.next().value))
            elif self.at_kw("return"):
                self.next()
                return ast.FLWORExpr(clauses, self.parse_expr_single())
            else:
                raise ParseError(
                    f"expected FLWOR clause or 'return', found {t!r}", t.line, t.column
                )

    def _for_bindings(self) -> list[ast.ForClause]:
        out = []
        while True:
            var = self.expect("VAR").value
            allowing = False
            pos_var = None
            if self.at_kw("allowing"):
                self.next()
                self.expect_kw("empty")
                allowing = True
            if self.at_kw("at"):
                self.next()
                pos_var = self.expect("VAR").value
            self.expect_kw("in")
            expr = self.parse_expr_single()
            out.append(ast.ForClause(var, expr, allowing, pos_var))
            if self.at(",") and self.peek(1).kind == "VAR":
                self.next()
                continue
            return out

    def _let_bindings(self) -> list[ast.LetClause]:
        out = []
        while True:
            var = self.expect("VAR").value
            self.expect(":=")
            out.append(ast.LetClause(var, self.parse_expr_single()))
            if self.at(",") and self.peek(1).kind == "VAR" and self.peek(2).kind == ":=":
                self.next()
                continue
            return out

    def _group_keys(self) -> list[ast.GroupKey]:
        keys = []
        while True:
            var = self.expect("VAR").value
            expr = None
            if self.at(":="):
                self.next()
                expr = self.parse_expr_single()
            keys.append(ast.GroupKey(var, expr))
            if self.at(","):
                self.next()
                continue
            return keys

    def _order_specs(self) -> list[ast.OrderSpec]:
        specs = []
        while True:
            expr = self.parse_expr_single()
            ascending = True
            empty_greatest = False
            if self.at_kw("ascending"):
                self.next()
            elif self.at_kw("descending"):
                self.next()
                ascending = False
            if self.at_kw("empty"):
                self.next()
                if self.at_kw("greatest"):
                    self.next()
                    empty_greatest = True
                else:
                    self.expect_kw("least")
            specs.append(ast.OrderSpec(expr, ascending, empty_greatest))
            if self.at(","):
                self.next()
                continue
            return specs

    # -- control flow ---------------------------------------------------------
    def parse_if(self) -> ast.IfExpr:
        self.expect_kw("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect_kw("then")
        then = self.parse_expr_single()
        self.expect_kw("else")
        else_ = self.parse_expr_single()
        return ast.IfExpr(cond, then, else_)

    def parse_quantified(self) -> ast.QuantifiedExpr:
        kind = self.next().value  # some | every
        bindings = []
        while True:
            var = self.expect("VAR").value
            self.expect_kw("in")
            bindings.append((var, self.parse_expr_single()))
            if self.at(",") and self.peek(1).kind == "VAR":
                self.next()
                continue
            break
        self.expect_kw("satisfies")
        return ast.QuantifiedExpr(kind, bindings, self.parse_expr_single())

    # -- operators -------------------------------------------------------------
    def parse_binary(self, min_prec: int = 1) -> ast.Expr:
        """OrExpr down to MultiplicativeExpr by precedence climbing: an
        operand costs one call however many grammar levels it skips, so
        deep nesting stays within Python's stack."""
        nots = 0
        while min_prec <= _NOT and self.at_kw("not") and self.peek(1).kind != "(":
            # `not` is a function in JSONiq (fn:not); `not(expr)` parses
            # via the function-call path. A bare keyword prefix is also
            # accepted.
            self.next()
            nots += 1
        if nots:
            left = _fold_prefix(ast.NotOp, nots, self.parse_binary(_NOT))
        else:
            left = self.parse_unary()
        while True:
            prec = _precedence(self.peek())
            if prec is None or prec < min_prec:
                return left
            op = self.next().value
            left = _binary_node(op, prec, left, self.parse_binary(prec + 1))
            t = self.peek()
            if prec in _NON_ASSOC and _precedence(t) == prec:
                raise ParseError(f"{op!r} does not chain, found {t!r}", t.line, t.column)

    def parse_unary(self) -> ast.Expr:
        minus = 0
        while self.at("-") or self.at("+"):
            minus += self.next().kind == "-"
        return _fold_prefix(ast.UnaryMinus, minus, self.parse_postfix())

    # -- postfix / primary --------------------------------------------------
    def parse_postfix(self) -> ast.Expr:
        e = self.parse_primary()
        while True:
            if self.at("."):
                self.next()
                t = self.peek()
                if t.kind in ("NAME", "KEYWORD"):
                    self.next()
                    e = ast.ObjectLookup(e, ast.Literal(t.value))
                elif t.kind == "STRING":
                    self.next()
                    e = ast.ObjectLookup(e, ast.Literal(t.value))
                elif t.kind == "(":
                    self.next()
                    key = self.parse_expr()
                    self.expect(")")
                    e = ast.ObjectLookup(e, key)
                else:
                    raise ParseError(f"expected key after '.', found {t!r}", t.line, t.column)
            elif self.at("[") and self.peek(1).kind == "[":
                # Array lookup e[[i]] — two adjacent bracket tokens (the
                # lexer does not fuse them, see lexer._PUNCT note).
                self.next()
                self.next()
                idx = self.parse_expr()
                self.expect("]")
                self.expect("]")
                e = ast.ArrayLookup(e, idx)
            elif self.at("["):
                self.next()
                if self.at("]"):
                    self.next()
                    e = ast.ArrayUnbox(e)
                else:
                    pred = self.parse_expr()
                    self.expect("]")
                    e = ast.Predicate(e, pred)
            else:
                return e

    def parse_primary(self) -> ast.Expr:
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return ast.Literal(t.value)
        if t.kind == "INTEGER":
            self.next()
            return ast.Literal(int(t.value))
        if t.kind in ("DECIMAL", "DOUBLE"):
            self.next()
            return ast.Literal(float(t.value))
        if t.kind == "KEYWORD" and t.value in ("true", "false", "null"):
            # JSONiq proper spells these true(), false(), null; we accept
            # both bare words and the function forms.
            self.next()
            if self.at("("):
                self.next()
                self.expect(")")
            return ast.Literal({"true": True, "false": False, "null": None}[t.value])
        if t.kind == "VAR":
            self.next()
            return ast.VarRef(t.value)
        if t.kind == "CONTEXT":
            self.next()
            return ast.ContextItem()
        if t.kind == "(":
            self.next()
            if self.at(")"):
                self.next()
                return ast.SequenceExpr([])
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "{":
            return self.parse_object()
        if t.kind == "[":
            self.next()
            if self.at("]"):
                self.next()
                return ast.ArrayConstructor(None)
            e = self.parse_expr()
            self.expect("]")
            return ast.ArrayConstructor(e)
        if t.kind in ("NAME", "KEYWORD") and self.peek(1).kind == "(":
            # Function call. Keywords that start expressions (if/for/...)
            # never reach here with "(" except `if`, which parse_expr_single
            # handles first; `not(...)`, `count(...)` etc. are functions.
            name = self.next().value
            self.expect("(")
            args: list[ast.Expr] = []
            if not self.at(")"):
                args.append(self.parse_expr_single())
                while self.at(","):
                    self.next()
                    args.append(self.parse_expr_single())
            self.expect(")")
            return ast.FunctionCall(name, args)
        raise ParseError(f"unexpected token {t!r}", t.line, t.column)

    def parse_object(self) -> ast.ObjectConstructor:
        self.expect("{")
        pairs: list[tuple[ast.Expr, ast.Expr]] = []
        if not self.at("}"):
            while True:
                t = self.peek()
                # A bare string/name is a literal key only when directly
                # followed by ':'; otherwise it starts a key expression
                # (e.g. {"k" || "1": 2}).
                if t.kind == "STRING" and self.peek(1).kind == ":":
                    self.next()
                    key: ast.Expr = ast.Literal(t.value)
                elif t.kind in ("NAME", "KEYWORD") and self.peek(1).kind == ":":
                    self.next()
                    key = ast.Literal(t.value)
                else:
                    key = self.parse_expr_single()
                self.expect(":")
                pairs.append((key, self.parse_expr_single()))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect("}")
        return ast.ObjectConstructor(pairs)


#: How deep brackets may nest. The descent takes 6-8 Python frames per
#: level, so this parses within Python's default recursion limit
#: (1000) whatever limit the caller's process sets.
MAX_NESTING = 100


def parse(query: str) -> ast.Expr:
    """Parse JSONiq ``query`` text into an AST. Raises :class:`ParseError`,
    also for brackets nested deeper than :data:`MAX_NESTING` and for
    anything else that nests deeper than Python's stack allows."""
    tokens = tokenize(query)
    depth = 0
    for t in tokens:
        depth += (t.kind in ("(", "[", "{")) - (t.kind in (")", "]", "}"))
        if depth > MAX_NESTING:
            raise ParseError(f"expression nested too deeply (over {MAX_NESTING} levels)",
                             t.line, t.column)
    parser = _Parser(tokens)
    try:
        return parser.parse()
    except RecursionError:
        t = parser.peek()
        raise ParseError("expression nested too deeply", t.line, t.column) from None
