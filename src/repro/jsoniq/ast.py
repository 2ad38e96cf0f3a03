"""AST node classes for the JSONiq subset (paper §5.3).

The paper converts the ANTLR parse tree into a tree of *expressions and
clauses*; these dataclasses are that tree. Every node is a plain,
picklable value object — the translator (``core/translator.py``) turns
them into runtime iterators.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class Expr:
    """Base class of all expression nodes."""

    def children(self) -> list["Expr"]:
        """Child expressions, in source order, for the free-variable
        walk (``scoping.free_refs``)."""
        return []


# --------------------------------------------------------------------------
# Primary expressions
# --------------------------------------------------------------------------

@dataclass
class Literal(Expr):
    """Atomic literal: string, integer, decimal/double, boolean, null."""

    value: object  # str | int | float | bool | None


@dataclass
class VarRef(Expr):
    """``$name`` — reference to an in-scope variable."""

    name: str


@dataclass
class ContextItem(Expr):
    """``$$`` — the context item, bound by predicates."""


@dataclass
class SequenceExpr(Expr):
    """Comma expression ``(e1, e2, ...)`` — concatenation of sequences.

    The empty parenthesis ``()`` is ``SequenceExpr([])``, the empty
    sequence."""

    exprs: list[Expr]

    def children(self) -> list[Expr]:
        return list(self.exprs)


@dataclass
class ObjectConstructor(Expr):
    """``{"k": e, ...}`` — keys are expressions (usually string literals)."""

    pairs: list[tuple[Expr, Expr]]

    def children(self) -> list[Expr]:
        return [e for pair in self.pairs for e in pair]


@dataclass
class ArrayConstructor(Expr):
    """``[ e ]`` — wraps the sequence produced by ``e`` into one array."""

    expr: Expr | None  # None for []

    def children(self) -> list[Expr]:
        return [self.expr] if self.expr is not None else []


@dataclass
class FunctionCall(Expr):
    """``name(args...)`` — builtin function call (paper §5.7, W3C library)."""

    name: str
    args: list[Expr]

    def children(self) -> list[Expr]:
        return list(self.args)


# --------------------------------------------------------------------------
# Postfix expressions (navigation, §4.1.2)
# --------------------------------------------------------------------------

@dataclass
class ObjectLookup(Expr):
    """``e.key`` or ``e."key"`` — maps each object to its ``key`` value,
    skips non-objects/missing keys (empty sequence)."""

    target: Expr
    key: Expr  # evaluated to a string

    def children(self) -> list[Expr]:
        return [self.target, self.key]


@dataclass
class ArrayUnbox(Expr):
    """``e[]`` — flattens each array item into its members."""

    target: Expr

    def children(self) -> list[Expr]:
        return [self.target]


@dataclass
class ArrayLookup(Expr):
    """``e[[i]]`` — the ``i``-th member (1-based) of each array item."""

    target: Expr
    index: Expr

    def children(self) -> list[Expr]:
        return [self.target, self.index]


@dataclass
class Predicate(Expr):
    """``e[p]`` — filter. For each item the predicate runs with ``$$``
    bound to it; a numeric result selects by position (1-based), any
    other result is taken as an effective boolean value."""

    target: Expr
    pred: Expr

    def children(self) -> list[Expr]:
        return [self.target, self.pred]


# --------------------------------------------------------------------------
# Operators
# --------------------------------------------------------------------------

@dataclass
class Arithmetic(Expr):
    """Binary arithmetic: ``+ - * div idiv mod``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class UnaryMinus(Expr):
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class Comparison(Expr):
    """Value comparison: ``eq ne lt le gt ge`` (and ``= != < <= > >=``
    aliases, which this subset treats as value comparisons)."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class BoolOp(Expr):
    """``and`` / ``or`` over effective boolean values (two-valued logic)."""

    op: str  # "and" | "or"
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class NotOp(Expr):
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class StringConcat(Expr):
    """``e1 || e2``."""

    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


@dataclass
class RangeExpr(Expr):
    """``a to b`` — integer range sequence."""

    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]


# --------------------------------------------------------------------------
# Control flow
# --------------------------------------------------------------------------

@dataclass
class IfExpr(Expr):
    cond: Expr
    then: Expr
    else_: Expr

    def children(self) -> list[Expr]:
        return [self.cond, self.then, self.else_]


@dataclass
class QuantifiedExpr(Expr):
    """``some/every $v in e (, $v2 in e2)* satisfies p``."""

    kind: str  # "some" | "every"
    bindings: list[tuple[str, Expr]]
    satisfies: Expr

    def children(self) -> list[Expr]:
        return [e for _, e in self.bindings] + [self.satisfies]


# --------------------------------------------------------------------------
# FLWOR (§4.2–§4.10)
# --------------------------------------------------------------------------

class Clause:
    """Base class of FLWOR clauses; clauses consume and produce tuple
    streams (§4.2)."""

    def children(self) -> list[Expr]:
        return []


@dataclass
class ForClause(Clause):
    """``for $v (allowing empty)? (at $pos)? in e``."""

    var: str
    expr: Expr
    allowing_empty: bool = False
    position_var: str | None = None

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class LetClause(Clause):
    """``let $v := e``."""

    var: str
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class WhereClause(Clause):
    expr: Expr

    def children(self) -> list[Expr]:
        return [self.expr]


@dataclass
class GroupKey:
    """One grouping key: ``$v`` (existing variable) or ``$v := e``."""

    var: str
    expr: Expr | None = None


@dataclass
class GroupByClause(Clause):
    keys: list[GroupKey]

    def children(self) -> list[Expr]:
        return [k.expr for k in self.keys if k.expr is not None]


@dataclass
class OrderSpec:
    """One ordering key with its modifiers."""

    expr: Expr
    ascending: bool = True
    empty_greatest: bool = False


@dataclass
class OrderByClause(Clause):
    specs: list[OrderSpec]
    stable: bool = False

    def children(self) -> list[Expr]:
        return [s.expr for s in self.specs]


@dataclass
class CountClause(Clause):
    """``count $v`` — binds the 1-based tuple position (§4.9)."""

    var: str


@dataclass
class FLWORExpr(Expr):
    """A whole FLWOR expression: clauses + the final return expression."""

    clauses: list[Clause] = field(default_factory=list)
    return_expr: Expr = None  # type: ignore[assignment]

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for c in self.clauses:
            out.extend(c.children())
        out.append(self.return_expr)
        return out
