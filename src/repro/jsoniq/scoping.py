"""Static contexts and variable-scoping checks (paper §5.3).

The paper chains static contexts so each expression sees its in-scope
variables without copying; a reference to an unbound variable raises a
*static* error at translation time, before anything executes. We
implement the same chained-frame structure and a recursive walk with
the visitor pattern collapsed into one function per node family.

``check(expr)`` raises :class:`StaticError` on the first unbound
variable or misplaced ``$$``. Variable usage for the §4.7 rewrites is
the optimizer's own analysis of the AST.
"""
from __future__ import annotations

from . import ast
from .errors import StaticError


class StaticContext:
    """A chained frame of in-scope variable names (paper §5.3: contexts
    reference their parent instead of copying bindings)."""

    __slots__ = ("_names", "_parent", "has_context_item")

    def __init__(self, parent: "StaticContext | None" = None, *, has_context_item: bool | None = None):
        self._names: set[str] = set()
        self._parent = parent
        if has_context_item is None:
            has_context_item = parent.has_context_item if parent else False
        self.has_context_item = has_context_item

    def bind(self, name: str) -> None:
        self._names.add(name)

    def is_bound(self, name: str) -> bool:
        ctx: StaticContext | None = self
        while ctx is not None:
            if name in ctx._names:
                return True
            ctx = ctx._parent
        return False

    def child(self, *, has_context_item: bool | None = None) -> "StaticContext":
        return StaticContext(self, has_context_item=has_context_item)


def check(expr: ast.Expr) -> None:
    """Scope-check ``expr``: raise :class:`StaticError` on the first
    unbound variable or misplaced ``$$``."""

    def visit(e: ast.Expr, ctx: StaticContext) -> None:
        if isinstance(e, ast.VarRef):
            if not ctx.is_bound(e.name):
                raise StaticError(f"unbound variable ${e.name}")
            return
        if isinstance(e, ast.ContextItem):
            if not ctx.has_context_item:
                raise StaticError("'$$' used where no context item is defined")
            return
        if isinstance(e, ast.Predicate):
            visit(e.target, ctx)
            visit(e.pred, ctx.child(has_context_item=True))
            return
        if isinstance(e, ast.QuantifiedExpr):
            inner = ctx.child()
            for var, src in e.bindings:
                visit(src, inner)
                inner = inner.child()
                inner.bind(var)
            visit(e.satisfies, inner)
            return
        if isinstance(e, ast.FLWORExpr):
            inner = ctx.child()
            for c in e.clauses:
                if isinstance(c, ast.ForClause):
                    visit(c.expr, inner)
                    inner = inner.child()
                    inner.bind(c.var)
                    if c.position_var:
                        inner.bind(c.position_var)
                elif isinstance(c, ast.LetClause):
                    visit(c.expr, inner)
                    inner = inner.child()
                    inner.bind(c.var)
                elif isinstance(c, ast.WhereClause):
                    visit(c.expr, inner)
                elif isinstance(c, ast.GroupByClause):
                    for k in c.keys:
                        if k.expr is not None:
                            visit(k.expr, inner)
                            inner = inner.child()
                            inner.bind(k.var)
                        elif not inner.is_bound(k.var):
                            raise StaticError(
                                f"group-by key ${k.var} is not an in-scope variable"
                            )
                elif isinstance(c, ast.OrderByClause):
                    for s in c.specs:
                        visit(s.expr, inner)
                elif isinstance(c, ast.CountClause):
                    inner = inner.child()
                    inner.bind(c.var)
                else:  # pragma: no cover - parser produces no other clause
                    raise StaticError(f"unknown clause {type(c).__name__}")
            visit(e.return_expr, inner)
            return
        for child in e.children():
            visit(child, ctx)

    visit(expr, StaticContext())
