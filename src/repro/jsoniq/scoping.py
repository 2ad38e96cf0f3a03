"""Variable scoping (paper §5.3): the one statement of the binder rules.

:func:`free_refs` walks an expression and yields every variable or
``$$`` reference that nothing under it binds. Two consumers ask it
that question:

* :func:`check` raises a *static* error on the first free reference of
  a whole query, before anything executes (§5.3);
* the §4.7 group-by planner (``core/optimizer.py``) sorts the free
  references downstream of a ``group by`` into ``count($v)`` call sites
  and other reads.

The walk keeps an explicit stack, so an expression nests as deep as
the parser lets it without touching Python's recursion limit. Each
stack entry carries the names in scope as a frozen set that a binder
extends for what it scopes over, in place of the paper's chained
static contexts.
"""
from __future__ import annotations

from typing import Iterator, Union

from . import ast
from .errors import StaticError

#: The name ``$$`` goes by in a scope: a predicate binds it.
_CONTEXT_ITEM = "$"

Ref = Union[ast.VarRef, ast.ContextItem]
Parent = Union[ast.Expr, ast.Clause, ast.GroupKey, None]


def binds(clause: ast.Clause) -> list[str]:
    """The names ``clause`` binds for the clauses after it, in order. A
    plain ``group by $k`` reads ``$k`` and binds nothing."""
    if isinstance(clause, ast.ForClause):
        return [clause.var] + ([clause.position_var] if clause.position_var else [])
    if isinstance(clause, (ast.LetClause, ast.CountClause)):
        return [clause.var]
    if isinstance(clause, ast.GroupByClause):
        return [k.var for k in clause.keys if k.expr is not None]
    return []


def _scoped_children(e, bound: frozenset) -> Iterator[tuple[ast.Expr, Parent, frozenset]]:
    """``(child, parent, names in scope)`` of each child of ``e`` in
    source order."""
    if isinstance(e, ast.FLWORExpr):
        for c in e.clauses:
            if isinstance(c, ast.GroupByClause):
                # Keys bind in key order; a plain key reads its variable.
                for k in c.keys:
                    if k.expr is None:
                        yield ast.VarRef(k.var), k, bound
                    else:
                        yield k.expr, k, bound
                        bound = bound | {k.var}
            else:
                for x in c.children():
                    yield x, c, bound
                bound = bound | set(binds(c))
        yield e.return_expr, e, bound
    elif isinstance(e, ast.QuantifiedExpr):
        for var, src in e.bindings:
            yield src, e, bound
            bound = bound | {var}
        yield e.satisfies, e, bound
    elif isinstance(e, ast.Predicate):
        yield e.target, e, bound
        yield e.pred, e, bound | {_CONTEXT_ITEM}
    else:
        for x in e.children():
            yield x, e, bound


def free_refs(node: ast.Expr) -> Iterator[tuple[Ref, Parent]]:
    """Every ``VarRef``/``ContextItem`` under ``node`` that no binder
    under ``node`` binds, with its parent node, in source order. A
    plain ``group by $k`` yields a fresh ``VarRef`` of ``$k`` whose
    parent is its ``GroupKey``."""
    stack: list[tuple[ast.Expr, Parent, frozenset]] = [(node, None, frozenset())]
    while stack:
        e, parent, bound = stack.pop()
        if isinstance(e, ast.VarRef):
            if e.name not in bound:
                yield e, parent
        elif isinstance(e, ast.ContextItem):
            if _CONTEXT_ITEM not in bound:
                yield e, parent
        else:
            stack.extend(reversed(list(_scoped_children(e, bound))))


def check(expr: ast.Expr) -> None:
    """Scope-check ``expr``: raise :class:`StaticError` on the first
    unbound variable or misplaced ``$$``."""
    for ref, parent in free_refs(expr):
        if isinstance(ref, ast.ContextItem):
            raise StaticError("'$$' used where no context item is defined")
        if isinstance(parent, ast.GroupKey) and parent.expr is None:
            raise StaticError(f"group-by key ${ref.name} is not an in-scope variable")
        raise StaticError(f"unbound variable ${ref.name}")
