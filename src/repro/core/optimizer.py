"""Static optimizations on the expression/clause tree (paper §4.7).

The paper describes two rewrites applied to group-by clauses, both
enabled by JSONiq being a functional language:

1. **COUNT push-down** — "Rumble detects if a non-grouping variable, in
   consuming expressions, is aggregated as a count rather than
   materialized. In this case COUNT() is invoked in Spark SQL instead
   of materializing the non-grouping values."
2. **Unused-variable pruning** — "It also detects if the variable is
   not used in consuming expressions, in which case it does not create
   the column at all."

``plan_groupby_aggregations`` performs the usage analysis over the
clauses *after* a group-by plus the return expression, respecting
shadowing by nested binders, and decides a mode per non-grouping
variable: ``"materialize"`` (default), ``"count"`` or ``"drop"``.
When a variable goes to count mode, it also reports every downstream
``count($v)`` call site, which the translator translates as ``$v``
(the aggregated column already holds the count); the AST is never
modified. Count mode additionally requires the variable to be provably
single-item per tuple (bound by a plain ``for`` or ``count`` clause),
since Spark's COUNT counts tuples, not items.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..jsoniq import ast


@dataclass
class _Usage:
    counted: bool = False
    other: bool = False


def _scan(node: ast.Expr | ast.Clause, var: str, usage: _Usage,
          count_calls: list[ast.FunctionCall]) -> None:
    """Collect how ``var`` is used under ``node``; stop at shadowing
    binders. ``count_calls`` accumulates the count($var) call sites."""
    if isinstance(node, ast.VarRef):
        if node.name == var:
            usage.other = True
        return
    if isinstance(node, ast.FunctionCall):
        if (
            node.name == "count"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.VarRef)
            and node.args[0].name == var
        ):
            usage.counted = True
            count_calls.append(node)
            return
        for a in node.args:
            _scan(a, var, usage, count_calls)
        return
    if isinstance(node, ast.FLWORExpr):
        for c in node.clauses:
            for e in c.children():
                _scan(e, var, usage, count_calls)
            if _binds(c, var):
                return
        _scan(node.return_expr, var, usage, count_calls)
        return
    if isinstance(node, ast.QuantifiedExpr):
        shadowed = False
        for v, src in node.bindings:
            if shadowed:
                break
            _scan(src, var, usage, count_calls)
            if v == var:
                shadowed = True
        if not shadowed:
            _scan(node.satisfies, var, usage, count_calls)
        return
    if isinstance(node, ast.Clause):
        for e in node.children():
            _scan(e, var, usage, count_calls)
        return
    for child in node.children():
        _scan(child, var, usage, count_calls)


def _binds(clause: ast.Clause, var: str) -> bool:
    """Whether ``clause`` (re)binds ``var`` for the clauses after it."""
    if isinstance(clause, ast.ForClause):
        return var in (clause.var, clause.position_var)
    if isinstance(clause, (ast.LetClause, ast.CountClause)):
        return clause.var == var
    if isinstance(clause, ast.GroupByClause):
        return any(k.var == var and k.expr is not None for k in clause.keys)
    return False


def _regrouped(clauses: list[ast.Clause], return_expr: ast.Expr, var: str) -> bool:
    """Whether a later group-by in ``clauses`` merges the groups of
    ``var`` and what follows still reads it. A count-mode column holds
    one count per tuple, which neither a merge nor a grouping by ``$var``
    itself can use."""
    for j, c in enumerate(clauses):
        if isinstance(c, ast.GroupByClause):
            if any(k.var == var and k.expr is None for k in c.keys):
                return True
            if _binds(c, var):
                return False
            after = _Usage()
            _scan(ast.FLWORExpr(clauses[j + 1 :], return_expr), var, after, [])
            return after.counted or after.other
        if _binds(c, var):
            return False
    return False


def plan_groupby_aggregations(
    flwor: ast.FLWORExpr, gb_index: int
) -> tuple[dict[str, str], list[ast.FunctionCall]]:
    """Decide the aggregation mode of every non-grouping variable of the
    group-by clause at ``flwor.clauses[gb_index]``. Returns ({var: mode},
    the downstream ``count($v)`` calls of the count-mode variables)."""
    gb = flwor.clauses[gb_index]
    assert isinstance(gb, ast.GroupByClause)
    key_vars = {k.var for k in gb.keys}

    # Variables in the tuple stream before the group-by, and whether
    # each is provably single-item per tuple.
    in_scope: dict[str, bool] = {}
    for c in flwor.clauses[:gb_index]:
        if isinstance(c, ast.ForClause):
            in_scope[c.var] = not c.allowing_empty
            if c.position_var:
                in_scope[c.position_var] = True
        elif isinstance(c, ast.LetClause):
            in_scope[c.var] = False
        elif isinstance(c, ast.GroupByClause):
            # Non-grouping variables now hold whole groups, and a key
            # may be the empty sequence.
            in_scope = dict.fromkeys([*in_scope, *(k.var for k in c.keys)], False)
        elif isinstance(c, ast.CountClause):
            in_scope[c.var] = True

    # The rest of the FLWOR, scanned like a nested one so that a later
    # clause rebinding a variable hides the uses after it.
    rest = flwor.clauses[gb_index + 1 :]
    downstream = ast.FLWORExpr(rest, flwor.return_expr)

    modes: dict[str, str] = {}
    counted: list[ast.FunctionCall] = []
    for var, single in in_scope.items():
        if var in key_vars:
            continue
        usage = _Usage()
        count_calls: list[ast.FunctionCall] = []
        _scan(downstream, var, usage, count_calls)
        if _regrouped(rest, flwor.return_expr, var):
            usage.other = True
        if not usage.counted and not usage.other:
            modes[var] = "drop"
        elif usage.counted and not usage.other and single:
            modes[var] = "count"
            counted += count_calls
        else:
            modes[var] = "materialize"
    return modes, counted
