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

``plan_groupby_aggregations`` sorts the free references of the clauses
*after* a group-by plus the return expression (one walk of
``jsoniq.scoping.free_refs``, which respects shadowing by nested
binders) into ``count($v)`` call sites and other reads, and decides a
mode per non-grouping variable: ``"materialize"`` (default),
``"count"`` or ``"drop"``. When a variable goes to count mode, it also
reports every downstream ``count($v)`` call site, which the translator
translates as ``$v`` (the aggregated column already holds the count);
the AST is never modified. Count mode additionally requires the
variable to be provably single-item per tuple (bound by a plain
``for`` or ``count`` clause), since Spark's COUNT counts tuples, not
items.
"""
from __future__ import annotations

from ..jsoniq import ast
from ..jsoniq.scoping import binds, free_refs


def _regrouped(rest: list[ast.Clause], return_expr: ast.Expr, free: set[int]) -> set[str]:
    """The variables that the first group-by in ``rest`` merges while
    what follows it still reads them. A count-mode column holds one
    count per tuple, which a merge cannot use. ``free`` holds the ids of
    the references free in all of ``rest``: a reference after that
    group-by is one of them unless something before it rebinds it."""
    j = next((j for j, c in enumerate(rest) if isinstance(c, ast.GroupByClause)), None)
    if j is None:
        return set()
    tail = ast.FLWORExpr(rest[j + 1 :], return_expr)
    return {ref.name for ref, _ in free_refs(tail) if id(ref) in free}


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
        if isinstance(c, ast.GroupByClause):
            # Non-grouping variables now hold whole groups, and a key
            # may be the empty sequence.
            in_scope = dict.fromkeys(in_scope, False)
        for var in binds(c):
            in_scope[var] = isinstance(c, ast.CountClause) or (
                isinstance(c, ast.ForClause) and not (c.allowing_empty and var == c.var))

    # One walk of the rest of the FLWOR, as if it were a nested one, so
    # that a later clause rebinding a variable hides the uses after it.
    # A plain `group by $v` there reads $v.
    rest = flwor.clauses[gb_index + 1 :]
    # A list, so that every reference outlives the id taken of it.
    refs = [(ref, parent) for ref, parent in free_refs(ast.FLWORExpr(rest, flwor.return_expr))
            if isinstance(ref, ast.VarRef)]
    calls: dict[str, list[ast.FunctionCall]] = {}
    read = _regrouped(rest, flwor.return_expr, {id(ref) for ref, _ in refs})
    for ref, parent in refs:
        if (isinstance(parent, ast.FunctionCall) and parent.name == "count"
                and len(parent.args) == 1 and parent.args[0] is ref):
            calls.setdefault(ref.name, []).append(parent)
        else:
            read.add(ref.name)

    modes: dict[str, str] = {}
    counted: list[ast.FunctionCall] = []
    for var, single in in_scope.items():
        if var in key_vars:
            continue
        if var in read or (var in calls and not single):
            modes[var] = "materialize"
        elif var in calls:
            modes[var] = "count"
            counted += calls[var]
        else:
            modes[var] = "drop"
    return modes, counted
