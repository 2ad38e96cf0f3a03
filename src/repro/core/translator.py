"""Translation of the expression/clause tree into runtime iterators
(paper §5.4), with the §4.7 group-by optimizations applied on the way.
"""
from __future__ import annotations

from ..jsoniq import ast
from ..jsoniq.errors import StaticError
from .flwor.clauses import (
    ClauseIterator,
    CountClauseIterator,
    ForClauseIterator,
    GroupByClauseIterator,
    LetClauseIterator,
    OrderByClauseIterator,
    WhereClauseIterator,
)
from .flwor.flwor_iterator import FLWORIterator
from .iterators.base import RuntimeIterator
from .iterators.basic import (
    ContextItemIterator,
    EmptySequenceIterator,
    IfIterator,
    LiteralIterator,
    RangeIterator,
    SequenceConcatIterator,
    VarRefIterator,
)
from .iterators.functions import FunctionCallIterator
from .iterators.input import JsonFileIterator, ParallelizeIterator
from .iterators.navigation import (
    ArrayLookupIterator,
    ArrayUnboxIterator,
    ObjectLookupIterator,
    PredicateIterator,
)
from .iterators.operators import (
    ArithmeticIterator,
    ArrayConstructorIterator,
    BoolOpIterator,
    ComparisonIterator,
    NotIterator,
    ObjectConstructorIterator,
    StringConcatIterator,
    UnaryMinusIterator,
)
from .optimizer import plan_groupby_aggregations


def translate(expr: ast.Expr, *, optimize: bool = True) -> RuntimeIterator:
    """Recursively convert an AST into a tree of runtime iterators.

    ``optimize`` toggles the §4.7 group-by rewrites (COUNT push-down
    and unused-variable pruning); the single-threaded baseline engines
    translate with ``optimize=False`` to model engines that materialize
    every non-grouping variable (see DESIGN.md §4).
    """
    # ids of the count($v) calls whose $v the group-by already counted.
    counted: set[int] = set()

    def t(e: ast.Expr) -> RuntimeIterator:
        if isinstance(e, ast.Literal):
            return LiteralIterator(e.value)
        if isinstance(e, ast.VarRef):
            return VarRefIterator(e.name)
        if isinstance(e, ast.ContextItem):
            return ContextItemIterator()
        if isinstance(e, ast.SequenceExpr):
            if not e.exprs:
                return EmptySequenceIterator()
            return SequenceConcatIterator([t(x) for x in e.exprs])
        if isinstance(e, ast.ObjectConstructor):
            return ObjectConstructorIterator(
                [t(k) for k, _ in e.pairs], [t(v) for _, v in e.pairs]
            )
        if isinstance(e, ast.ArrayConstructor):
            return ArrayConstructorIterator([t(e.expr)] if e.expr is not None else [])
        if isinstance(e, ast.ObjectLookup):
            return ObjectLookupIterator(t(e.target), t(e.key))
        if isinstance(e, ast.ArrayUnbox):
            return ArrayUnboxIterator(t(e.target))
        if isinstance(e, ast.ArrayLookup):
            return ArrayLookupIterator(t(e.target), t(e.index))
        if isinstance(e, ast.Predicate):
            return PredicateIterator(t(e.target), t(e.pred))
        if isinstance(e, ast.Arithmetic):
            return ArithmeticIterator(e.op, t(e.left), t(e.right))
        if isinstance(e, ast.UnaryMinus):
            return UnaryMinusIterator([t(e.expr)])
        if isinstance(e, ast.Comparison):
            return ComparisonIterator(e.op, t(e.left), t(e.right))
        if isinstance(e, ast.BoolOp):
            return BoolOpIterator(e.op, t(e.left), t(e.right))
        if isinstance(e, ast.NotOp):
            return NotIterator([t(e.expr)])
        if isinstance(e, ast.StringConcat):
            return StringConcatIterator([t(e.left), t(e.right)])
        if isinstance(e, ast.RangeExpr):
            return RangeIterator([t(e.left), t(e.right)])
        if isinstance(e, ast.IfExpr):
            return IfIterator([t(e.cond), t(e.then), t(e.else_)])
        if isinstance(e, ast.QuantifiedExpr):
            # some: exists(for ... where p return true);
            # every: empty(for ... where not(p) return true).
            fors: list[ClauseIterator] = [ForClauseIterator(v, t(src)) for v, src in e.bindings]
            p = t(e.satisfies)
            if e.kind == "every":
                p = NotIterator([p])
            flwor = FLWORIterator(fors + [WhereClauseIterator(p)], LiteralIterator(True))
            return FunctionCallIterator("exists" if e.kind == "some" else "empty", [flwor])
        if isinstance(e, ast.FunctionCall):
            return t_function(e)
        if isinstance(e, ast.FLWORExpr):
            return t_flwor(e)
        raise StaticError(f"cannot translate {type(e).__name__}")

    def t_function(call: ast.FunctionCall) -> RuntimeIterator:
        if id(call) in counted:
            # The aggregated variable already holds the count.
            return t(call.args[0])
        if call.name == "json-file":
            if not 1 <= len(call.args) <= 2:
                raise StaticError("json-file() takes 1..2 arguments")
            return JsonFileIterator(
                t(call.args[0]),
                t(call.args[1]) if len(call.args) == 2 else None,
            )
        if call.name == "parallelize":
            if not 1 <= len(call.args) <= 2:
                raise StaticError("parallelize() takes 1..2 arguments")
            return ParallelizeIterator(
                t(call.args[0]),
                t(call.args[1]) if len(call.args) == 2 else None,
            )
        return FunctionCallIterator(call.name, [t(a) for a in call.args])

    def t_flwor(flwor: ast.FLWORExpr) -> FLWORIterator:
        # Plan the §4.7 group-by optimizations first: they decide how
        # the downstream count() calls translate.
        aggregations: dict[int, dict[str, str]] = {}
        if optimize:
            for i, c in enumerate(flwor.clauses):
                if isinstance(c, ast.GroupByClause):
                    aggregations[i], calls = plan_groupby_aggregations(flwor, i)
                    counted.update(map(id, calls))

        clause_iters: list[ClauseIterator] = []
        for i, c in enumerate(flwor.clauses):
            if isinstance(c, ast.ForClause) and i == 0 and c.position_var and not c.allowing_empty:
                # The first for's positions are the tuple positions a
                # count clause numbers (§4.9). Not with allowing empty:
                # an empty sequence binds position 0.
                clause_iters += [ForClauseIterator(c.var, t(c.expr)),
                                 CountClauseIterator(c.position_var)]
            elif isinstance(c, ast.ForClause):
                clause_iters.append(
                    ForClauseIterator(c.var, t(c.expr), c.allowing_empty, c.position_var)
                )
            elif isinstance(c, ast.LetClause):
                clause_iters.append(LetClauseIterator(c.var, t(c.expr)))
            elif isinstance(c, ast.WhereClause):
                clause_iters.append(WhereClauseIterator(t(c.expr)))
            elif isinstance(c, ast.GroupByClause):
                keys = [
                    (k.var, t(k.expr) if k.expr is not None else None) for k in c.keys
                ]
                clause_iters.append(GroupByClauseIterator(keys, aggregations.get(i)))
            elif isinstance(c, ast.OrderByClause):
                specs = [(t(s.expr), s.ascending, s.empty_greatest) for s in c.specs]
                clause_iters.append(OrderByClauseIterator(specs))
            elif isinstance(c, ast.CountClause):
                clause_iters.append(CountClauseIterator(c.var))
            else:
                raise StaticError(f"cannot translate clause {type(c).__name__}")
        return FLWORIterator(clause_iters, t(flwor.return_expr))

    return t(expr)
