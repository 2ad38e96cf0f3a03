"""The FLWOR expression runtime iterator (paper §4.10, §5.8).

A FLWOR is itself an expression returning a sequence of items; its
clauses exchange tuple streams. This iterator glues the two worlds:

* **DataFrame execution** — when the initial ``for`` clause can start
  from an RDD (§5.8), the tuple stream flows through the clauses as a
  :class:`TupleFrame` and the return clause maps each row to its output
  items with a ``flatMap`` (§4.10), producing an RDD of items that
  parent expressions consume without materialization.
* **Local execution** — otherwise the tuple stream is a generator of
  plain dict tuples pulled through the same clause objects (§5.5).
"""
from __future__ import annotations

from typing import Iterator

from ..dynamic_context import DynamicContext
from ..items import Item, loads_seq
from ..iterators.base import RuntimeIterator, active_spark
from .clauses import ClauseIterator, ForClauseIterator
from .frame import tuple_context


class FLWORIterator(RuntimeIterator):
    """Runtime iterator of a whole FLWOR expression."""

    def __init__(self, clauses: list[ClauseIterator], return_expr: RuntimeIterator):
        super().__init__([e for c in clauses for e in c.exprs()] + [return_expr])
        self.clauses = clauses
        self.return_expr = return_expr

    # ------------------------------------------------------------------
    # RDD/DataFrame path
    # ------------------------------------------------------------------
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        if ctx.config.force_local or active_spark() is None:
            return False
        first = self.clauses[0]
        return (
            isinstance(first, ForClauseIterator)
            and first.starts_rdd(ctx)
            and all(c.supports_df() for c in self.clauses[1:])
        )

    def _build_tframe(self, ctx: DynamicContext):
        first = self.clauses[0]
        tframe = first.start_df(ctx)
        for clause in self.clauses[1:]:
            tframe = clause.apply_df(tframe, ctx)
        return tframe

    def rdd_count(self, ctx: DynamicContext) -> int:
        """Count this FLWOR's result items without evaluating the return
        expression per row: when the return expression is a plain
        reference to a single-item variable, the item count equals the
        row count of the tuple-stream DataFrame — Spark counts it
        entirely in the JVM (the §5.5 aggregation push-down applied one
        level deeper). Falls back to counting the flatMap RDD."""
        from ..iterators.basic import VarRefIterator

        ret = self.return_expr
        if isinstance(ret, VarRefIterator):
            tframe = self._build_tframe(ctx)
            if ret.name in tframe.single_item:
                return tframe.df.count()
            return self._emit_rdd(tframe, ctx).count()
        return self.get_rdd(ctx).count()

    def get_rdd(self, ctx: DynamicContext):
        return self._emit_rdd(self._build_tframe(ctx), ctx)

    def _emit_rdd(self, tframe, ctx: DynamicContext):
        # Return clause (§4.10): flatMap each row (tuple) to the items
        # produced by the return expression — one flat RDD of items.
        var_order = tframe.var_order()
        colnames = [tframe.columns[v] for v in var_order]
        ret = self.return_expr

        def emit(row) -> list[Item]:
            cells = (loads_seq(row[c]) for c in colnames)
            return ret.materialize(tuple_context(ctx, zip(var_order, cells)))

        return tframe.df.rdd.flatMap(emit)

    # ------------------------------------------------------------------
    # Local path
    # ------------------------------------------------------------------
    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        first = self.clauses[0]
        tuples = first.start_local(ctx)
        for clause in self.clauses[1:]:
            tuples = clause.apply_local(tuples, ctx)
        for tup in tuples:
            yield from self.return_expr.materialize(tuple_context(ctx, tup))

    def _tree_label(self) -> str:
        return f"[{', '.join(type(c).__name__ for c in self.clauses)}]"
