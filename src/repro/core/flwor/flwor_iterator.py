"""The FLWOR expression runtime iterator (paper §4.10, §5.8).

A FLWOR is itself an expression returning a sequence of items; its
clauses exchange tuple streams. This iterator glues the two worlds:

* **RDD/DataFrame execution** — when the initial ``for`` clause can
  start from an RDD (§5.8). The FLWOR splits after its last *stream*
  clause (``group by``, ``order by`` or ``count``), the clauses that
  need the whole tuple stream. Up to that split the tuple stream flows
  through the clauses as a :class:`TupleFrame`: each stream clause
  runs the row-local clauses before it and its own keys in one Arrow
  pass (``frame.local_pass``), then its Spark SQL operation. The
  row-local tail after it (``for``, ``let`` and ``where``) runs through
  the clauses' local API in the return clause's pass, which maps each
  tuple to its output items (the §4.10 ``flatMap``, one
  ``mapPartitions`` per partition). Without a stream clause no
  DataFrame is built: the pass runs over the initial ``for``'s item
  RDD. Either way the result is an RDD of items that parent
  expressions consume without materialization.
* **Local execution** — otherwise the tuple stream is a generator of
  plain dict tuples pulled through the same clause objects (§5.5).
"""
from __future__ import annotations

from typing import Iterator

from ..dynamic_context import DynamicContext
from ..items import Item, loads_seq
from ..iterators.base import RuntimeIterator, active_spark
from .clauses import (
    ClauseIterator,
    CountClauseIterator,
    ForClauseIterator,
    GroupByClauseIterator,
    OrderByClauseIterator,
)
from .frame import TupleFrame, tuple_context

#: Clauses that need the whole tuple stream; the rest are row-local.
STREAM_CLAUSES = (GroupByClauseIterator, OrderByClauseIterator, CountClauseIterator)


class FLWORIterator(RuntimeIterator):
    """Runtime iterator of a whole FLWOR expression."""

    is_source = True

    def __init__(self, clauses: list[ClauseIterator], return_expr: RuntimeIterator):
        super().__init__([e for c in clauses for e in c.exprs()] + [return_expr])
        self.clauses = clauses
        self.return_expr = return_expr

    def _run_tail(self, tail: list[ClauseIterator], ctx: DynamicContext):
        """A function from a tuple stream to the return items: pushes the
        tuples through ``tail``'s local API, then evaluates the return
        expression per tuple. It captures no ``self``, so it ships to
        executors as it is."""
        ret = self.return_expr

        def run(tuples) -> Iterator[Item]:
            for clause in tail:
                tuples = clause.apply_local(tuples, ctx)
            for tup in tuples:
                yield from ret.materialize(tuple_context(ctx, tup))

        return run

    # ------------------------------------------------------------------
    # RDD/DataFrame path
    # ------------------------------------------------------------------
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        if ctx.config.force_local or active_spark() is None:
            return False
        first = self.clauses[0]
        return isinstance(first, ForClauseIterator) and first.starts_rdd(ctx)

    def _stream_end(self) -> int:
        """One past the last stream clause; 0 when there is none."""
        ends = [i + 1 for i, c in enumerate(self.clauses) if isinstance(c, STREAM_CLAUSES)]
        return ends[-1] if ends else 0

    def _build_tframe(self, ctx: DynamicContext) -> TupleFrame:
        """The tuple-stream DataFrame of the clauses up to the last stream
        clause. Each stream clause runs the row-local clauses before it
        in its own pass."""
        tframe = self.clauses[0].start_df(ctx)
        before: list[ClauseIterator] = []
        for clause in self.clauses[1:self._stream_end()]:
            if isinstance(clause, STREAM_CLAUSES):
                tframe = clause.apply_df(tframe, ctx, before)
                before = []
            else:
                before.append(clause)
        return tframe

    def rdd_count(self, ctx: DynamicContext) -> int:
        """Count this FLWOR's result items. When no clause follows the
        last stream clause and the return expression is a plain
        reference to a single-item variable, the item count equals the
        row count of the tuple-stream DataFrame, which Spark counts
        entirely in the JVM (the §5.5 aggregation push-down applied one
        level deeper). Otherwise the return pass's RDD is counted."""
        from ..iterators.basic import VarRefIterator

        ret = self.return_expr
        if self._stream_end() == len(self.clauses) and isinstance(ret, VarRefIterator):
            tframe = self._build_tframe(ctx)
            if ret.name in tframe.single_item:
                return tframe.df.count()
            return self._return_rdd(ctx, tframe).count()
        return self.get_rdd(ctx).count()

    def get_rdd(self, ctx: DynamicContext):
        return self._return_rdd(ctx, self._build_tframe(ctx) if self._stream_end() else None)

    def _return_rdd(self, ctx: DynamicContext, tframe: TupleFrame | None):
        # Return clause (§4.10) with the row-local tail: one pass per
        # partition maps each tuple to its items — one flat RDD. The
        # tuples come from the initial `for`'s items without a prefix
        # frame, else from the frame's rows, each decoded once.
        first = self.clauses[0]
        if tframe is None:
            var = first.var
            tuples = first.expr.get_rdd(ctx).map(lambda item: {var: [item]})
        else:
            names = tframe.var_order()
            cols = [tframe.columns[v] for v in names]
            tuples = tframe.df.rdd.map(
                lambda row: {v: loads_seq(row[c]) for v, c in zip(names, cols)})
        tail = self.clauses[self._stream_end() or 1:]
        return tuples.mapPartitions(self._run_tail(tail, ctx))

    # ------------------------------------------------------------------
    # Local path
    # ------------------------------------------------------------------
    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        yield from self._run_tail(self.clauses[1:], ctx)(self.clauses[0].start_local(ctx))

    def _tree_label(self) -> str:
        return f"[{', '.join(type(c).__name__ for c in self.clauses)}]"
