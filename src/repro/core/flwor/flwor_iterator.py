"""The FLWOR expression runtime iterator (paper §4.10, §5.8).

A FLWOR is itself an expression returning a sequence of items; its
clauses exchange tuple streams. This iterator glues the two worlds:

* **RDD/DataFrame execution** — when the initial ``for`` clause can
  start from an RDD (§5.8). The FLWOR splits after its last *stream*
  clause (``group by``, ``order by`` or ``count``), the clauses that
  need the whole tuple stream. Up to that split the tuple stream flows
  through the clauses as a :class:`TupleFrame`: each stream clause's
  ``apply_df`` runs the row-local clauses before it and its own keys
  in one Arrow pass (``frame.local_pass``), then its Spark SQL
  operation. The row-local tail after it (``for``, ``let`` and
  ``where``) runs in the return clause's pass, which maps each tuple to
  its output items (the §4.10 ``flatMap``, one ``mapPartitions`` per
  partition). Without a stream clause no DataFrame is built: the pass
  binds the initial ``for``'s items. Either way the result is an RDD of
  items that parent expressions consume without materialization.
* **Local execution** — otherwise the same segments run locally
  (§5.5) through ``apply_local``; dict tuples cross the stream clauses.

Every pass over rows (the segment passes, the return pass, the local
clauses) is one generated function (``clauses.row_function``).
"""
from __future__ import annotations

from typing import Callable, Iterator

from ..dynamic_context import DynamicContext
from ..items import Item
from ..iterators.base import RuntimeIterator, worker_task
from .clauses import (ClauseIterator, ForClauseIterator, RowLocalClause, named_rows,
                      peek_names, row_function)
from .frame import TupleFrame


class FLWORIterator(RuntimeIterator):
    """Runtime iterator of a whole FLWOR expression."""

    is_source = True

    def __init__(self, clauses: list[ClauseIterator], return_expr: RuntimeIterator):
        super().__init__([e for c in clauses for e in c.exprs()] + [return_expr])
        self.clauses = clauses
        self.return_expr = return_expr

    def _return_pass(self, rows: str, names: tuple[str, ...] = ()) -> Callable:
        """The generated ``f(ctx, rows)`` from rows, through the
        row-local tail after the last stream clause, to the return
        items. A row is an item of the initial ``for`` (``"items"``, no
        stream clause), a row of ``names``' cells (``"cells"``) or a
        dict tuple of ``names`` (``"tuples"``)."""
        def build() -> Callable:
            if rows == "items":
                head, tail = (lambda b: self.clauses[0].emit_loop(b, {}, "rows")), self.clauses[1:]
            else:
                head = named_rows(names, cells=rows == "cells")
                tail = self.clauses[self._stream_end():]
            return row_function(head, tail, lambda b, env: b.line(
                f"yield from {b.emit(self.return_expr, env)}"))

        return self.built((rows, names), build)

    # ------------------------------------------------------------------
    # RDD/DataFrame path
    # ------------------------------------------------------------------
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        first = self.clauses[0]
        return isinstance(first, ForClauseIterator) and first.starts_rdd(ctx)

    def _stream_end(self) -> int:
        """One past the last stream clause (not row-local); 0 when there is none."""
        ends = [i + 1 for i, c in enumerate(self.clauses) if not isinstance(c, RowLocalClause)]
        return ends[-1] if ends else 0

    def _segments(self, start: int):
        """Each stream clause from ``start`` on, with the row-local
        clauses before it."""
        before: list[ClauseIterator] = []
        for clause in self.clauses[start:self._stream_end()]:
            if isinstance(clause, RowLocalClause):
                before.append(clause)
            else:
                yield clause, before
                before = []

    def _build_tframe(self, ctx: DynamicContext) -> TupleFrame:
        """The tuple-stream DataFrame of the clauses up to the last stream
        clause. Each stream clause runs the row-local clauses before it
        in its own pass."""
        tframe = self.clauses[0].start_df(ctx)
        for clause, before in self._segments(1):
            tframe = clause.apply_df(tframe, ctx, before)
        return tframe

    def get_rdd(self, ctx: DynamicContext):
        return self._return_rdd(ctx, self._build_tframe(ctx) if self._stream_end() else None)

    def _return_rdd(self, ctx: DynamicContext, tframe: TupleFrame | None):
        # Return clause (§4.10) with the row-local tail: one pass per
        # partition maps each tuple to its items — one flat RDD. The
        # tuples come from the initial `for`'s items without a prefix
        # frame, else from the frame's rows, each cell decoded once.
        if tframe is None:
            rows, run = self.clauses[0].expr.get_rdd(ctx), self._return_pass("items")
        else:
            names = tuple(tframe.columns)
            rows = tframe.df.select(*[tframe.columns[v] for v in names]).rdd
            run = self._return_pass("cells", names)
        return rows.mapPartitions(worker_task(lambda part: run(ctx, part)))

    # ------------------------------------------------------------------
    # Local path
    # ------------------------------------------------------------------
    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        tuples = [{}]  # dict tuples cross each stream clause
        for clause, before in self._segments(0):
            tuples = clause.apply_local(tuples, ctx, before)
        names, tuples = peek_names(tuples)
        yield from self._return_pass("tuples", names)(ctx, tuples)

    def _tree_label(self) -> str:
        return f"[{', '.join(type(c).__name__ for c in self.clauses)}]"
