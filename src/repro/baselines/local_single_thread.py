"""Single-threaded JSONiq engines — the Fig. 12 comparison points.

The paper compares Rumble with **Zorba** (the reference C++ JSONiq
engine) and **Xidel** (a Pascal implementation), both single-threaded
and memory-bound: Zorba could not group/sort more than 4 M objects in
16 GB, Xidel ran out of memory on a *filter* at 8 M objects, and both
were capped at 600 s. Neither binary is available offline, so we build
behaviour-preserving stand-ins on our own runtime iterators
(DESIGN.md §4):

* :func:`zorba_like` — a correct, *streaming* single-threaded engine:
  Spark is disabled (``force_local``); filters stream, but group-by /
  order-by must materialize the tuple stream in one process — exactly
  the operation that killed Zorba at scale.
* :func:`xidel_like` — a *naive* single-threaded engine: the output of
  every FLWOR clause, the input's included, is fully materialized, so
  even the filter query holds the whole dataset in memory — matching
  Xidel's earlier failure.

Both accept a wall-clock budget (the paper's 600 s cap, scaled) and an
item cap standing in for the 16 GB memory limit. The engine knows
neither: this module wraps every FLWOR clause of the compiled query in
a :class:`BudgetedClause` that enforces them on the tuple streams.
Exceeding either raises
:class:`~repro.jsoniq.errors.ResourceCapExceeded`, which the harness
reports as DNF, as the paper's figures do.
"""
from __future__ import annotations

import time
from typing import Iterable, Iterator

from ..core import Rumble, RumbleConfig
from ..core.dynamic_context import DynamicContext
from ..core.flwor.clauses import (
    ClauseIterator,
    GroupByClauseIterator,
    LocalTuple,
    OrderByClauseIterator,
)
from ..core.flwor.flwor_iterator import FLWORIterator
from ..jsoniq.errors import DeadlineExceeded, MaterializationCapExceeded

#: Clauses that hold their whole input before they emit a tuple.
_HOLDING = (GroupByClauseIterator, OrderByClauseIterator)


class BudgetedClause(ClauseIterator):
    """Runs ``clause`` locally under a wall-clock ``deadline`` (epoch
    seconds) and an ``item_cap``; None disables either. Items entering a
    clause that holds its input count against the cap; with ``eager``
    (the Xidel-like engine) the clause's output is counted and
    materialized too."""

    def __init__(self, clause: ClauseIterator, deadline: float | None,
                 item_cap: int | None, eager: bool):
        self.clause = clause
        self.deadline = deadline
        self.item_cap = item_cap
        self.eager = eager

    def start_local(self, outer_ctx: DynamicContext):
        return self._emit(self.clause.start_local(outer_ctx))

    def apply_local(self, tuples, outer_ctx):
        held = self._meter(tuples, isinstance(self.clause, _HOLDING))
        return self._emit(self.clause.apply_local(held, outer_ctx))

    def _emit(self, tuples):
        out = self._meter(tuples, self.eager)
        return list(out) if self.eager else out

    def _meter(self, tuples: Iterable[LocalTuple], count: bool) -> Iterator[LocalTuple]:
        """Pass ``tuples`` through, checking the deadline every 256
        tuples and, when ``count``, the items they carry against the
        cap."""
        items = 0
        for n, tup in enumerate(tuples, 1):
            if n & 255 == 0 and self.deadline is not None and time.time() > self.deadline:
                raise DeadlineExceeded("local evaluation exceeded its wall-clock budget")
            if count and self.item_cap is not None:
                items += sum(len(seq) for seq in tup.values())
                if items > self.item_cap:
                    raise MaterializationCapExceeded(
                        f"materialized {items} items, cap is {self.item_cap}"
                    )
            yield tup


def _run(query: str, *, eager: bool, budget_s: float | None,
         item_cap: int | None, cap: int | None):
    deadline = time.time() + budget_s if budget_s is not None else None
    # Zorba/Xidel materialize non-grouping variables (no §4.7 COUNT
    # push-down) — that is what makes the grouping query blow their
    # memory in Fig. 12.
    config = RumbleConfig(force_local=True, enable_optimizations=False)
    root = Rumble(None, config).compile(query)
    pending = [root]
    while pending:
        it = pending.pop()
        if isinstance(it, FLWORIterator):
            it.clauses = [BudgetedClause(c, deadline, item_cap, eager) for c in it.clauses]
        pending.extend(it.children)
    seq = root.materialize(DynamicContext(config=config))
    return seq[:cap] if cap is not None else seq


def zorba_like(query: str, *, budget_s: float | None = None,
               item_cap: int | None = None, cap: int | None = None):
    """Run ``query`` on the streaming single-threaded engine."""
    return _run(query, eager=False, budget_s=budget_s, item_cap=item_cap, cap=cap)


def xidel_like(query: str, *, budget_s: float | None = None,
               item_cap: int | None = None, cap: int | None = None):
    """Run ``query`` on the naive fully-materializing engine."""
    return _run(query, eager=True, budget_s=budget_s, item_cap=item_cap, cap=cap)
