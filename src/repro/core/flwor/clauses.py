"""FLWOR clause runtime iterators (paper §4.4–§4.10, §5.8).

Each clause consumes a tuple stream and produces one. Every clause is a
row-local part (``row_clauses``), the §4.7 keys that part encodes
(``key_specs``) and a step over the whole stream that reads them
(``stream_local``, ``stream_df``). ``for``, ``let`` and ``where`` are
their own row-local part; each writes its code into the one generated
function of a row pipeline (:func:`row_function`): a loop, a local, a
``continue``. ``group by``, ``order by`` and ``count`` define only
their keys and stream step. :class:`ClauseIterator` holds the only
runners: ``apply_local`` over dict tuples (§5.5) and ``apply_df`` over
a :class:`~repro.core.flwor.frame.TupleFrame` (§4.3), whose one Arrow
pass (:func:`~repro.core.flwor.frame.local_pass`) runs the row-local
clauses ``before`` the clause, its own and its keys.

The initial ``for`` clause additionally knows how to *start* a tuple
stream from an RDD of items (the single-column DataFrame of §4.4), and
from a ``json-file()`` without one.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

from pyspark.sql import Observation, functions as F
from pyspark.sql.types import StringType, StructField, StructType

from ..codegen import MAX_DEPTH, Built, Emitter
from ..dynamic_context import DynamicContext
from ..items import TYPE_NUMBER, check_orderable_types, dumps_seq
from ..iterators.base import RuntimeIterator, active_spark, worker_task
from ..iterators.basic import VarRefIterator
from ..query_scope import checkpoint
from .frame import KEY_FIELDS, TupleFrame, key_struct, local_pass, sql_safe

LocalTuple = dict  # var name -> sequence of items


class ClauseIterator(Built):
    """Base of all clause runtime iterators, and their only runners."""

    def exprs(self) -> list[RuntimeIterator]:
        """The expressions this clause evaluates, in source order."""
        return []

    def binds(self) -> list[str]:
        """The variables a row-local clause binds."""
        return []

    def row_clauses(self) -> list[ClauseIterator]:
        """The row-local clauses this clause runs on each tuple."""
        return []

    def key_specs(self) -> list[tuple[RuntimeIterator, bool, str]]:
        """``(expr, empty_greatest, label)`` of each key the stream step reads."""
        return []

    def stream_local(self, pairs: Iterator[tuple[LocalTuple, list]]) -> Iterator[LocalTuple]:
        """The stream step over ``(dict tuple, encoded keys)`` pairs."""
        return (tup for tup, _ in pairs)

    def stream_df(self, tframe: TupleFrame, key_cols: list[str]) -> TupleFrame:
        """The stream step over a frame with a ``KEY_STRUCT`` column per key."""
        return tframe

    def apply_local(self, tuples: Iterable[LocalTuple], outer_ctx: DynamicContext,
                    before=()) -> Iterator[LocalTuple]:
        """This clause over dict tuples of the FLWOR's own variables."""
        keys = self.key_specs()

        def sink(b: Emitter, env: dict[str, str]) -> None:
            # Each key is evaluated and encoded before the next one.
            encoded = [b.value(f"encode_key({b.emit(expr, env)}, "
                               f"empty_greatest={b.const(eg)}, clause={b.const(label)})")
                       for expr, eg, label in keys]
            tup = ", ".join(f"{b.const(v)}: {local}" for v, local in env.items())
            b.line(f"yield {{{tup}}}, [{', '.join(encoded)}]")

        def pairs():
            names, stream = peek_names(tuples)
            run = self.built((tuple(before), names), lambda: row_function(
                named_rows(names), [*before, *self.row_clauses()], sink))
            yield from run(outer_ctx, stream)

        return self.stream_local(pairs())

    def apply_df(self, tframe: TupleFrame, outer_ctx: DynamicContext,
                 before=()) -> TupleFrame:
        """This clause over a tuple-stream frame: one pass (if any) runs
        ``before``, the row-local part and the keys, then the stream step."""
        return self.stream_df(*local_pass(
            tframe, [*before, *self.row_clauses()], outer_ctx, self.key_specs()))


class RowLocalClause(ClauseIterator):
    """A clause that maps one tuple to tuples on its own (§4.4–§4.6)."""

    def row_clauses(self) -> list[ClauseIterator]:
        return [self]


class ForClauseIterator(RowLocalClause):
    """``for $v in e`` — one outgoing tuple per item (§4.4)."""

    def __init__(self, var: str, expr: RuntimeIterator,
                 allowing_empty: bool = False, position_var: str | None = None):
        self.var = var
        self.expr = expr
        self.allowing_empty = allowing_empty
        self.position_var = position_var

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def binds(self):
        return [self.var, self.position_var] if self.position_var else [self.var]

    # -- start of the FLWOR pipeline ------------------------------------
    def starts_rdd(self, outer_ctx: DynamicContext) -> bool:
        """Whether this (first) clause can create the initial DataFrame
        from an RDD (§4.4 / §5.8). Positional variables stay local, as
        in the paper (the count clause covers that use case)."""
        return (
            self.position_var is None
            and not self.allowing_empty
            and self.expr.supports_rdd(outer_ctx)
        )

    def start_df(self, outer_ctx: DynamicContext) -> TupleFrame:
        """Create the single-column DataFrame from the expression's RDD,
        'in parallel on the cluster' (§4.4): no driver materialization.
        A json-file() source builds its cells in the JVM: each input
        line already is the item's JSON."""
        from ..iterators.input import JsonFileIterator

        col = "c0_" + sql_safe(self.var)
        if isinstance(self.expr, JsonFileIterator):
            df = self.expr.cell_df(outer_ctx, col)
        else:
            rows = self.expr.get_rdd(outer_ctx).mapPartitions(worker_task(
                lambda items: ((dumps_seq([item]),) for item in items)))
            schema = StructType([StructField(col, StringType(), False)])
            # verifySchema would re-check every row in Python; the mapper
            # above guarantees the single string column.
            df = active_spark().createDataFrame(rows, schema=schema, verifySchema=False)
        return TupleFrame(df, {self.var: col})

    def emit_row(self, b: Emitter, env: dict[str, str]) -> dict[str, str]:
        return self.emit_loop(b, env, b.iterate(self.expr, env))

    def emit_loop(self, b: Emitter, env: dict[str, str], items: str) -> dict[str, str]:
        """A loop over ``items`` that binds each one, open to the end of
        the pipeline. It pulls one item at a time (§5.5): the initial
        `for` over json-file() must not hold the input in memory — that
        streaming is exactly what lets the Zorba-like engine run the
        filter query at any size while group/sort blow up (Fig. 12)."""
        var, item, pos = b.tmp("v"), b.tmp(), b.tmp("p")
        if self.allowing_empty:
            b.open(f"for {pos}, {var} in allowing_empty({items})")
        else:
            b.open(f"for {pos}, {item} in enumerate({items}, 1)" if self.position_var
                   else f"for {item} in {items}")
            b.line(f"{var} = [{item}]")
        env = {**env, self.var: var}
        if self.position_var:
            env[self.position_var] = b.tmp("v")
            b.line(f"{env[self.position_var]} = [{pos}]")
        return env


class LetClauseIterator(RowLocalClause):
    """``let $v := e`` — extended projection without EXPLODE (§4.5)."""

    def __init__(self, var: str, expr: RuntimeIterator):
        self.var = var
        self.expr = expr

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def binds(self):
        return [self.var]

    def emit_row(self, b: Emitter, env: dict[str, str]) -> dict[str, str]:
        var = b.tmp("v")
        b.line(f"{var} = {b.emit(self.expr, env)}")
        return {**env, self.var: var}


class WhereClauseIterator(RowLocalClause):
    """``where e`` — selection by effective boolean value (§4.6)."""

    def __init__(self, expr: RuntimeIterator):
        self.expr = expr

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def emit_row(self, b: Emitter, env: dict[str, str]) -> dict[str, str]:
        seq = b.value(b.emit(self.expr, env))
        # [True] and [False] decide without a call.
        with b.block(f"if {seq} != TRUE and ({seq} == FALSE or not ebv({seq}))"):
            b.line("continue")
        return env


def row_function(head: Callable[[Emitter], dict[str, str]], clauses: list[ClauseIterator],
                 sink: Callable[[Emitter, dict[str, str]], None]) -> Callable:
    """One generated function ``f(ctx, rows)`` for a row pipeline:
    ``head`` opens the loop over ``rows`` and binds each row's
    variables, the row-local ``clauses`` follow (a ``for`` nests a
    loop, a ``let`` binds a local, a ``where`` continues), and ``sink``
    yields what each resulting tuple gives. ``ctx`` holds the variables
    bound outside the FLWOR. A Spark pass ships the function itself,
    built on the driver (:class:`~repro.core.codegen.Generated`)."""
    b = Emitter()
    env = head(b)
    for i, clause in enumerate(clauses):
        if b.depth > MAX_DEPTH:
            # The rest of the pipeline is a function of its own, over
            # this one tuple.
            rest = row_function(named_rows(tuple(env)), clauses[i:], sink)
            tup = ", ".join(f"{b.const(v)}: {local}" for v, local in env.items())
            b.line(f"yield from {b.const(rest)}(ctx, ({{{tup}}},))")
            return b.function("ctx, rows")
        env = clause.emit_row(b, env)
    sink(b, env)
    return b.function("ctx, rows")


def named_rows(names: tuple[str, ...], cells: bool = False):
    """A head over rows of ``names``: dict tuples, or with ``cells`` rows
    of their serialized cells, each decoded once."""
    def head(b: Emitter) -> dict[str, str]:
        b.open("for row in rows")
        env = {name: b.tmp("v") for name in names}
        for i, (name, local) in enumerate(env.items()):
            if cells:
                b.cells[name] = f"row[{i}]"
                b.line(f"{local} = loads_seq(row[{i}])")
            else:
                b.line(f"{local} = row[{b.const(name)}]")
        return env

    return head


def peek_names(tuples: Iterable[LocalTuple]) -> tuple[tuple[str, ...], Iterator[LocalTuple]]:
    """The variables of a dict tuple stream, read from its first tuple
    (every tuple of a stream binds the same ones), and the stream."""
    stream = iter(tuples)
    first = next(stream, None)
    if first is None:
        return (), stream
    return tuple(first), itertools.chain([first], stream)


class GroupByClauseIterator(ClauseIterator):
    """``group by $k (:= e)?ⁿ`` (§4.7).

    Keys are encoded into the three native columns of §4.7; each group
    restores a key from the first cell of the key's variable, as the
    paper's ARRAY_DISTINCT over that column does. Non-grouping variables
    are aggregated per ``aggregations[var]``:

    * ``"materialize"`` — concatenated into one sequence (default
      JSONiq semantics; collect_list + merge = the paper's SEQUENCE()),
    * ``"count"`` — Spark COUNT instead of materializing (§4.7's
      optimization; only valid for single-item variables, enforced by
      the optimizer),
    * ``"drop"`` — not used downstream: no column at all (§4.7).
    """

    def __init__(self, keys: list[tuple[str, RuntimeIterator | None]],
                 aggregations: dict[str, str] | None = None):
        self.keys = keys
        self.aggregations = aggregations or {}

    def exprs(self) -> list[RuntimeIterator]:
        return [e for _, e in self.keys if e is not None]

    def _mode(self, var: str) -> str:
        return self.aggregations.get(var, "materialize")

    def row_clauses(self) -> list[ClauseIterator]:
        # A := key is bound like a let before it is encoded.
        return [LetClauseIterator(v, e) for v, e in self.keys if e is not None]

    def key_specs(self):
        return [(VarRefIterator(v), False, "group-by key") for v, _ in self.keys]

    def stream_local(self, pairs):
        # Aggregation modes matter for memory here exactly as they do
        # for Spark (§4.7): count-mode variables accumulate an integer,
        # dropped variables accumulate nothing, and only materialized
        # variables hold their items.
        groups: dict[tuple, dict] = {}
        key_vars = [v for v, _ in self.keys]
        modes: dict[str, str] | None = None
        for tup, enc in pairs:
            if modes is None:
                modes = {v: "key" if v in key_vars else self._mode(v) for v in tup}
            grp = groups.get(enc := tuple(enc))
            if grp is None:
                grp = groups[enc] = {v: tup[v] if m == "key" else 0 if m == "count" else []
                                     for v, m in modes.items() if m != "drop"}
            for v, seq in tup.items():
                mode = modes[v]
                if mode == "count":
                    grp[v] += len(seq)
                elif mode == "materialize":
                    grp[v].extend(seq)
        for grp in groups.values():
            yield {v: [acc] if modes[v] == "count" else acc for v, acc in grp.items()}

    def stream_df(self, tframe, key_cols):
        # The pass has bound the := keys like lets and encoded every key
        # into the typed columns of §4.7 (or a group by before kept them).
        # Two keys over one group-by output share its key column.
        key_vars = [v for v, _ in self.keys]
        group_cols = dict.fromkeys(f"{k}.{f} AS {k}_{f}" for k in key_cols for f in KEY_FIELDS)

        # Aggregate. A materialized variable's cells are merged in the
        # JVM: the JSON arrays' bodies, the empty ones dropped, joined by
        # commas (the paper's SEQUENCE() UDAF, §4.7). Each key and each
        # count also keeps its §4.7 encoding as a column for an
        # `order by` that follows. A key is restored from its variable's
        # own cell, as on the local path (the paper's ARRAY_DISTINCT over
        # the key column). A key bound outside the FLWOR has no column:
        # it is read from the outer context downstream.
        aggs, cells, keys = [], {}, {}
        for var, k in zip(key_vars, key_cols):
            if var in tframe.columns:
                cells[var] = tframe.fresh_col(var + "_first")
                aggs.append(f"first({tframe.columns[var]}) AS {cells[var]}")
            keys[var] = key_struct({f: f"{k}_{f}" for f in KEY_FIELDS})
        for var, col in tframe.columns.items():
            if var in key_vars:
                continue
            mode = self._mode(var)
            if mode == "drop":
                continue
            out = tframe.fresh_col(var + "_agg")
            if mode == "count":
                aggs.append(f"count({col}) AS {out}")
                cells[var] = f"concat('[', CAST({out} AS STRING), ']')"
                keys[var] = key_struct({"code": str(TYPE_NUMBER), "s": "''",
                                        "d": f"CAST({out} AS DOUBLE)", "r": "0D"})
            else:
                aggs.append(
                    f"concat('[', array_join(filter(transform(collect_list({col}), "
                    f"c -> substr(c, 2, length(c) - 2)), b -> b != ''), ','), ']') AS {out}")
                cells[var] = out
        out_columns = {var: tframe.fresh_col(var) for var in cells}
        key_columns = {var: tframe.fresh_col(var + "_key") for var in keys}
        grouped = tframe.df.groupBy(*map(F.expr, group_cols)).agg(*map(F.expr, aggs)).selectExpr(
            *[f"{c} AS {out_columns[v]}" for v, c in cells.items()],
            *[f"{c} AS {key_columns[v]}" for v, c in keys.items()])
        return TupleFrame(grouped, out_columns, tframe._fresh, key_columns)


class OrderByClauseIterator(ClauseIterator):
    """``order by e (ascending|descending)? (empty greatest|least)?ⁿ``
    (§4.8): a first pass discovers types and raises on incompatible
    ones, then the typed columns feed Spark SQL ORDER BY, or a sort
    within the one partition the first pass left."""

    def __init__(self, specs: list[tuple[RuntimeIterator, bool, bool]]):
        # spec = (expr_iter, ascending, empty_greatest)
        self.specs = specs

    def exprs(self) -> list[RuntimeIterator]:
        return [e for e, _, _ in self.specs]

    def key_specs(self):
        return [(expr, eg, "order-by key") for expr, _, eg in self.specs]

    def stream_local(self, pairs):
        rows = list(pairs)
        for i in range(len(self.specs)):
            check_orderable_types({keys[i][0] for _, keys in rows}, f"order-by key #{i + 1}")
        # Stable multi-key sort: sort by the last spec first.
        for i in reversed(range(len(self.specs))):
            asc = self.specs[i][1]
            rows.sort(key=lambda r, i=i: r[1][i], reverse=not asc)
        for tup, _keys in rows:
            yield tup

    def stream_df(self, tframe, key_cols):
        # First pass (§4.8): one job evaluates the keys, checkpoints the
        # keyed frame and observes the type codes under each key.
        # Incompatible types throw before sorting. The sort reads the
        # checkpoint, so the segment pass does not run twice. A
        # checkpoint of one partition (adaptive execution coalesces a
        # small group-by output to one) is sorted in place: that is
        # already a total order, with no sampling job and no shuffle.
        codes = Observation()
        df = checkpoint(tframe.df.observe(
            codes, *[F.expr(f"collect_set({k}.code) AS cs{i}") for i, k in enumerate(key_cols)]))
        seen = codes.get
        for i in range(len(key_cols)):
            check_orderable_types(set(seen[f"cs{i}"]), f"order-by key #{i + 1}")

        # The key columns stay: every step after this one reads its
        # columns by name.
        order = [(F.asc if asc else F.desc)(f"{k}.{f}")
                 for k, (_, asc, _) in zip(key_cols, self.specs) for f in KEY_FIELDS]
        one = df._jdf.queryExecution().logical().rdd().getNumPartitions() <= 1
        tframe.df = (df.sortWithinPartitions if one else df.orderBy)(*order)
        return tframe


class CountClauseIterator(ClauseIterator):
    """``count $v`` — 1-based tuple position (§4.9): zipWithIndex, the
    partition-offset technique (Spark's zipWithIndex computes partition
    sizes and cumulative offsets — the Glotov StackOverflow solution
    cited by the paper does exactly this on DataFrames)."""

    def __init__(self, var: str):
        self.var = var

    def stream_local(self, pairs):
        for i, (tup, _) in enumerate(pairs, start=1):
            tup[self.var] = [i]
            yield tup

    def stream_df(self, tframe, key_cols):
        new = tframe.fresh_col(self.var)
        df = tframe.df.select(*tframe.columns.values())
        schema = StructType(list(df.schema.fields) + [StructField(new, StringType(), False)])
        rows = df.rdd.zipWithIndex().mapPartitions(worker_task(
            lambda pairs: (tuple(row) + (dumps_seq([i + 1]),) for row, i in pairs)))
        df = active_spark().createDataFrame(rows, schema=schema, verifySchema=False)
        return TupleFrame(df, {**tframe.columns, self.var: new}, tframe._fresh)
