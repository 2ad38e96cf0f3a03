"""FLWOR clause runtime iterators (paper §4.4–§4.10, §5.8).

Each clause consumes a tuple stream and produces a tuple stream, via
two interchangeable implementations:

* ``apply_local(tuples, outer_ctx)`` — pull-based local execution
  (§5.5): tuples are plain ``dict[var, sequence]``.
* ``apply_df(tframe, outer_ctx)`` — DataFrame execution (§4.3): the
  tuple stream is a :class:`~repro.core.flwor.frame.TupleFrame` and
  clause semantics are Spark SQL operations.

The initial ``for`` clause additionally knows how to *start* a tuple
stream — from an RDD of items when its expression supports the RDD API
(creating the single-column DataFrame of §4.4), or locally otherwise.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from pyspark.sql import Observation, functions as F
from pyspark.sql.types import ArrayType, BooleanType, StringType, StructField, StructType

from ..dynamic_context import DynamicContext
from ..items import (
    check_orderable_types,
    dumps_seq,
    effective_boolean_value,
    encode_key,
)
from ..iterators.base import RuntimeIterator, active_spark
from ..query_scope import checkpoint
from .frame import (
    KEY_STRUCT,
    TupleFrame,
    clause_udf,
    explode_cells,
    key_cells,
    merge_sequences_udf,
    tuple_context,
)

LocalTuple = dict  # var name -> sequence of items


class ClauseIterator:
    """Base of all clause runtime iterators."""

    def bound_vars(self) -> list[str]:
        """Variables this clause introduces into the tuple stream."""
        return []

    def exprs(self) -> list[RuntimeIterator]:
        """The expressions this clause evaluates, in source order."""
        return []

    def supports_df(self) -> bool:
        """Whether this clause has a DataFrame implementation. Positional
        ``for`` variables don't (§4.4: "not supported yet, the count
        clause offers this feature"); everything else does."""
        return True

    def apply_local(self, tuples: Iterable[LocalTuple],
                    outer_ctx: DynamicContext) -> Iterator[LocalTuple]:
        raise NotImplementedError

    def apply_df(self, tframe: TupleFrame, outer_ctx: DynamicContext) -> TupleFrame:
        raise NotImplementedError


class ForClauseIterator(ClauseIterator):
    """``for $v in e`` — one outgoing tuple per item (§4.4)."""

    def __init__(self, var: str, expr: RuntimeIterator,
                 allowing_empty: bool = False, position_var: str | None = None):
        self.var = var
        self.expr = expr
        self.allowing_empty = allowing_empty
        self.position_var = position_var

    def bound_vars(self) -> list[str]:
        return [self.var] + ([self.position_var] if self.position_var else [])

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def supports_df(self) -> bool:
        return self.position_var is None

    # -- start of the FLWOR pipeline ------------------------------------
    def starts_rdd(self, outer_ctx: DynamicContext) -> bool:
        """Whether this (first) clause can create the initial DataFrame
        from an RDD (§4.4 / §5.8). Positional variables stay local, as
        in the paper (the count clause covers that use case)."""
        return (
            self.position_var is None
            and not self.allowing_empty
            and active_spark() is not None
            and self.expr.supports_rdd(outer_ctx)
        )

    def start_df(self, outer_ctx: DynamicContext) -> TupleFrame:
        """Create the single-column DataFrame from the expression's RDD,
        'in parallel on the cluster' (§4.4): no driver materialization.
        A json-file() source short-circuits: each input line already is
        the item's JSON, so the cell is built by string wrapping."""
        from ..iterators.input import JsonFileIterator

        spark = active_spark()
        col = "c0_" + "".join(ch if ch.isalnum() else "_" for ch in self.var)
        if isinstance(self.expr, JsonFileIterator):
            rows = self.expr.get_cell_rdd(outer_ctx).map(lambda cell: (cell,))
        else:
            rdd = self.expr.get_rdd(outer_ctx)
            rows = rdd.map(lambda item: (dumps_seq([item]),))
        schema = StructType([StructField(col, StringType(), False)])
        # verifySchema would re-check every row in Python; the mapper
        # above guarantees the single string column.
        df = spark.createDataFrame(rows, schema=schema, verifySchema=False)
        return TupleFrame(df, {self.var: col}, single_item={self.var})

    def start_local(self, outer_ctx: DynamicContext) -> Iterator[LocalTuple]:
        yield from self.apply_local(iter([{}]), outer_ctx)

    # -- as a non-initial clause -----------------------------------------
    def apply_local(self, tuples, outer_ctx):
        # Streams the binding sequence through the pull API (§5.5): the
        # initial `for` over json-file() must not hold the input in
        # memory — that streaming is exactly what lets the Zorba-like
        # single-threaded engine run the filter query at any size
        # while group/sort blow up (Fig. 12).
        for tup in tuples:
            ctx = tuple_context(outer_ctx, tup)
            idx = 0
            for item in self.expr.iter_items(ctx):
                idx += 1
                out = dict(tup)
                out[self.var] = [item]
                if self.position_var:
                    out[self.position_var] = [idx]
                yield out
            if idx == 0 and self.allowing_empty:
                out = dict(tup)
                out[self.var] = []
                if self.position_var:
                    out[self.position_var] = [0]
                yield out

    def apply_df(self, tframe, outer_ctx):
        # Extended projection + EXPLODE (§4.4). The UDF evaluates the
        # for-expression per incoming tuple and returns one serialized
        # single-item sequence per binding.
        udf = clause_udf(self.expr, tframe.var_order(), outer_ctx,
                         explode_cells, ArrayType(StringType()))
        tmp = tframe.fresh_col(self.var + "_all")
        new = tframe.fresh_col(self.var)
        df = tframe.df.withColumn(tmp, udf(*tframe.cols()))
        if self.allowing_empty:
            df = df.withColumn(new, F.explode_outer(tmp)).drop(tmp)
            df = df.withColumn(new, F.coalesce(F.col(new), F.lit(dumps_seq([]))))
        else:
            df = df.withColumn(new, F.explode(tmp)).drop(tmp)
        columns = dict(tframe.columns)
        columns[self.var] = new
        single = set(tframe.single_item)
        if self.allowing_empty:
            single.discard(self.var)
        else:
            single.add(self.var)
        return TupleFrame(df, columns, single, tframe._fresh)


class LetClauseIterator(ClauseIterator):
    """``let $v := e`` — extended projection without EXPLODE (§4.5)."""

    def __init__(self, var: str, expr: RuntimeIterator):
        self.var = var
        self.expr = expr

    def bound_vars(self) -> list[str]:
        return [self.var]

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def start_local(self, outer_ctx: DynamicContext) -> Iterator[LocalTuple]:
        # A FLWOR starting with `let` runs locally (§4.5).
        yield from self.apply_local(iter([{}]), outer_ctx)

    def apply_local(self, tuples, outer_ctx):
        for tup in tuples:
            ctx = tuple_context(outer_ctx, tup)
            out = dict(tup)
            out[self.var] = self.expr.materialize(ctx)
            yield out

    def apply_df(self, tframe, outer_ctx):
        udf = clause_udf(self.expr, tframe.var_order(), outer_ctx,
                         dumps_seq, StringType())
        new = tframe.fresh_col(self.var)
        df = tframe.df.withColumn(new, udf(*tframe.cols()))
        columns = dict(tframe.columns)
        old = columns.get(self.var)
        columns[self.var] = new
        if old is not None:
            # Variable redeclaration: the prior binding becomes a hidden
            # column and is dropped from the outgoing DataFrame (§4.5).
            df = df.drop(old)
        single = set(tframe.single_item)
        single.discard(self.var)
        return TupleFrame(df, columns, single, tframe._fresh)


class WhereClauseIterator(ClauseIterator):
    """``where e`` — selection by effective boolean value (§4.6)."""

    def __init__(self, expr: RuntimeIterator):
        self.expr = expr

    def exprs(self) -> list[RuntimeIterator]:
        return [self.expr]

    def apply_local(self, tuples, outer_ctx):
        for tup in tuples:
            ctx = tuple_context(outer_ctx, tup)
            if effective_boolean_value(self.expr.materialize(ctx)):
                yield tup

    def apply_df(self, tframe, outer_ctx):
        udf = clause_udf(self.expr, tframe.var_order(), outer_ctx,
                         effective_boolean_value, BooleanType())
        return TupleFrame(
            tframe.df.filter(udf(*tframe.cols())),
            dict(tframe.columns),
            set(tframe.single_item),
            tframe._fresh,
        )


class GroupByClauseIterator(ClauseIterator):
    """``group by $k (:= e)?ⁿ`` (§4.7).

    Keys are encoded into the three native columns of §4.7 (plus the
    lossless serialized key used to restore the binding, replacing the
    paper's ARRAY_DISTINCT). Non-grouping variables are aggregated per
    ``aggregations[var]``:

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

    def bound_vars(self) -> list[str]:
        return [v for v, e in self.keys if e is not None]

    def exprs(self) -> list[RuntimeIterator]:
        return [e for _, e in self.keys if e is not None]

    def _mode(self, var: str) -> str:
        return self.aggregations.get(var, "materialize")

    # -- local ------------------------------------------------------------
    def apply_local(self, tuples, outer_ctx):
        # Aggregation modes matter for memory here exactly as they do
        # for Spark (§4.7): count-mode variables accumulate an integer,
        # dropped variables accumulate nothing, and only materialized
        # variables hold their items.
        groups: dict[tuple, dict] = {}
        key_vars = [v for v, _ in self.keys]
        modes: dict[str, str] | None = None
        for tup in tuples:
            tup = dict(tup)
            for var, expr in self.keys:
                if expr is not None:
                    tup[var] = expr.materialize(tuple_context(outer_ctx, tup))
            if modes is None:
                modes = {
                    v: ("key" if v in key_vars else self._mode(v)) for v in tup
                }
            enc = tuple(
                encode_key(tup[var], clause="group-by key") for var, _ in self.keys
            )
            grp = groups.get(enc)
            if grp is None:
                grp = {}
                for v, seq in tup.items():
                    mode = modes[v]
                    if mode == "key":
                        grp[v] = seq
                    elif mode == "count":
                        grp[v] = len(seq)
                    elif mode == "materialize":
                        grp[v] = list(seq)
                groups[enc] = grp
            else:
                for v, seq in tup.items():
                    mode = modes[v]
                    if mode == "count":
                        grp[v] += len(seq)
                    elif mode == "materialize":
                        grp[v].extend(seq)
        for grp in groups.values():
            out = {}
            for v, acc in grp.items():
                mode = modes[v] if modes else "materialize"
                if mode == "count":
                    out[v] = [acc]
                else:
                    out[v] = acc
            yield out

    # -- DataFrame ---------------------------------------------------------
    def apply_df(self, tframe, outer_ctx):
        df = tframe.df
        columns = dict(tframe.columns)
        key_vars = [v for v, _ in self.keys]

        # 1. Bind := keys (extended projection, like let).
        work = TupleFrame(df, columns, set(tframe.single_item), tframe._fresh)
        for var, expr in self.keys:
            if expr is not None:
                work = LetClauseIterator(var, expr).apply_df(work, outer_ctx)
        df, columns = work.df, work.columns

        # 2. Typed encoding columns per key (§4.7), each from its own column.
        from ..iterators.basic import VarRefIterator

        key_structs = {}
        for var in key_vars:
            udf = clause_udf(VarRefIterator(var), [var], outer_ctx,
                             key_cells(empty_greatest=False, clause="group-by key"),
                             KEY_STRUCT)
            kcol = work.fresh_col(var + "_key")
            df = df.withColumn(kcol, udf(F.col(columns[var])))
            key_structs[var] = kcol

        group_cols = []
        for var in key_vars:
            k = key_structs[var]
            group_cols += [F.col(f"{k}.code"), F.col(f"{k}.s"), F.col(f"{k}.d")]

        # 3. Aggregate.
        aggs = []
        out_columns: dict[str, str] = {}
        single_out: set[str] = set()
        for var in key_vars:
            canon = work.fresh_col(var + "_canon")
            aggs.append(F.first(F.col(f"{key_structs[var]}.canon")).alias(canon))
            out_columns[var] = canon
            single_out.add(var)
        merge = merge_sequences_udf()
        post: list[tuple[str, str]] = []  # (col, mode) for post-processing
        for var, col in columns.items():
            if var in key_vars:
                continue
            mode = self._mode(var)
            if mode == "drop":
                continue
            out = work.fresh_col(var + "_agg")
            if mode == "count":
                aggs.append(
                    F.concat(F.lit("["), F.count(F.col(col)).cast("string"), F.lit("]")).alias(out)
                )
                single_out.add(var)
            else:
                aggs.append(F.collect_list(F.col(col)).alias(out))
                post.append((out, "merge"))
            out_columns[var] = out
        grouped = df.groupBy(*group_cols).agg(*aggs)
        for out, _ in post:
            grouped = grouped.withColumn(out, merge(F.col(out)))
        grouped = grouped.select(*[out_columns[v] for v in out_columns])
        return TupleFrame(grouped, out_columns, single_out, work._fresh)


class OrderByClauseIterator(ClauseIterator):
    """``order by e (ascending|descending)? (empty greatest|least)?ⁿ``
    (§4.8): a first pass discovers types and raises on incompatible
    ones, then the typed columns feed Spark SQL ORDER BY."""

    def __init__(self, specs: list[tuple[RuntimeIterator, bool, bool]]):
        # spec = (expr_iter, ascending, empty_greatest)
        self.specs = specs

    def exprs(self) -> list[RuntimeIterator]:
        return [e for e, _, _ in self.specs]

    # -- local ---------------------------------------------------------------
    def apply_local(self, tuples, outer_ctx):
        rows = []
        codes: list[set[int]] = [set() for _ in self.specs]
        for tup in tuples:
            ctx = tuple_context(outer_ctx, tup)
            keys = []
            for i, (expr, _asc, eg) in enumerate(self.specs):
                enc = encode_key(
                    expr.materialize(ctx), empty_greatest=eg, clause="order-by key"
                )
                codes[i].add(enc[0])
                keys.append(enc)
            rows.append((keys, tup))
        for i, cs in enumerate(codes):
            check_orderable_types(cs, f"order-by key #{i + 1}")
        # Stable multi-key sort: sort by the last spec first.
        for i in reversed(range(len(self.specs))):
            asc = self.specs[i][1]
            rows.sort(key=lambda r, i=i: r[0][i], reverse=not asc)
        for _keys, tup in rows:
            yield tup

    # -- DataFrame --------------------------------------------------------------
    def apply_df(self, tframe, outer_ctx):
        df = tframe.df
        key_cols = []
        for i, (expr, asc, eg) in enumerate(self.specs):
            udf = clause_udf(expr, tframe.var_order(), outer_ctx,
                             key_cells(empty_greatest=eg, clause="order-by key"),
                             KEY_STRUCT)
            kcol = tframe.fresh_col(f"sort{i}")
            df = df.withColumn(kcol, udf(*tframe.cols()))
            key_cols.append((kcol, asc))

        # First pass (§4.8): one job evaluates the keys, checkpoints the
        # keyed frame and observes the type codes under each key.
        # Incompatible types throw before sorting. The sort reads the
        # checkpoint, so no upstream clause UDF runs twice.
        codes = Observation()
        df = checkpoint(df.observe(
            codes,
            *[F.collect_set(F.col(f"{k}.code")).alias(f"cs{i}") for i, (k, _) in enumerate(key_cols)],
        ))
        seen = codes.get
        for i in range(len(key_cols)):
            check_orderable_types(set(seen[f"cs{i}"]), f"order-by key #{i + 1}")

        order = []
        for kcol, asc in key_cols:
            for f in ("code", "s", "d"):
                c = F.col(f"{kcol}.{f}")
                order.append(c.asc() if asc else c.desc())
        df = df.orderBy(*order).drop(*[k for k, _ in key_cols])
        return TupleFrame(df, dict(tframe.columns), set(tframe.single_item), tframe._fresh)


class CountClauseIterator(ClauseIterator):
    """``count $v`` — 1-based tuple position (§4.9): zipWithIndex, the
    partition-offset technique (Spark's zipWithIndex computes partition
    sizes and cumulative offsets — the Glotov StackOverflow solution
    cited by the paper does exactly this on DataFrames)."""

    def __init__(self, var: str):
        self.var = var

    def bound_vars(self) -> list[str]:
        return [self.var]

    def apply_local(self, tuples, outer_ctx):
        for i, tup in enumerate(tuples, start=1):
            out = dict(tup)
            out[self.var] = [i]
            yield out

    def apply_df(self, tframe, outer_ctx):
        new = tframe.fresh_col(self.var)
        schema = StructType(
            list(tframe.df.schema.fields) + [StructField(new, StringType(), False)]
        )
        rows = tframe.df.rdd.zipWithIndex().map(
            lambda pair: tuple(pair[0]) + (dumps_seq([pair[1] + 1]),)
        )
        spark = active_spark()
        df = spark.createDataFrame(rows, schema=schema, verifySchema=False)
        columns = dict(tframe.columns)
        columns[self.var] = new
        single = set(tframe.single_item) | {self.var}
        return TupleFrame(df, columns, single, tframe._fresh)
