"""Tuple streams as DataFrames (paper §4.3).

A FLWOR tuple maps variable names to sequences of items. A tuple
*stream* is highly structured — every tuple has the same in-scope
variables — so it maps to a DataFrame with one column per variable
(§4.3). Each cell holds the JSON serialization of the variable's
sequence (`items.dumps_seq`), the PySpark stand-in for the paper's
"column type is List of Items".

:class:`TupleFrame` wraps the DataFrame with the variable→column
mapping (JSONiq variable names may contain ``-``; columns get fresh
synthetic names). Where Catalyst already computed a variable's §4.7
encoding (a group-by's keys and counts), the frame also keeps it as a
``KEY_STRUCT`` column, so that a stream clause keyed by that variable
(an ``order by`` or another ``group by``) needs no Python pass.

This module is the one tuple-cell codec. :func:`local_pass` is the
paper's ``EVALUATE_EXPRESSION`` UDF for a whole segment: one Arrow pass
runs one generated function (:func:`segment_rows`) that decodes each
row's cells once into locals, runs the tuple through the row-local
clauses (executors never nest Spark jobs, §5.6), and writes the cells
in scope plus the §4.7 typed encoding of the following stream clause's
keys. A cell that no clause of the segment binds is written back as it
came in. It is the one place a segment runs on Spark:
``ClauseIterator.apply_df`` calls it for every clause.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import pyarrow as pa
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import (
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

from ..dynamic_context import DynamicContext
from ..items import TYPE_EMPTY_GREATEST, TYPE_EMPTY_LEAST
from ..iterators.base import worker_task
from ..iterators.basic import VarRefIterator

#: Schema of one encoded grouping/ordering key (§4.7): the three native
#: columns the paper prescribes and an integer residual
#: (``items.encode_key``). A group by restores each key from its
#: variable's own cell.
KEY_STRUCT = StructType(
    [
        StructField("code", IntegerType(), False),
        StructField("s", StringType(), False),
        StructField("d", DoubleType(), False),
        StructField("r", DoubleType(), False),
    ]
)
KEY_FIELDS = tuple(f.name for f in KEY_STRUCT.fields)  # what a key groups and sorts by


def key_struct(fields: dict[str, str]) -> str:
    """The SQL text of a ``KEY_STRUCT`` from the SQL text of its fields."""
    return "named_struct(" + ", ".join(f"'{f}', {fields[f]}" for f in KEY_FIELDS) + ")"


def sql_safe(hint: str) -> str:
    """``hint`` with every character Spark SQL would need backticks
    for replaced by ``_``: column names are written into SQL text."""
    return "".join(ch if ch.isascii() and ch.isalnum() else "_" for ch in hint)


@dataclass
class TupleFrame:
    """A tuple stream in DataFrame form."""

    df: DataFrame
    columns: dict[str, str]  # variable name -> DataFrame column name
    _fresh: int = 0
    #: variable name -> column of ``df`` holding the variable's §4.7
    #: encoding as a ``KEY_STRUCT``, where Catalyst already computed it
    #: (a group-by's keys and counts). An ``order by $var`` sorts by it.
    keys: dict[str, str] = field(default_factory=dict)

    def fresh_col(self, hint: str = "v") -> str:
        self._fresh += 1
        return f"c{self._fresh}_{sql_safe(hint)}"


def segment_rows(clauses, names: list[str], out_vars: list[str], keys):
    """The generated per-row work of :func:`local_pass`, ``f(ctx, rows)``:
    rows of ``names``' cells to the rows of ``out_vars``' cells and key
    structs they become."""
    from .clauses import named_rows, row_function

    # A variable no clause binds keeps its incoming cell, where this
    # function decoded it; any other one is encoded again.
    bound = {v for clause in clauses for v in clause.binds()}

    def sink(b, env):
        # A NULL cell is the empty sequence.
        cells = [f"({b.cells[v]} or EMPTY)" if v in b.cells and v not in bound
                 else f"dumps_seq({env[v]})" for v in out_vars]
        for expr, empty_greatest, label in keys:
            cells.append(b.value(
                f"encode_key({b.emit(expr, env)}, empty_greatest={b.const(empty_greatest)}, "
                f"clause={b.const(label)})"))
        b.line(f"yield [{', '.join(cells)}]")

    return row_function(named_rows(names, cells=True), clauses, sink)


def local_pass(tframe: TupleFrame, clauses, outer_ctx: DynamicContext,
               keys=()) -> tuple[TupleFrame, list[str]]:
    """Run the row-local ``clauses`` over ``tframe`` in one
    ``mapInArrow`` pass. Each row's cells are decoded once and the tuple
    goes through the clauses; every outgoing tuple writes one cell per
    variable in scope and one ``KEY_STRUCT`` per ``(expr,
    empty_greatest, label)`` in ``keys``, the §4.7 encoding of ``expr``
    in that tuple. Returns the new frame and the key columns.

    With no clauses and every key a variable with a column in
    ``tframe.keys`` (a group-by's output), or no key, no pass runs: the
    key columns are those columns, or built from them in the JVM."""
    names = [e.name if isinstance(e, VarRefIterator) else None for e, _, _ in keys]
    if not clauses and all(n in tframe.keys for n in names):
        out = replace(tframe)
        key_cols, keyed = [], {}
        for n, (_, empty_greatest, _) in zip(names, keys):
            k = tframe.keys[n]
            if empty_greatest:  # only the empty sequence's code depends on it
                fields = {f: f"{k}.{f}" for f in KEY_FIELDS}
                fields["code"] = (f"IF({k}.code = {TYPE_EMPTY_LEAST}, "
                                  f"{TYPE_EMPTY_GREATEST}, {k}.code)")
                k = out.fresh_col("key")
                keyed[k] = F.expr(key_struct(fields))
            key_cols.append(k)
        if keyed:
            out.df = out.df.withColumns(keyed)
        return out, key_cols
    out = TupleFrame(tframe.df, dict(tframe.columns), tframe._fresh)
    for clause in clauses:
        for var in clause.binds():
            if var not in out.columns:
                out.columns[var] = out.fresh_col(var)
    key_cols = [out.fresh_col(f"key{i}") for i in range(len(keys))]
    schema = StructType(
        [StructField(c, StringType(), False) for c in out.columns.values()]
        + [StructField(k, KEY_STRUCT, False) for k in key_cols])
    arrow_schema = to_arrow_schema(schema)
    in_cols = list(tframe.columns.values())
    segment = segment_rows(clauses, list(tframe.columns), list(out.columns), keys)

    def run(batches):
        for batch in batches:
            rows = segment(outer_ctx, zip(*[batch.column(c).to_pylist() for c in in_cols]))
            cols = list(zip(*rows)) or [()] * len(arrow_schema)
            yield pa.RecordBatch.from_arrays(
                [pa.array(c, type=f.type) for c, f in zip(cols, arrow_schema)],
                schema=arrow_schema)

    out.df = tframe.df.select(*in_cols).mapInArrow(worker_task(run), schema)
    return out, key_cols
