"""Tuple streams as DataFrames (paper §4.3).

A FLWOR tuple maps variable names to sequences of items. A tuple
*stream* is highly structured — every tuple has the same in-scope
variables — so it maps to a DataFrame with one column per variable
(§4.3). Each cell holds the JSON serialization of the variable's
sequence (`items.dumps_seq`), the PySpark stand-in for the paper's
"column type is List of Items".

:class:`TupleFrame` wraps the DataFrame with the variable→column
mapping (JSONiq variable names may contain ``-``; columns get fresh
synthetic names) and tracks which variables are guaranteed single-item
per tuple (``for``-bound) — the precondition for the §4.7 COUNT
push-down.

This module is the one tuple-cell codec. :func:`tuple_context` builds
the dynamic context of one tuple, for local clauses, clause UDFs and
the return clause alike. :func:`clause_udf` builds the paper's
``EVALUATE_EXPRESSION`` UDFs: each deserializes the variable cells it
reads into that context, evaluates a nested runtime iterator via its
local API (executors never nest Spark jobs, §5.6), and finishes the
result per clause (serialize, explode, boolean, key encoding).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd

from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import (
    DataType,
    DoubleType,
    IntegerType,
    StringType,
    StructField,
    StructType,
)

from ..dynamic_context import DynamicContext
from ..items import Sequence, dumps_seq, encode_key, loads_seq

#: Schema of one encoded grouping/ordering key (§4.7): the three native
#: columns the paper prescribes, plus the serialized original sequence
#: ("canon") used to restore the key binding after GROUP BY — a
#: lossless replacement for the paper's ARRAY_DISTINCT reconstruction.
KEY_STRUCT = StructType(
    [
        StructField("code", IntegerType(), False),
        StructField("s", StringType(), False),
        StructField("d", DoubleType(), False),
        StructField("canon", StringType(), False),
    ]
)


@dataclass
class TupleFrame:
    """A tuple stream in DataFrame form."""

    df: DataFrame
    columns: dict[str, str]  # variable name -> DataFrame column name
    single_item: set[str] = field(default_factory=set)
    _fresh: int = 0

    def fresh_col(self, hint: str = "v") -> str:
        self._fresh += 1
        # Strip characters Spark SQL would need backticks for.
        safe = "".join(ch if ch.isalnum() else "_" for ch in hint)
        return f"c{self._fresh}_{safe}"

    def var_order(self) -> list[str]:
        return list(self.columns)

    def cols(self) -> list:
        return [F.col(self.columns[v]) for v in self.var_order()]


def tuple_context(outer_ctx: DynamicContext, bindings) -> DynamicContext:
    """The dynamic context a clause expression sees in one tuple: the
    outer variables, overridden by ``bindings`` (a tuple dict or
    (name, sequence) pairs)."""
    variables = dict(outer_ctx.variables)
    variables.update(bindings)
    return DynamicContext(variables=variables, config=outer_ctx.config)


# Every clause evaluator is an Arrow-batched pandas UDF: the per-row
# work (deserialize cells → dynamic context → evaluate the nested
# iterator → finish) is unavoidable in any Rumble-style engine, but
# batching removes Spark's per-row pickle dispatch — the PySpark
# counterpart of the paper's serialized-Java-closure efficiency (§5.6).

def clause_udf(expr_iter, names: list[str], outer_ctx: DynamicContext,
               finish: Callable, return_type: DataType):
    """The paper's ``EVALUATE_EXPRESSION`` UDF, applied to the cells of
    the variables ``names``, in that order. Per row it evaluates
    ``expr_iter`` in the tuple's context and returns ``finish`` of the
    sequence; for a struct ``return_type``, ``finish`` returns a tuple."""

    # The hints make pandas_udf build a scalar UDF; a struct
    # return_type takes a DataFrame in place of the Series.
    def f(*cols: pd.Series) -> pd.Series:
        out = [
            finish(expr_iter.materialize(
                tuple_context(outer_ctx, zip(names, map(loads_seq, cells)))))
            for cells in zip(*cols)
        ]
        if isinstance(return_type, StructType):
            return pd.DataFrame(out, columns=return_type.names)
        return pd.Series(out)

    return F.pandas_udf(f, return_type)


def explode_cells(seq: Sequence) -> list[str]:
    """``for`` finisher: one single-item cell per binding, ready for
    EXPLODE (§4.4)."""
    return [dumps_seq([item]) for item in seq]


def key_cells(*, empty_greatest: bool, clause: str) -> Callable:
    """Grouping/ordering key finisher: sequence → (code, s, d, canon),
    the §4.7 typed encoding computed "in pure Java" in the paper, in
    batched Python here (``KEY_STRUCT``)."""

    def finish(seq: Sequence) -> tuple:
        return (*encode_key(seq, empty_greatest=empty_greatest, clause=clause),
                dumps_seq(seq))

    return finish


def merge_sequences_udf():
    """Post-GROUP-BY merge: collect_list of serialized sequences → one
    serialized concatenated sequence (the paper's SEQUENCE() UDAF,
    §4.7, expressed as collect_list + merge)."""

    def f(cells):
        out = []
        for c in cells:
            out.extend(loads_seq(c))
        return dumps_seq(out)

    return F.udf(f, StringType())
