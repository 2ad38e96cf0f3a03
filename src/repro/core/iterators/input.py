"""Input-source iterators (paper §5.7): ``json-file()`` and
``parallelize()``.

``json-file(path[, partitions])`` logically returns the sequence of
JSON objects in a JSON-Lines file; physically an RDD built with
Spark's ``textFile`` + a per-partition JSON parse — the PySpark
equivalent of the paper's ``mapPartitions`` + JSONiter streaming
parser. ``path`` may be a comma-separated list of paths, which is how
the large-scale experiments replicate a dataset N× without writing N
copies (Hadoop's text input accepts comma-joined paths).

When Spark is unavailable (executor side) or disabled
(``config.force_local``), the file is streamed line-by-line in-process.

``parallelize(expr[, num_slices])`` materializes its argument locally
and ships it to the cluster — the JSONiq wrapper over Spark's
``parallelize`` described in §5.7, and the trigger for Spark-enabled
FLWOR behaviour in tests.
"""
from __future__ import annotations

import json
from typing import Iterator

from ...jsoniq.errors import DynamicError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import Item, is_number
from .base import RuntimeIterator, active_spark


def _parse_lines(lines) -> Iterator[Item]:
    for line in lines:
        line = line.strip()
        if line:
            yield json.loads(line)


def _wrap_lines(lines) -> Iterator[str]:
    """One JSON-Lines line → the JSON serialization of the single-item
    sequence holding it (see ``items.dumps_seq``), without parsing."""
    for line in lines:
        line = line.strip()
        if line:
            yield "[" + line + "]"


class JsonFileIterator(RuntimeIterator):
    """``json-file(path[, partitions])`` — JSON-Lines source."""

    is_source = True

    def __init__(self, path_iter: RuntimeIterator,
                 partitions_iter: RuntimeIterator | None = None):
        super().__init__([path_iter] + ([partitions_iter] if partitions_iter else []))
        self.path_iter = path_iter
        self.partitions_iter = partitions_iter

    def _path(self, ctx: DynamicContext) -> str:
        seq = self.path_iter.materialize(ctx)
        if len(seq) != 1 or not isinstance(seq[0], str):
            raise TypeError_("json-file() path must be a single string")
        return seq[0]

    def _partitions(self, ctx: DynamicContext) -> int | None:
        if self.partitions_iter is None:
            return None
        seq = self.partitions_iter.materialize(ctx)
        if len(seq) != 1 or not is_number(seq[0]):
            raise TypeError_("json-file() partitions must be a single number")
        return int(seq[0])

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return not ctx.config.force_local and active_spark() is not None

    def _text_rdd(self, ctx: DynamicContext):
        spark = active_spark()
        if spark is None:
            raise DynamicError("json-file(): no active SparkSession on this side")
        path = self._path(ctx)
        n = self._partitions(ctx)
        sc = spark.sparkContext
        if n:
            # textFile treats minPartitions as a floor; coalesce enforces
            # the exact parallelism the T4 speedup sweep asks for.
            return sc.textFile(path, minPartitions=n).coalesce(n)
        # Unlike a pure JVM scan, the engine's per-item work runs in
        # Python workers, so the default Hadoop split (32 MB) would
        # leave most cores idle on laptop-sized files. Default the
        # partition floor to the cluster parallelism — the same knob
        # Rumble exposes as json-file()'s second argument (§5.7).
        return sc.textFile(path, minPartitions=sc.defaultParallelism)

    def get_rdd(self, ctx: DynamicContext):
        return self._text_rdd(ctx).mapPartitions(_parse_lines)

    def get_cell_rdd(self, ctx: DynamicContext):
        """RDD of serialized single-item sequences, one per input line —
        each JSON-Lines line already *is* the item's serialization, so
        an initial ``for`` clause can bootstrap its tuple-stream
        DataFrame without a parse+re-serialize round trip (the paper's
        equivalent: JSONiter streams straight into Items, §5.7)."""
        return self._text_rdd(ctx).mapPartitions(_wrap_lines)

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        for path in self._path(ctx).split(","):
            with open(path, "r", encoding="utf-8") as f:
                yield from _parse_lines(f)


class ParallelizeIterator(RuntimeIterator):
    """``parallelize(expr[, num_slices])`` — local sequence → RDD."""

    is_source = True

    def __init__(self, expr: RuntimeIterator,
                 slices_iter: RuntimeIterator | None = None):
        super().__init__([expr] + ([slices_iter] if slices_iter else []))
        self.expr = expr
        self.slices_iter = slices_iter

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return not ctx.config.force_local and active_spark() is not None

    def get_rdd(self, ctx: DynamicContext):
        spark = active_spark()
        if spark is None:
            raise DynamicError("parallelize(): no active SparkSession on this side")
        items = self.expr.materialize(ctx)
        if self.slices_iter is not None:
            seq = self.slices_iter.materialize(ctx)
            if len(seq) != 1 or not is_number(seq[0]):
                raise TypeError_("parallelize() num_slices must be a single number")
            return spark.sparkContext.parallelize(items, int(seq[0]))
        return spark.sparkContext.parallelize(items, max(1, min(len(items), 8)))

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        yield from self.expr.materialize(ctx)
