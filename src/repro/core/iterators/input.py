"""Input-source iterators (paper §5.7): ``json-file()`` and
``parallelize()``.

``json-file(path[, partitions])`` logically returns the sequence of
JSON objects in a JSON-Lines file; physically an RDD built with
Spark's ``textFile`` + a per-partition JSON parse — the PySpark
equivalent of the paper's ``mapPartitions`` + JSONiter streaming
parser. Each line is parsed by ``items.loads``: orjson, with stdlib
``json`` where the two could differ. ``path`` may be a comma-separated
list of paths, which is how the large-scale experiments replicate a
dataset N× without writing N copies (Hadoop's text input accepts
comma-joined paths). Each part may be a glob, with ``{a,b}``
alternatives, or a directory; the local engine reads the same files
Hadoop does (:func:`local_files`). A FLWOR
whose tuple stream is a DataFrame (§4.3) starts it from the same lines
without a Python worker: :meth:`JsonFileIterator.cell_df` trims,
skips blank lines and wraps each line into its cell in the JVM.

Without an explicit partition count, the input gets as many partitions
as Spark SQL's own file scan would cut it into (:func:`split_count`),
never more than the cluster's default parallelism: a small file is one
partition and runs as one task per stage. The byte and file counts come
from one Hadoop listing on the driver, which also reports a path that
matches no file before any job runs.

When Spark is unavailable (executor side) or disabled
(``config.force_local``), the file is streamed line-by-line in-process.
So is a small input (:func:`small_input`): fewer bytes than
``config.local_below_bytes``, no explicit partition count, and every
part a path on the local file system, which the local engine reads
(DESIGN.md §5b "Small inputs run locally").

``parallelize(expr[, num_slices])`` materializes its argument locally
and ships it to the cluster — the JSONiq wrapper over Spark's
``parallelize`` described in §5.7, and the trigger for Spark-enabled
FLWOR behaviour in tests.
"""
from __future__ import annotations

import glob
import math
import os
from typing import Iterator

from pyspark.sql import DataFrame

from ...jsoniq.errors import DynamicError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import Item, is_number, loads, to_integer
from .base import RuntimeIterator, active_spark, spark_enabled, worker_task


def _parse_lines(lines) -> Iterator[Item]:
    for line in lines:
        line = line.strip()
        if line:
            yield loads(line)


#: The characters ``str.strip`` strips, so that the JVM skips and trims
#: exactly the lines :func:`_parse_lines` does.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003"
              "\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
#: A JVM line trimmed of :data:`WHITESPACE`, as SQL text.
_LINE = "btrim(value, '" + "".join(f"\\u{ord(ch):04x}" for ch in WHITESPACE) + "')"


def partition_count(it: RuntimeIterator | None, ctx: DynamicContext, what: str) -> int | None:
    """The optional partition-count argument of ``json-file()`` and
    ``parallelize()``, checked alike on every path: None when absent,
    else the integer part of a single number, at least 1."""
    if it is None:
        return None
    seq = it.materialize(ctx)
    if len(seq) != 1 or not is_number(seq[0]):
        raise TypeError_(f"{what} must be a single number")
    n = to_integer(seq[0], what)
    if n < 1:
        raise DynamicError(f"{what} must be at least 1, got {seq[0]}")
    return n


def _missing(part: str) -> DynamicError:
    return DynamicError(f"json-file(): no file matches {part!r}")


def split_outside_braces(text: str) -> list[str]:
    """``text`` cut at each comma outside ``{}``: Hadoop's split of a
    comma-separated input path (``FileInputFormat.getPathStrings``), and
    of the alternatives inside one pair of braces."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _expand_braces(pattern: str) -> list[str]:
    """Every pattern ``{a,b}`` alternatives in ``pattern`` spell out."""
    i = pattern.find("{")
    depth = 0
    for j in range(i, len(pattern)) if i >= 0 else ():
        depth += (pattern[j] == "{") - (pattern[j] == "}")
        if depth == 0:
            return [x for alt in split_outside_braces(pattern[i + 1:j])
                    for x in _expand_braces(pattern[:i] + alt + pattern[j + 1:])]
    return [pattern]  # no braces, or an unclosed one


def _hidden(path: str) -> bool:
    """Hadoop's ``hiddenFileFilter``: names starting ``_`` or ``.``."""
    return os.path.basename(path).startswith(("_", "."))


def local_files(path: str) -> Iterator[str]:
    """The files Hadoop's text input reads for ``path``, in name order
    per part: each comma-separated part expanded (braces, then globs),
    hidden names dropped, and a directory read as the files in it. A
    part that matches nothing raises a DynamicError naming it."""
    for part in split_outside_braces(path):
        matches = sorted({m for p in _expand_braces(part) for m in glob.glob(p)
                          if not _hidden(m)}) if part else []
        if not matches:
            raise _missing(part)
        for m in matches:
            if os.path.isdir(m):
                yield from (os.path.join(m, n) for n in sorted(os.listdir(m)) if not _hidden(n))
            else:
                yield m


def _has_scheme(part: str) -> bool:
    """Whether Hadoop reads ``part`` as a URI with a scheme
    (``hdfs://...``, ``file:/...``): a colon before the first slash, as
    ``new Path(String)`` parses it."""
    colon, slash = part.find(":"), part.find("/")
    return colon != -1 and (slash == -1 or colon < slash)


def small_input(sc, path: str, limit: int) -> bool:
    """Whether the files of ``path`` hold fewer than ``limit`` bytes and
    all lie on the local file system: no part names a scheme, and
    Hadoop's default file system is ``file:``. The bytes come from
    ``os.stat`` over :func:`local_files`, not from a Hadoop listing. A
    part that matches no local file makes it False, so that Spark
    reports the input as missing."""
    if any(_has_scheme(part) for part in split_outside_braces(path)):
        return False
    size = 0
    try:
        for name in local_files(path):
            size += os.path.getsize(name)
            if size >= limit:
                return False
    except (DynamicError, OSError):
        return False
    return sc._jsc.hadoopConfiguration().get("fs.defaultFS").startswith("file:")


def input_size(sc, path: str) -> tuple[int, int]:
    """The bytes and files under the comma-separated ``path``, listed
    through Hadoop on the driver: one ``globStatus`` per part and one
    ``getContentSummary`` per match. A part that matches no file raises
    a DynamicError naming it."""
    fs_path = sc._jvm.org.apache.hadoop.fs.Path
    conf = sc._jsc.hadoopConfiguration()
    size = files = 0
    for part in split_outside_braces(path):
        if not part:
            raise _missing(part)
        p = fs_path(part)
        fs = p.getFileSystem(conf)
        matches = [m for m in fs.globStatus(p) or () if not _hidden(m.getPath().getName())]
        if not matches:
            raise _missing(part)
        for status in matches:
            summary = fs.getContentSummary(status.getPath())
            size += summary.getLength()
            files += summary.getFileCount()
    return size, files


def split_count(size: int, files: int, parallelism: int,
                max_partition_bytes: int, open_cost: int) -> int:
    """How many splits Spark SQL's file scan cuts ``size`` bytes in
    ``files`` files into (``FilePartition.maxSplitBytes``): a split holds
    ``bytes per core`` (each file counted ``open_cost`` bytes more),
    bounded below by ``open_cost`` and above by ``max_partition_bytes``.
    The count is between 1 and ``parallelism``."""
    per_core = (size + files * open_cost) // parallelism
    split = min(max_partition_bytes, max(open_cost, per_core))
    return max(1, min(parallelism, math.ceil(size / split)))


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
        return partition_count(self.partitions_iter, ctx, "json-file() partitions")

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        if not spark_enabled(ctx):
            return False
        limit = ctx.config.local_below_bytes
        # json-file(p, n) asks for Spark's parallelism whatever the size.
        return not (limit and self.partitions_iter is None
                    and small_input(active_spark().sparkContext, self._path(ctx), limit))

    def _text_rdd(self, ctx: DynamicContext):
        spark = active_spark()
        if spark is None:
            raise DynamicError("json-file(): no active SparkSession on this side")
        path = self._path(ctx)
        n = self._partitions(ctx)
        sc = spark.sparkContext
        size, files = input_size(sc, path)  # raises for a missing input, n or not
        if n:
            # textFile treats minPartitions as a floor; coalesce enforces
            # the exact parallelism the T4 speedup sweep asks for.
            return sc.textFile(path, minPartitions=n).coalesce(n)
        # The default Hadoop split (32 MB) would leave most cores idle on
        # laptop-sized files, and one partition per core makes every
        # stage of a small input pay one Python task per core. Ask for
        # the splits Spark SQL's file scan would make; textFile still
        # cuts at least one split per file.
        conf = spark._jsparkSession.sessionState().conf()
        return sc.textFile(path, minPartitions=split_count(
            size, files, sc.defaultParallelism,
            conf.filesMaxPartitionBytes(), conf.filesOpenCostInBytes()))

    def get_rdd(self, ctx: DynamicContext):
        return self._text_rdd(ctx).mapPartitions(worker_task(_parse_lines))

    def cell_df(self, ctx: DynamicContext, col: str) -> DataFrame:
        """One string column ``col`` of serialized single-item sequences,
        one per non-blank input line, built in the JVM: each JSON-Lines
        line already *is* the item's serialization, so an initial ``for``
        clause starts its tuple stream without a Python worker (the
        paper's JSONiter streams straight into Items, §5.7). It keeps
        ``textFile``'s partitions. A line holding several comma-separated
        values raises ``JSONDecodeError`` here; other malformed lines
        raise when a Python pass decodes the cell."""
        spark = active_spark()
        lines = spark._jsparkSession.createDataset(
            self._text_rdd(ctx)._jrdd.rdd(), spark._jvm.org.apache.spark.sql.Encoders.STRING())
        cell = f"concat('[', {_LINE}, ']')"
        return DataFrame(lines.toDF(), spark).where(f"{_LINE} != ''").selectExpr(
            f"CASE WHEN json_array_length({cell}) > 1 THEN raise_error(concat("
            f"'JSONDecodeError: more than one JSON value on a json-file() line: ', {_LINE})) "
            f"ELSE {cell} END AS {col}")

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        path = self._path(ctx)
        self._partitions(ctx)  # checked as on Spark; one stream has no partitions
        for name in local_files(path):
            with open(name, "r", encoding="utf-8") as f:
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
        return spark_enabled(ctx)

    def get_rdd(self, ctx: DynamicContext):
        spark = active_spark()
        if spark is None:
            raise DynamicError("parallelize(): no active SparkSession on this side")
        items = self.expr.materialize(ctx)
        n = self._slices(ctx) or max(1, min(len(items), 8))
        return spark.sparkContext.parallelize(items, n)

    def _slices(self, ctx: DynamicContext) -> int | None:
        return partition_count(self.slices_iter, ctx, "parallelize() num_slices")

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        items = self.expr.materialize(ctx)
        self._slices(ctx)  # checked as on Spark
        yield from items
