"""The Rumble engine facade (paper §5.1).

``Rumble(spark).run(query)`` executes a JSONiq query through the full
pipeline: tokenize → parse → scope-check → translate (with the §4.7
optimizations) → execute. Execution follows §5.5/§5.8: if the root
iterator supports the RDD API the results are produced in parallel and
collected (optionally capped, like the shell's configurable maximum);
otherwise evaluation is local and pull-based.

The engine never stores the SparkSession inside iterators; it only
verifies one is active when Spark execution is expected. Passing
``spark=None`` together with ``RumbleConfig(force_local=True)`` yields
a pure single-threaded JSONiq engine — the Zorba-like baseline of
Fig. 12 (see ``repro.baselines.local_single_thread``).
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import SparkSession

from ..jsoniq import check, check_depth, parse
from .dynamic_context import DynamicContext, RumbleConfig
from .items import Item, Sequence
from .iterators.base import RuntimeIterator
from .query_scope import query_scope
from .translator import translate


class Rumble:
    """A JSONiq-on-Spark engine instance."""

    def __init__(self, spark: SparkSession | None = None,
                 config: RumbleConfig | None = None):
        self.spark = spark
        self.config = config or RumbleConfig()

    # ------------------------------------------------------------------
    def compile(self, query: str) -> RuntimeIterator:
        """Parse, check and translate ``query`` to its root runtime
        iterator (§5.1's four layers, minus execution)."""
        tree = parse(query)
        check_depth(tree)
        check(tree)
        return translate(tree, optimize=self.config.enable_optimizations)

    def _ctx(self) -> DynamicContext:
        return DynamicContext(config=self.config)

    def _activate(self) -> None:
        """Make this engine's session the calling thread's active one.
        The active session is per thread, and iterators run on Spark
        only where ``active_spark()`` finds one."""
        if self.spark is not None:
            SparkSession._activeSession = self.spark
            SparkSession._get_j_spark_session_class(self.spark._jvm).setActiveSession(
                self.spark._jsparkSession
            )

    # ------------------------------------------------------------------
    def run(self, query: str, cap: int | None = None) -> Sequence:
        """Execute ``query`` and materialize its result sequence on the
        driver, optionally capped at ``cap`` items (shell behaviour,
        §5.4). The Spark materializations the query made are released
        before this returns or raises."""
        it = self.compile(query)
        ctx = self._ctx()
        self._activate()
        with query_scope():
            if it.supports_rdd(ctx):
                rdd = it.get_rdd(ctx)
                return rdd.take(cap) if cap is not None else rdd.collect()
            seq = it.materialize(ctx)
        return seq[:cap] if cap is not None else seq

    def run_rdd(self, query: str):
        """Execute ``query`` returning an RDD of items, or None when the
        root iterator only supports local execution. Parent tooling can
        write this RDD straight back to storage in parallel (§5.4). The
        caller asked for an RDD, so no input is too small for Spark
        here (``local_below_bytes`` is 0).

        An ``order by`` in the query is materialized while this call
        builds the RDD, and the RDD reads that materialization. It stays
        alive as long as the returned RDD does: Spark's ContextCleaner
        drops it after the JVM garbage-collects the RDD. If this call
        raises, it is released at once."""
        it = self.compile(query)
        ctx = DynamicContext(config=replace(self.config, local_below_bytes=0))
        self._activate()
        with query_scope(keep=True):
            if it.supports_rdd(ctx):
                return it.get_rdd(ctx)
        return None

    def run_one(self, query: str) -> Item:
        """Execute a query expected to return exactly one item (e.g. a
        count) and return that item."""
        result = self.run(query)
        if len(result) != 1:
            raise ValueError(f"expected a singleton result, got {len(result)} items")
        return result[0]

    def explain(self, query: str) -> str:
        """The translated runtime-iterator tree, for tests and debugging."""
        return self.compile(query).tree()
