"""Runtime-iterator base class (paper §5.4–§5.6).

Expression runtime iterators return *items* and expose two APIs between
which the engine switches seamlessly:

* **local execution** — one ``ctx -> list`` evaluator per tree root,
  generated on first use and called by :meth:`materialize`. Every node
  but a source implements :meth:`_emit`, the source fragment of its
  evaluation, and the fragments of a tree are one Python function
  (:mod:`repro.core.codegen`). *Sequence sources* (``is_source``:
  ``json-file()``, ``parallelize()``, a FLWOR, ``to``) keep a streaming
  ``_iterate_local`` generator, so a ``for`` clause or ``count()``
  never holds their whole sequence.
  The §5.5 pull protocol is the Python iterator :meth:`iter_items`
  returns: ``open`` is the call, ``hasNext`` / ``next`` are ``next()``
  and ``StopIteration``, ``close`` is a source generator's ``close()``
  and ``reset`` a fresh call. It keeps no state on the node, so one
  node can be pulled twice at once; on a non-source node it iterates
  the evaluator's list.
* **RDD execution** — ``supports_rdd()`` / ``get_rdd()`` of §5.6;
  subclasses that can produce their sequence as an RDD of items
  override both.

Only a node with a source below it can be RDD-backed, so only such a
node checks ``supports_rdd`` per call, in its own evaluator, and, when
the sequence *is* an RDD, collects it up to the configured
materialization cap (§5.5). Generated code calls that evaluator.
Conversely, an aggregating builtin (``count()``...) is handed its
argument's RDD when the argument is one, and runs a Spark action
instead of streaming (§5.5 last paragraph).

Iterators are pure picklable objects: they never hold a SparkSession,
and the generated functions are left out of the pickled state; a Spark
closure ships the function built on the driver, with only the nodes in
its constant table. ``get_rdd`` fetches the active session at call time
(driver only); on executors — where those nodes are evaluated via the
local API, because "Spark jobs do not nest" (§5.6) —
:func:`spark_enabled` is False, so the sources below every RDD-backed
expression report no RDD support and evaluation stays local.
"""
from __future__ import annotations

import os
import socket
import sys
import warnings
import zipimport
from typing import Callable, Iterator

from ...jsoniq.errors import RumbleError
from .. import codegen
from ..dynamic_context import DynamicContext
from ..items import Item, Sequence

Evaluator = Callable[[DynamicContext], Sequence]


def active_spark():
    """The active SparkSession on the driver, or None (e.g. on executors
    or in pure-local tests that never started Spark)."""
    try:
        from pyspark.sql import SparkSession
    except ImportError:  # pragma: no cover
        return None
    return SparkSession.getActiveSession()


def _drop_zip_importers() -> None:
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def quick_ack() -> None:
    """Have the kernel acknowledge at once what this process's TCP
    sockets received (``TCP_QUICKACK``; Linux only, found through
    ``/proc/self/fd``). A Python worker's socket to the JVM gets the
    task's header and then its rows in two small writes; the JVM's
    Nagle algorithm holds the rows until the header is acknowledged,
    and the worker's kernel delays that acknowledgement by up to 40 ms.
    Unix-domain sockets have neither, and are left alone."""
    if not hasattr(socket, "TCP_QUICKACK"):
        return
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return
    for fd in fds:
        try:
            if not os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                continue
            with socket.socket(fileno=os.dup(int(fd))) as sock:
                tcp = sock.family in (socket.AF_INET, socket.AF_INET6)
                if tcp and sock.type == socket.SOCK_STREAM:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        except OSError:  # closed meanwhile, or not a TCP connection
            pass


def worker_task(fn: Callable) -> Callable:
    """``fn``, a partition function the engine ships to Spark, as the
    function one task runs. It first acknowledges the task's header at
    once (:func:`quick_ack`), so that the task's rows are not held back
    for the worker's delayed ACK. It drops the ``zipimporter``s from
    ``sys.path_importer_cache`` before and after ``fn``'s partition.
    Before each task a PySpark worker calls
    ``importlib.invalidate_caches()``, which on CPython 3.11 makes every
    cached ``zipimporter`` re-read its archive's directory (Spark's
    ``pyspark.zip``, py4j's zip and the jars on the path) before the
    task's function starts. A worker these tasks ran in has none left
    to re-read. Imported modules stay in ``sys.modules``; a later
    import through an archive rebuilds its importer from zipimport's
    directory cache (DESIGN.md §5b "Python task set-up")."""
    def task(*args):
        quick_ack()
        _drop_zip_importers()
        try:
            yield from fn(*args)
        finally:
            _drop_zip_importers()
    return task


def spark_enabled(ctx: DynamicContext) -> bool:
    """Whether a sequence source reads through Spark under ``ctx``:
    there is an active session and the config does not force local
    execution. Every RDD-backed expression ends in such a source."""
    return not ctx.config.force_local and active_spark() is not None


class RuntimeIterator(codegen.Built):
    """Base of all expression runtime iterators."""

    #: Sequence sources set this: their sequence may be an RDD, or too
    #: long to hold, so they stream through ``_iterate_local``.
    is_source = False

    def __init__(self, children: list["RuntimeIterator"] | None = None):
        self.children: list[RuntimeIterator] = children or []
        #: Whether a sequence source lies below this node.
        self.has_source = any(c.is_source or c.has_source for c in self.children)

    # ------------------------------------------------------------------
    # Evaluation: the one local entry point of every consumer
    # ------------------------------------------------------------------
    def materialize(self, ctx: DynamicContext) -> Sequence:
        """This iterator's whole sequence under ``ctx``. The list may be
        a variable's bound sequence itself: callers do not mutate it."""
        return self.evaluator()(ctx)

    def iter_items(self, ctx: DynamicContext) -> Iterator[Item]:
        """An iterator over this iterator's sequence: a source streams
        it, any other node iterates its evaluator's list. The §5.5
        RDD-materialization switch still applies."""
        if self.is_source and not self.supports_rdd(ctx):
            return self._iterate_local(ctx)
        return iter(self.materialize(ctx))

    def evaluator(self) -> Evaluator:
        """The generated ``ctx -> list`` function of this iterator,
        built on first use and kept on the node, but not in its pickle."""
        return self.built("eval", lambda: codegen.evaluator(self))

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        raise NotImplementedError(type(self).__name__)

    # ------------------------------------------------------------------
    # RDD API (§5.6)
    # ------------------------------------------------------------------
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        """Whether this iterator can return its sequence as an RDD of
        items under ``ctx``. False when Spark is unavailable (executor
        side / local-only engine) or disabled by config."""
        return False

    def get_rdd(self, ctx: DynamicContext):
        raise RumbleError(f"{type(self).__name__} does not support RDD execution")

    def _collect_capped(self, ctx: DynamicContext) -> Sequence:
        """Seamless switch: local consumption of an RDD-backed sequence
        collects the RDD, capped (§5.5)."""
        cap = ctx.config.materialization_cap
        items = self.get_rdd(ctx).take(cap + 1)
        if len(items) > cap:
            warnings.warn(
                f"RDD materialized through the local API was truncated at {cap} items",
                RuntimeWarning, stacklevel=3,
            )
            items = items[:cap]
        return items

    # ------------------------------------------------------------------
    # Introspection (tests / explain output)
    # ------------------------------------------------------------------
    def tree(self, indent: int = 0) -> str:
        """Indented dump of the iterator tree (engine ``explain``)."""
        label = type(self).__name__
        extra = self._tree_label()
        if extra:
            label += f" {extra}"
        lines = ["  " * indent + label]
        for c in self.children:
            lines.append(c.tree(indent + 1))
        return "\n".join(lines)

    def _tree_label(self) -> str:
        return ""
