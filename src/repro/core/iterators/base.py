"""Runtime-iterator base class (paper §5.4–§5.6).

Expression runtime iterators return *items* and expose two APIs between
which the engine switches seamlessly:

* **local execution** — the pull-based ``open() / has_next() /
  next_item() / reset() / close()`` protocol of §5.5; implemented by
  subclasses as the ``_iterate_local`` generator.
* **RDD execution** — ``supports_rdd()`` / ``get_rdd()`` of §5.6;
  subclasses that can produce their sequence as an RDD of items
  override both.

If a consumer drives the local API of an iterator whose sequence *is*
available as an RDD, the base class transparently collects the RDD up
to the configured materialization cap and streams the materialized
items (§5.5). Conversely, aggregating iterators (``count()``...) check
``supports_rdd`` on their children and run Spark actions instead of
streaming (§5.5 last paragraph).

Iterators are pure picklable objects: they never hold a SparkSession.
``get_rdd`` fetches the active session at call time (driver only); on
executors — where closures carrying nested iterators are evaluated via
the local API, because "Spark jobs do not nest" (§5.6) —
``supports_rdd`` reports False and evaluation stays local.
"""
from __future__ import annotations

from typing import Iterator, Optional

from ...jsoniq.errors import RumbleError
from ..dynamic_context import DynamicContext
from ..items import Item, Sequence

_NOTHING = object()


def active_spark():
    """The active SparkSession on the driver, or None (e.g. on executors
    or in pure-local tests that never started Spark)."""
    try:
        from pyspark.sql import SparkSession
    except ImportError:  # pragma: no cover
        return None
    return SparkSession.getActiveSession()


class RuntimeIterator:
    """Base of all expression runtime iterators."""

    #: subclasses that implement get_rdd set this to True and refine
    #: :meth:`supports_rdd`.
    _rdd_capable = False

    def __init__(self, children: list["RuntimeIterator"] | None = None):
        self.children: list[RuntimeIterator] = children or []
        self._gen: Optional[Iterator[Item]] = None
        self._lookahead: Item = _NOTHING
        self._opened = False

    # ------------------------------------------------------------------
    # Local pull API (§5.5)
    # ------------------------------------------------------------------
    def open(self, ctx: DynamicContext) -> None:
        if self._opened:
            raise RumbleError(f"{type(self).__name__} opened twice without close")
        self._opened = True
        self._gen = self._iterate(ctx)
        self._advance()

    def has_next(self) -> bool:
        self._require_open()
        return self._lookahead is not _NOTHING

    def next_item(self) -> Item:
        self._require_open()
        if self._lookahead is _NOTHING:
            raise RumbleError(f"next_item() past end of {type(self).__name__}")
        item = self._lookahead
        self._advance()
        return item

    def reset(self, ctx: DynamicContext) -> None:
        self.close()
        self.open(ctx)

    def close(self) -> None:
        if self._gen is not None:
            self._gen.close()
        self._gen = None
        self._lookahead = _NOTHING
        self._opened = False

    def _require_open(self) -> None:
        if not self._opened:
            raise RumbleError(f"{type(self).__name__} used before open()")

    def _advance(self) -> None:
        try:
            self._lookahead = next(self._gen)  # type: ignore[arg-type]
        except StopIteration:
            self._lookahead = _NOTHING

    # ------------------------------------------------------------------
    # Convenience: full local materialization of this iterator's
    # sequence under ``ctx``.
    # ------------------------------------------------------------------
    def materialize(self, ctx: DynamicContext) -> Sequence:
        # Hot path: consume the generator directly instead of driving
        # the pull protocol (open/has_next/next_item cost ~4x as much
        # per item; this method runs once per row inside clause UDFs).
        if self._opened:
            self.close()
        return list(self._iterate(ctx))

    def iter_items(self, ctx: DynamicContext) -> Iterator[Item]:
        """Direct generator over this iterator's sequence — the cheap
        equivalent of open()/next_item() for internal consumers. The
        RDD-materialization switch of §5.5 still applies."""
        return self._iterate(ctx)

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

    # ------------------------------------------------------------------
    # Seamless switch: local iteration over an RDD-capable iterator
    # collects the RDD, capped (§5.5).
    # ------------------------------------------------------------------
    def _iterate(self, ctx: DynamicContext) -> Iterator[Item]:
        if self.supports_rdd(ctx):
            cap = ctx.config.materialization_cap
            items = self.get_rdd(ctx).take(cap + 1)
            if len(items) > cap:
                ctx.config.on_materialization_cap(cap)
                items = items[:cap]
            yield from items
        else:
            yield from self._iterate_local(ctx)

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        raise NotImplementedError(type(self).__name__)

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
