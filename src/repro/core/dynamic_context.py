"""Dynamic contexts (paper §5.5) and the engine configuration.

A dynamic context binds in-scope variables to (materialized) sequences
of items, plus the context item/position set by predicates. Contexts
are small plain objects so that Spark closures carrying runtime
iterators + their opening contexts pickle cheaply (§5.6).

:class:`RumbleConfig` carries the knobs the paper describes: the
materialization cap with warning (§5.5).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from ..jsoniq.errors import MaterializationCapExceeded
from .items import Item, Sequence


@dataclass
class RumbleConfig:
    """Engine-wide execution knobs. Picklable; shipped inside closures."""

    #: Max items materialized when an RDD-backed sequence is consumed
    #: through the local API (§5.5: "a maximum number of items to
    #: materialize can be specified and a warning is issued").
    materialization_cap: int = 10_000_000
    #: Emit a warning (vs raise) when the cap is hit.
    warn_on_cap: bool = True
    #: Disable Spark entirely: every iterator reports no RDD support and
    #: sources read locally. Used by the Zorba-like baseline.
    force_local: bool = False
    #: Enable the §4.7 group-by rewrites (COUNT push-down, unused-column
    #: pruning). The single-threaded baseline engines disable them to
    #: model Zorba/Xidel, which materialize non-grouping variables and
    #: therefore run out of memory on the grouping query (Fig. 12).
    enable_optimizations: bool = True

    def on_materialization_cap(self, cap: int) -> None:
        msg = f"RDD materialized through the local API was truncated at {cap} items"
        if self.warn_on_cap:
            warnings.warn(msg, RuntimeWarning, stacklevel=3)
        else:
            raise MaterializationCapExceeded(msg)


@dataclass
class DynamicContext:
    """Variable bindings + context item for one evaluation (§5.5).

    ``variables`` maps variable name → materialized sequence. The
    context item (``$$``) and its 1-based position are set by predicate
    iterators. Contexts are copied on extension (bindings are small —
    they live inside FLWOR tuples)."""

    variables: dict[str, Sequence] = field(default_factory=dict)
    context_item: Item = None
    context_position: int | None = None
    has_context_item: bool = False
    config: RumbleConfig = field(default_factory=RumbleConfig)

    def bind(self, name: str, seq: Sequence) -> "DynamicContext":
        """Return a new context with ``name`` (re)bound to ``seq``."""
        vs = dict(self.variables)
        vs[name] = seq
        return DynamicContext(vs, self.context_item, self.context_position,
                              self.has_context_item, self.config)

    def with_context_item(self, item: Item, position: int | None = None) -> "DynamicContext":
        return DynamicContext(self.variables, item, position, True, self.config)

    def lookup(self, name: str) -> Sequence:
        try:
            return self.variables[name]
        except KeyError:  # scoping should have caught this statically
            raise KeyError(f"variable ${name} not bound in dynamic context") from None
