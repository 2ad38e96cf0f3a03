"""Dynamic contexts (paper §5.5) and the engine configuration.

A dynamic context binds in-scope variables to (materialized) sequences
of items, plus the context item set by predicates. Contexts are small
plain objects so that Spark closures carrying runtime iterators + their
opening contexts pickle cheaply (§5.6).

:class:`RumbleConfig` carries the knobs the paper describes: the
materialization cap with warning (§5.5).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .items import Item, Sequence


@dataclass
class RumbleConfig:
    """Engine-wide execution knobs. Picklable; shipped inside closures."""

    #: Max items materialized when an RDD-backed sequence is consumed
    #: through the local API (§5.5: "a maximum number of items to
    #: materialize can be specified and a warning is issued").
    materialization_cap: int = 10_000_000
    #: Disable Spark entirely: every iterator reports no RDD support and
    #: sources read locally. Used by the Zorba-like baseline.
    force_local: bool = False
    #: Enable the §4.7 group-by rewrites (COUNT push-down, unused-column
    #: pruning). The single-threaded baseline engines disable them to
    #: model Zorba/Xidel, which materialize non-grouping variables and
    #: therefore run out of memory on the grouping query (Fig. 12).
    enable_optimizations: bool = True


@dataclass
class DynamicContext:
    """Variable bindings + context item for one evaluation (§5.5).

    ``variables`` maps variable name → materialized sequence. The
    context item (``$$``) is set by predicate iterators. Contexts are
    copied on extension. Generated code holds its own variables in
    Python locals and builds a context only for a node that reads one."""

    variables: dict[str, Sequence] = field(default_factory=dict)
    context_item: Item = None
    has_context_item: bool = False
    config: RumbleConfig = field(default_factory=RumbleConfig)

    def child(self, bindings=()) -> "DynamicContext":
        """A copy with its own variables, overridden by ``bindings``; a
        FLWOR keeps the focus. Called per row, so no ``__init__`` call."""
        ctx = object.__new__(DynamicContext)
        ctx.__dict__.update(self.__dict__, variables={**self.variables, **dict(bindings)})
        return ctx

    def lookup(self, name: str) -> Sequence:
        try:
            return self.variables[name]
        except KeyError:  # scoping should have caught this statically
            raise KeyError(f"variable ${name} not bound in dynamic context") from None
