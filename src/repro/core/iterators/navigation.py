"""Navigation iterators: object lookup, array unboxing/lookup,
predicates (paper §4.1.2, §5.6).

These are the expressions Rumble pushes down to Spark: when the target
sequence is physically an RDD of items, lookup/unbox/filter become
``flatMap``/``filter`` transformations whose closures carry the nested
runtime iterators, evaluated on executors via the local API (§5.6).
"""
from __future__ import annotations

from ...jsoniq.errors import TypeError_
from ..codegen import FOCUS, Emitter
from ..dynamic_context import DynamicContext
from ..items import Item, effective_boolean_value, is_number, to_integer
from .base import RuntimeIterator
from .basic import LiteralIterator, literal_value
from .functions import FunctionCallIterator, returns_boolean
from .operators import BoolOpIterator, ComparisonIterator, NotIterator


def _lookup_one(item: Item, key: str):
    """Lenient object lookup: non-objects and missing keys yield nothing."""
    if isinstance(item, dict) and key in item:
        return [item[key]]
    return []


def _key_string(seq) -> str:
    if len(seq) != 1 or not isinstance(seq[0], str):
        raise TypeError_("object lookup key must be a single string")
    return seq[0]


class ObjectLookupIterator(RuntimeIterator):
    """``e.key`` — flatMap of a per-object lookup (§4.1.2)."""

    def __init__(self, target: RuntimeIterator, key: RuntimeIterator):
        super().__init__([target, key])
        self.target = target
        self.key = key

    def _emit(self, b, env):
        # The key is evaluated before the target.
        folded = literal_value(self.key, str)
        if folded is not None:
            key = b.const(folded)
        else:
            key = b.value(f"{b.const(_key_string)}({b.emit(self.key, env)})")
        out, item = b.tmp(), b.tmp()
        b.line(f"{out} = []")
        with b.block(f"for {item} in {b.emit(self.target, env)}"):
            with b.block(f"if isinstance({item}, dict) and {key} in {item}"):
                b.line(f"{out}.append({item}[{key}])")
        return out

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        key = _key_string(self.key.materialize(ctx))
        return self.target.get_rdd(ctx).flatMap(lambda it: _lookup_one(it, key))


class ArrayUnboxIterator(RuntimeIterator):
    """``e[]`` — flattens arrays into their members; skips non-arrays."""

    def __init__(self, target: RuntimeIterator):
        super().__init__([target])
        self.target = target

    def _emit(self, b, env):
        out, item = b.tmp(), b.tmp()
        b.line(f"{out} = []")
        with b.block(f"for {item} in {b.emit(self.target, env)}"):
            with b.block(f"if isinstance({item}, list)"):
                b.line(f"{out}.extend({item})")
        return out

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        return self.target.get_rdd(ctx).flatMap(
            lambda it: it if isinstance(it, list) else []
        )


def _index_int(seq) -> int | None:
    if not seq:
        return None
    if len(seq) != 1 or not is_number(seq[0]):
        raise TypeError_("array lookup index must be a single number")
    return to_integer(seq[0], "array lookup index")


class ArrayLookupIterator(RuntimeIterator):
    """``e[[i]]`` — 1-based member lookup in each array item."""

    def __init__(self, target: RuntimeIterator, index: RuntimeIterator):
        super().__init__([target, index])
        self.target = target
        self.index = index

    def _emit(self, b, env):
        # The index is evaluated before the target, which an empty index
        # does not evaluate.
        folded = literal_value(self.index, int)
        if folded is not None:
            i = b.const(folded)
        else:
            i = b.value(f"{b.const(_index_int)}({b.emit(self.index, env)})")
        out, item = b.tmp(), b.tmp()
        b.line(f"{out} = []")
        with b.block(f"if {i} is not None"):
            with b.block(f"for {item} in {b.emit(self.target, env)}"):
                with b.block(f"if isinstance({item}, list) and 1 <= {i} <= len({item})"):
                    b.line(f"{out}.append({item}[{i} - 1])")
        return out

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        i = _index_int(self.index.materialize(ctx))
        rdd = self.target.get_rdd(ctx)
        if i is None:
            return rdd.filter(lambda _: False)
        return rdd.flatMap(
            lambda it: [it[i - 1]]
            if isinstance(it, list) and 1 <= i <= len(it)
            else []
        )


def _keep(result, pos: int) -> bool:
    """Whether ``e[p]`` keeps the item at 1-based ``pos``, given ``p``'s
    result: a single number selects by position, anything else is taken
    as an effective boolean value."""
    if len(result) == 1 and is_number(result[0]):
        return pos == result[0]
    return effective_boolean_value(result)


def _is_boolean(pred: RuntimeIterator) -> bool:
    """Whether ``pred``'s result is never a number, so never a position."""
    if isinstance(pred, LiteralIterator):
        return isinstance(pred.value, bool)
    if isinstance(pred, FunctionCallIterator):
        return returns_boolean(pred.name)
    return isinstance(pred, (ComparisonIterator, BoolOpIterator, NotIterator))


class PredicateIterator(RuntimeIterator):
    """``e[p]`` — filter with ``$$`` bound to each candidate item.

    A numeric predicate result selects by 1-based position; any other
    result is taken as an effective boolean value. ``$$`` is a local of
    one generated loop, which on the RDD path each partition runs: over
    its items when the predicate can only give a boolean, otherwise
    over its ``zipWithIndex`` pairs, which carry each item's position.
    """

    def __init__(self, target: RuntimeIterator, pred: RuntimeIterator):
        super().__init__([target, pred])
        self.target = target
        self.pred = pred

    def _emit(self, b, env):
        out = b.tmp()
        b.line(f"{out} = []")
        _select(b, self.pred, env, f"enumerate({b.emit(self.target, env)}, 1)", out + ".append({})")
        return out

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        rdd = self.target.get_rdd(ctx)
        pred, outer, pairs = self.pred, ctx, "enumerate(items, 1)"
        if not _is_boolean(pred):
            rdd, pairs = rdd.zipWithIndex(), "((i + 1, x) for x, i in items)"

        def keep(items):  # a generated f(ctx, items) per partition
            run = pred.built(pairs, lambda: _select(Emitter(), pred, {}, pairs, "yield {}")
                             .function("ctx, items"))
            return run(outer, items)

        return rdd.mapPartitions(keep, preservesPartitioning=True)


def _select(b, pred: RuntimeIterator, env: dict, pairs: str, sink: str):
    """Writes to ``b`` the loop over ``pairs``, ``(position, item)``,
    that runs ``sink`` (formatted with the item) for each item ``pred``
    keeps, and returns ``b``."""
    pos, item = b.tmp(), b.tmp()
    with b.block(f"for {pos}, {item} in {pairs}"):
        with b.block(f"if {b.const(_keep)}({b.emit(pred, {**env, FOCUS: item})}, {pos})"):
            b.line(sink.format(item))
    return b
