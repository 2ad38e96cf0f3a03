"""Navigation iterators: object lookup, array unboxing/lookup,
predicates (paper §4.1.2, §5.6).

These are the expressions Rumble pushes down to Spark: when the target
sequence is physically an RDD of items, lookup/unbox/filter become
``flatMap``/``filter`` transformations whose closures carry the nested
runtime iterators, evaluated on executors via the local API (§5.6).
"""
from __future__ import annotations

from ...jsoniq.errors import TypeError_
from ..dynamic_context import DynamicContext
from ..items import Item, effective_boolean_value, is_number
from .base import Evaluator, RuntimeIterator
from .basic import QuantifiedIterator, VarRefIterator, literal_value
from .operators import BoolOpIterator, ComparisonIterator, NotIterator


def _lookup_one(item: Item, key: str):
    """Lenient object lookup: non-objects and missing keys yield nothing."""
    if isinstance(item, dict) and key in item:
        return [item[key]]
    return []


class ObjectLookupIterator(RuntimeIterator):
    """``e.key`` — flatMap of a per-object lookup (§4.1.2)."""

    def __init__(self, target: RuntimeIterator, key: RuntimeIterator):
        super().__init__([target, key])
        self.target = target
        self.key = key

    def _key_string(self, ctx: DynamicContext) -> str:
        seq = self.key.materialize(ctx)
        if len(seq) != 1 or not isinstance(seq[0], str):
            raise TypeError_("object lookup key must be a single string")
        return seq[0]

    def _compile(self) -> Evaluator:
        target = self.target.evaluator()
        folded = literal_value(self.key, str)
        key_string = self._key_string
        var = self.target.name if isinstance(self.target, VarRefIterator) else None

        def evaluate(ctx: DynamicContext):
            key = folded or key_string(ctx)
            items = ctx.variables.get(var) if var else None  # `$v.key` in one closure
            out = []
            for item in target(ctx) if items is None else items:
                if isinstance(item, dict) and key in item:
                    out.append(item[key])
            return out

        return evaluate

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        key = self._key_string(ctx)
        return self.target.get_rdd(ctx).flatMap(lambda it: _lookup_one(it, key))


class ArrayUnboxIterator(RuntimeIterator):
    """``e[]`` — flattens arrays into their members; skips non-arrays."""

    def __init__(self, target: RuntimeIterator):
        super().__init__([target])
        self.target = target

    def _compile(self) -> Evaluator:
        target = self.target.evaluator()

        def evaluate(ctx: DynamicContext):
            out = []
            for item in target(ctx):
                if isinstance(item, list):
                    out.extend(item)
            return out

        return evaluate

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        return self.target.get_rdd(ctx).flatMap(
            lambda it: it if isinstance(it, list) else []
        )


class ArrayLookupIterator(RuntimeIterator):
    """``e[[i]]`` — 1-based member lookup in each array item."""

    def __init__(self, target: RuntimeIterator, index: RuntimeIterator):
        super().__init__([target, index])
        self.target = target
        self.index = index

    def _index_int(self, ctx: DynamicContext) -> int | None:
        seq = self.index.materialize(ctx)
        if not seq:
            return None
        if len(seq) != 1 or not is_number(seq[0]):
            raise TypeError_("array lookup index must be a single number")
        return int(seq[0])

    def _compile(self) -> Evaluator:
        target = self.target.evaluator()
        folded = literal_value(self.index, int)
        index_int = self._index_int

        def evaluate(ctx: DynamicContext):
            i = folded or index_int(ctx)
            out = []
            if i is not None:
                for item in target(ctx):
                    if isinstance(item, list) and 1 <= i <= len(item):
                        out.append(item[i - 1])
            return out

        return evaluate

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        i = self._index_int(ctx)
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


#: Predicate roots whose result is never a number, so never a position.
_BOOLEAN_ROOTS = (ComparisonIterator, BoolOpIterator, NotIterator, QuantifiedIterator)


class PredicateIterator(RuntimeIterator):
    """``e[p]`` — filter with ``$$`` bound to each candidate item.

    A numeric predicate result selects by 1-based position; any other
    result is taken as an effective boolean value. On the RDD path a
    predicate that can only give a boolean is a plain ``filter``; any
    other one sees each item's position from ``zipWithIndex``.
    """

    def __init__(self, target: RuntimeIterator, pred: RuntimeIterator):
        super().__init__([target, pred])
        self.target = target
        self.pred = pred

    def _compile(self) -> Evaluator:
        target = self.target.evaluator()
        pred = self.pred.evaluator()

        def evaluate(ctx: DynamicContext):
            return [item for pos, item in enumerate(target(ctx), 1)
                    if _keep(pred(ctx.with_context_item(item)), pos)]

        return evaluate

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        rdd = self.target.get_rdd(ctx)
        pred, outer = self.pred, ctx
        if isinstance(pred, _BOOLEAN_ROOTS):
            return rdd.filter(lambda item: effective_boolean_value(
                pred.materialize(outer.with_context_item(item))))

        def keep(pair) -> bool:
            item, index = pair
            return _keep(pred.materialize(outer.with_context_item(item)), index + 1)

        return rdd.zipWithIndex().filter(keep).map(lambda pair: pair[0])
