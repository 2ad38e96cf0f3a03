"""Navigation iterators: object lookup, array unboxing/lookup,
predicates (paper §4.1.2, §5.6).

Each is a *step*: a target plus at most one argument (a key, an index
or a predicate). A step states its semantics once, as the generated
loop over its target's items that hands each item it gives to a sink
(:meth:`NavigationStep._loop`). Locally the loop runs over the target's
list and the sink appends to a list. These are the expressions Rumble
pushes down to Spark: when the target sequence is physically an RDD of
items, each partition runs the same loop as a generator
(``mapPartitions``): the closure carries the loop, built on the driver
(§5.6).
"""
from __future__ import annotations

from ...jsoniq.errors import TypeError_
from ..codegen import FOCUS, Emitter
from ..dynamic_context import DynamicContext
from ..items import effective_boolean_value, is_number, to_integer
from .base import RuntimeIterator, worker_task
from .basic import LiteralIterator, literal_value
from .functions import FunctionCallIterator, returns_boolean
from .operators import BoolOpIterator, ComparisonIterator, NotIterator


class NavigationStep(RuntimeIterator):
    """A target plus at most one argument. A key or index argument is
    evaluated once, before the target, by :attr:`check`; a predicate is
    evaluated by the loop, per item."""

    #: The type of a literal argument, folded into a constant.
    literal: type | None = None
    #: Turns the argument's sequence into the value the loop reads; None
    #: when the loop reads no such value.
    check = None

    def __init__(self, target: RuntimeIterator, arg: RuntimeIterator | None = None):
        super().__init__([target] if arg is None else [target, arg])
        self.target = target
        self.arg = arg

    def _loop(self, b: Emitter, env: dict, arg: str | None, items: str, sink) -> None:
        """Writes to ``b`` the loop over ``items``, what :meth:`_over`
        gives, that calls ``sink(x)`` for each item ``x`` the step gives
        (``sink(x, each=True)`` for each member of ``x``). ``arg`` names
        the checked key or index."""
        raise NotImplementedError

    def _over(self, items: str, rdd=None):
        """The loop's iterable, from the expression ``items`` of the
        target's items, and the RDD whose partitions run the loop, from
        the target's RDD (None locally). Both are the target's own
        unless the step numbers its items."""
        return items, rdd

    def _emit(self, b, env):
        # The key or index is evaluated before the target.
        arg = None
        if self.check is not None:
            folded = literal_value(self.arg, self.literal)
            arg = (b.const(folded) if folded is not None
                   else b.value(f"{b.const(self.check)}({b.emit(self.arg, env)})"))
        out = b.tmp()
        b.line(f"{out} = []")
        items, _ = self._over(b.emit(self.target, env))
        self._loop(b, env, arg, items, lambda x, each=False: b.line(
            f"{out}.{'extend' if each else 'append'}({x})"))
        return out

    def supports_rdd(self, ctx: DynamicContext) -> bool:
        return self.target.supports_rdd(ctx)

    def get_rdd(self, ctx: DynamicContext):
        # The key or index is checked once, on the driver, before the
        # target's RDD is built; the loop reads it as a constant.
        arg = None if self.check is None else self.check(self.arg.materialize(ctx))
        items, rdd = self._over("items", self.target.get_rdd(ctx))
        b = Emitter()  # the loop as the generator f(ctx, items) of a partition
        self._loop(b, {}, None if self.check is None else b.const(arg), items,
                   lambda x, each=False: b.line(f"yield {'from ' if each else ''}{x}"))
        loop = b.function("ctx, items")
        return rdd.mapPartitions(worker_task(lambda part: loop(ctx, part)),
                                 preservesPartitioning=True)


def _key_string(seq) -> str:
    if len(seq) != 1 or not isinstance(seq[0], str):
        raise TypeError_("object lookup key must be a single string")
    return seq[0]


class ObjectLookupIterator(NavigationStep):
    """``e.key`` — each object's value under the key (§4.1.2);
    non-objects and objects without the key give nothing."""

    literal, check = str, staticmethod(_key_string)

    def _loop(self, b, env, key, items, sink):
        item = b.tmp()
        with b.block(f"for {item} in {items}"):
            with b.block(f"if isinstance({item}, dict) and {key} in {item}"):
                sink(f"{item}[{key}]")


class ArrayUnboxIterator(NavigationStep):
    """``e[]`` — flattens arrays into their members; skips non-arrays."""

    def _loop(self, b, env, arg, items, sink):
        item = b.tmp()
        with b.block(f"for {item} in {items}"):
            with b.block(f"if isinstance({item}, list)"):
                sink(item, each=True)


def _index_int(seq) -> int:
    """The 1-based index of ``e[[i]]``; 0, which selects no member, for
    the empty sequence."""
    if not seq:
        return 0
    if len(seq) != 1 or not is_number(seq[0]):
        raise TypeError_("array lookup index must be a single number")
    return to_integer(seq[0], "array lookup index")


class ArrayLookupIterator(NavigationStep):
    """``e[[i]]`` — 1-based member lookup in each array item."""

    literal, check = int, staticmethod(_index_int)

    def _loop(self, b, env, i, items, sink):
        item = b.tmp()
        with b.block(f"for {item} in {items}"):
            with b.block(f"if isinstance({item}, list) and 1 <= {i} <= len({item})"):
                sink(f"{item}[{i} - 1]")


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


class PredicateIterator(NavigationStep):
    """``e[p]`` — filter with ``$$`` bound to each candidate item.

    A numeric predicate result selects by 1-based position; any other
    result is taken as an effective boolean value. ``$$`` is a local of
    the loop, which runs over ``(position, item)`` pairs: on the RDD
    path a partition's items numbered from 1 when the predicate can only
    give a boolean, otherwise its ``zipWithIndex`` pairs, which carry
    each item's position in the whole sequence.
    """

    def _over(self, items, rdd=None):
        if rdd is not None and not _is_boolean(self.arg):
            return "((i + 1, x) for x, i in items)", rdd.zipWithIndex()
        return f"enumerate({items}, 1)", rdd

    def _loop(self, b, env, arg, pairs, sink):
        pos, item = b.tmp(), b.tmp()
        with b.block(f"for {pos}, {item} in {pairs}"):
            with b.block(f"if {b.const(_keep)}({b.emit(self.arg, {**env, FOCUS: item})}, {pos})"):
                sink(item)
