"""Basic expression iterators: literals, variables, sequences, ranges,
the context item, and control flow (if / quantified expressions)."""
from __future__ import annotations

from typing import Iterator

from ...jsoniq.errors import DynamicError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import Item, effective_boolean_value, is_number, to_integer
from .base import Evaluator, RuntimeIterator


class LiteralIterator(RuntimeIterator):
    """A single atomic literal."""

    def __init__(self, value: Item):
        super().__init__()
        self.value = value

    def _compile(self) -> Evaluator:
        value = self.value
        return lambda ctx: [value]

    def _tree_label(self) -> str:
        return repr(self.value)


def literal_value(it: RuntimeIterator, type_: type):
    """The value of ``it`` when it is a literal of ``type_`` (booleans
    excluded), for a parent to fold into its closure at build time;
    None otherwise."""
    if isinstance(it, LiteralIterator) and isinstance(it.value, type_) \
            and not isinstance(it.value, bool):
        return it.value
    return None


class EmptySequenceIterator(RuntimeIterator):
    """``()``."""

    def _compile(self) -> Evaluator:
        return lambda ctx: []


class VarRefIterator(RuntimeIterator):
    """``$name`` — the sequence bound in the dynamic context."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _compile(self) -> Evaluator:
        name = self.name

        def evaluate(ctx: DynamicContext):
            seq = ctx.variables.get(name)
            return seq if seq is not None else ctx.lookup(name)

        return evaluate

    def _tree_label(self) -> str:
        return f"${self.name}"


class ContextItemIterator(RuntimeIterator):
    """``$$`` — the context item bound by the enclosing predicate."""

    def _compile(self) -> Evaluator:
        def evaluate(ctx: DynamicContext):
            if not ctx.has_context_item:
                raise DynamicError("'$$' evaluated with no context item")
            return [ctx.context_item]

        return evaluate


class SequenceConcatIterator(RuntimeIterator):
    """Comma expression — concatenates child sequences (sequences are
    flat and never nest, §2.3)."""

    def _compile(self) -> Evaluator:
        parts = [c.evaluator() for c in self.children]

        def evaluate(ctx: DynamicContext):
            out = []
            for part in parts:
                out.extend(part(ctx))
            return out

        return evaluate


class RangeIterator(RuntimeIterator):
    """``a to b`` — the integer range, empty when an operand is empty
    or a > b. A source: the range streams."""

    is_source = True

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        left, right = self.children
        lo = left.materialize(ctx)
        hi = right.materialize(ctx)
        if not lo or not hi:
            return
        if len(lo) > 1 or len(hi) > 1 or not is_number(lo[0]) or not is_number(hi[0]):
            raise TypeError_("'to' requires singleton numbers")
        yield from range(to_integer(lo[0], "'to' bound"), to_integer(hi[0], "'to' bound") + 1)


class IfIterator(RuntimeIterator):
    """``if (c) then e1 else e2`` over the effective boolean value of c."""

    def _compile(self) -> Evaluator:
        cond, then, else_ = (c.evaluator() for c in self.children)
        return lambda ctx: (
            then(ctx) if effective_boolean_value(cond(ctx)) else else_(ctx))


class QuantifiedIterator(RuntimeIterator):
    """``some/every $v in e ... satisfies p`` — nested iteration binding
    each variable to one item at a time, stopping at the first item
    that decides the result."""

    def __init__(self, kind: str, var_names: list[str],
                 sources: list[RuntimeIterator], satisfies: RuntimeIterator):
        super().__init__(sources + [satisfies])
        self.kind = kind
        self.var_names = var_names
        self.sources = sources
        self.satisfies = satisfies

    def _compile(self) -> Evaluator:
        some = self.kind == "some"
        bindings = list(zip(self.var_names, self.sources))
        satisfies = self.satisfies.evaluator()

        def holds(ctx: DynamicContext, depth: int) -> bool:
            if depth == len(bindings):
                return effective_boolean_value(satisfies(ctx))
            name, src = bindings[depth]
            for item in src.iter_items(ctx):
                if holds(ctx.child({name: [item]}), depth + 1) is some:
                    return some
            return not some

        return lambda ctx: [holds(ctx, 0)]

    def _tree_label(self) -> str:
        return self.kind
