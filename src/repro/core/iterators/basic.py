"""Basic expression iterators: literals, variables, sequences, ranges,
the context item, and ``if``. A quantified expression has no iterator
of its own: it translates to ``exists``/``empty`` of a FLWOR."""
from __future__ import annotations

from typing import Iterator

from ...jsoniq.errors import TypeError_
from ..codegen import FOCUS
from ..dynamic_context import DynamicContext
from ..items import Item, is_number, to_integer
from .base import RuntimeIterator


class LiteralIterator(RuntimeIterator):
    """A single atomic literal."""

    def __init__(self, value: Item):
        super().__init__()
        self.value = value

    def _emit(self, b, env):
        return b.const([self.value])

    def _tree_label(self) -> str:
        return repr(self.value)


def literal_value(it: RuntimeIterator, type_: type):
    """The value of ``it`` when it is a literal of ``type_`` (booleans
    excluded), for a parent to fold into its code at build time; None
    otherwise."""
    if isinstance(it, LiteralIterator) and isinstance(it.value, type_) \
            and not isinstance(it.value, bool):
        return it.value
    return None


class EmptySequenceIterator(RuntimeIterator):
    """``()``."""

    def _emit(self, b, env):
        return "[]"


class VarRefIterator(RuntimeIterator):
    """``$name`` — the sequence bound in the dynamic context."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def _emit(self, b, env):
        # A variable bound outside the generated function is in ``ctx``.
        return env.get(self.name) or f"ctx.lookup({b.const(self.name)})"

    def _tree_label(self) -> str:
        return f"${self.name}"


class ContextItemIterator(RuntimeIterator):
    """``$$`` — the context item bound by the enclosing predicate."""

    def _emit(self, b, env):
        return f"[{env[FOCUS]}]" if FOCUS in env else "focus(ctx)"


class SequenceConcatIterator(RuntimeIterator):
    """Comma expression — concatenates child sequences (sequences are
    flat and never nest, §2.3)."""

    def _emit(self, b, env):
        out = b.tmp()
        b.line(f"{out} = []")
        for child in self.children:
            b.line(f"{out}.extend({b.emit(child, env)})")
        return out


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

    def _emit(self, b, env):
        cond, then, else_ = self.children
        out = b.tmp()
        with b.block(f"if ebv({b.emit(cond, env)})"):
            b.line(f"{out} = {b.emit(then, env)}")
        with b.block("else"):
            b.line(f"{out} = {b.emit(else_, env)}")
        return out
