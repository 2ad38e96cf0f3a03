"""Operator iterators: arithmetic, comparison, logic, string concat,
object/array constructors."""
from __future__ import annotations

import math
import operator

from ...jsoniq.errors import DynamicError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import (
    Item,
    effective_boolean_value,
    is_atomic,
    is_number,
    kind,
    to_integer,
    value_compare,
)
from .base import Evaluator, RuntimeIterator
from .basic import LiteralIterator


def _div(x, y):
    if y == 0:
        raise DynamicError("division by zero")
    return x / y


def _idiv(x, y):
    # XQuery idiv truncates toward zero.
    if y == 0:
        raise DynamicError("integer division by zero")
    q = to_integer(abs(x) // abs(y), "idiv quotient")
    return q if (x >= 0) == (y >= 0) else -q


def _mod(x, y):
    # XQuery mod takes the sign of the dividend (unlike Python %).
    if y == 0:
        raise DynamicError("modulus by zero")
    if isinstance(x, int) and isinstance(y, int):
        r = abs(x) % abs(y)
        return r if x >= 0 else -r
    return math.fmod(x, y)


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "div": _div, "idiv": _idiv, "mod": _mod}


class ArithmeticIterator(RuntimeIterator):
    """``+ - * div idiv mod`` on singleton numbers; an empty operand
    propagates to the empty sequence (XQuery/JSONiq semantics)."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _compile(self) -> Evaluator:
        op = self.op
        if op not in _ARITHMETIC:
            raise DynamicError(f"unknown arithmetic operator {op!r}")
        apply = _ARITHMETIC[op]
        (left, a_const), (right, b_const) = map(_operand, self.children)

        def evaluate(ctx: DynamicContext):
            a = a_const or left(ctx)
            b = b_const or right(ctx)
            if not a or not b:
                return []
            if len(a) > 1 or len(b) > 1:
                raise TypeError_(f"arithmetic '{op}' requires singleton operands")
            x, y = a[0], b[0]
            if not is_number(x) or not is_number(y):
                raise TypeError_(f"arithmetic '{op}' on {kind(x)} and {kind(y)}")
            return [apply(x, y)]

        return evaluate

    def _tree_label(self) -> str:
        return self.op


def _operand(it: RuntimeIterator):
    """(evaluator, constant sequence or None): a literal operand is
    folded into its parent's closure at build time."""
    return it.evaluator(), ([it.value] if isinstance(it, LiteralIterator) else None)


class UnaryMinusIterator(RuntimeIterator):
    def _compile(self) -> Evaluator:
        (child,) = (c.evaluator() for c in self.children)

        def evaluate(ctx: DynamicContext):
            seq = child(ctx)
            if not seq:
                return []
            if len(seq) > 1 or not is_number(seq[0]):
                raise TypeError_("unary minus requires a singleton number")
            return [-seq[0]]

        return evaluate


class ComparisonIterator(RuntimeIterator):
    """Value comparison ``eq ne lt le gt ge`` (items.value_compare)."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _compile(self) -> Evaluator:
        op = self.op
        (left, a_const), (right, b_const) = map(_operand, self.children)
        return lambda ctx: value_compare(op, a_const or left(ctx), b_const or right(ctx))

    def _tree_label(self) -> str:
        return self.op


class BoolOpIterator(RuntimeIterator):
    """``and`` / ``or`` with short-circuit over effective boolean values."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _compile(self) -> Evaluator:
        left, right = (c.evaluator() for c in self.children)
        if self.op == "and":
            return lambda ctx: [effective_boolean_value(left(ctx))
                                and effective_boolean_value(right(ctx))]
        return lambda ctx: [effective_boolean_value(left(ctx))
                            or effective_boolean_value(right(ctx))]

    def _tree_label(self) -> str:
        return self.op


class NotIterator(RuntimeIterator):
    def _compile(self) -> Evaluator:
        (child,) = (c.evaluator() for c in self.children)
        return lambda ctx: [not effective_boolean_value(child(ctx))]


class StringConcatIterator(RuntimeIterator):
    """``e1 || e2`` — atomize both sides; empty becomes ''."""

    def _compile(self) -> Evaluator:
        left, right = (c.evaluator() for c in self.children)
        return lambda ctx: [to_concat_str(left(ctx)) + to_concat_str(right(ctx))]


def to_concat_str(seq) -> str:
    """An operand of ``||`` or an argument of ``concat()`` as a string."""
    if not seq:
        return ""
    if len(seq) > 1:
        raise TypeError_("string concatenation requires singleton operands")
    return atomic_to_string(seq[0])


def atomic_to_string(item: Item) -> str:
    """JSONiq string conversion of an atomic item."""
    if item is None:
        return "null"
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, str):
        return item
    if is_number(item):
        if isinstance(item, float) and item.is_integer():
            return str(int(item))
        return str(item)
    raise TypeError_(f"cannot convert a {kind(item)} to string")


class ObjectConstructorIterator(RuntimeIterator):
    """``{"k": v, ...}`` — keys must be singleton atomics, converted to
    strings; an empty value sequence becomes null, a multi-item value is
    an error (wrap in an array constructor, as JSONiq requires)."""

    def __init__(self, key_iters: list[RuntimeIterator], value_iters: list[RuntimeIterator]):
        super().__init__(key_iters + value_iters)
        self.key_iters = key_iters
        self.value_iters = value_iters

    def _compile(self) -> Evaluator:
        # A literal key is atomic: its string is folded at build time.
        pairs = [
            (atomic_to_string(k.value) if isinstance(k, LiteralIterator) else k.evaluator(),
             v.evaluator())
            for k, v in zip(self.key_iters, self.value_iters)
        ]

        def evaluate(ctx: DynamicContext):
            obj: dict[str, Item] = {}
            for key, value in pairs:
                if not isinstance(key, str):
                    k_seq = key(ctx)
                    if len(k_seq) != 1 or not is_atomic(k_seq[0]):
                        raise TypeError_("object key must be a single atomic")
                    key = atomic_to_string(k_seq[0])
                v_seq = value(ctx)
                if len(v_seq) > 1:
                    raise TypeError_(
                        f"object value for key {key!r} is a sequence of {len(v_seq)} "
                        "items; wrap it in an array constructor [...]"
                    )
                obj[key] = v_seq[0] if v_seq else None
            return [obj]

        return evaluate


class ArrayConstructorIterator(RuntimeIterator):
    """``[ e ]`` — the child sequence, copied into one array item."""

    def _compile(self) -> Evaluator:
        if not self.children:
            return lambda ctx: [[]]
        (child,) = (c.evaluator() for c in self.children)
        return lambda ctx: [list(child(ctx))]
