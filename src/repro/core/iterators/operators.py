"""Operator iterators: arithmetic, comparison, logic, string concat,
object/array constructors."""
from __future__ import annotations

import math
import operator

from ...jsoniq.errors import DynamicError, TypeError_
from ..items import Item, is_atomic, is_number, kind, to_integer
from .base import RuntimeIterator
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


def _arithmetic(op: str, a, b):
    if not a or not b:
        return []
    if len(a) > 1 or len(b) > 1:
        raise TypeError_(f"arithmetic '{op}' requires singleton operands")
    x, y = a[0], b[0]
    if not is_number(x) or not is_number(y):
        raise TypeError_(f"arithmetic '{op}' on {kind(x)} and {kind(y)}")
    return [_ARITHMETIC[op](x, y)]


class ArithmeticIterator(RuntimeIterator):
    """``+ - * div idiv mod`` on singleton numbers; an empty operand
    propagates to the empty sequence (XQuery/JSONiq semantics)."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _emit(self, b, env):
        if self.op not in _ARITHMETIC:
            raise DynamicError(f"unknown arithmetic operator {self.op!r}")
        left, right = self.children
        a = b.value(b.emit(left, env))
        return f"{b.const(_arithmetic)}({b.const(self.op)}, {a}, {b.emit(right, env)})"

    def _tree_label(self) -> str:
        return self.op


def _negate(seq):
    if not seq:
        return []
    if len(seq) > 1 or not is_number(seq[0]):
        raise TypeError_("unary minus requires a singleton number")
    return [-seq[0]]


class UnaryMinusIterator(RuntimeIterator):
    def _emit(self, b, env):
        return f"{b.const(_negate)}({b.emit(self.children[0], env)})"


class ComparisonIterator(RuntimeIterator):
    """Value comparison ``eq ne lt le gt ge`` (items.value_compare)."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _emit(self, b, env):
        left, right = self.children
        a = b.value(b.emit(left, env))
        return f"value_compare({b.const(self.op)}, {a}, {b.emit(right, env)})"

    def _tree_label(self) -> str:
        return self.op


class BoolOpIterator(RuntimeIterator):
    """``and`` / ``or`` with short-circuit over effective boolean values."""

    def __init__(self, op: str, left: RuntimeIterator, right: RuntimeIterator):
        super().__init__([left, right])
        self.op = op

    def _emit(self, b, env):
        # The right operand runs only when the left one does not decide.
        left, right = self.children
        out = b.tmp()
        b.line(f"{out} = ebv({b.emit(left, env)})")
        with b.block(f"if {out}" if self.op == "and" else f"if not {out}"):
            b.line(f"{out} = ebv({b.emit(right, env)})")
        return f"[{out}]"

    def _tree_label(self) -> str:
        return self.op


class NotIterator(RuntimeIterator):
    def _emit(self, b, env):
        return f"[not ebv({b.emit(self.children[0], env)})]"


class StringConcatIterator(RuntimeIterator):
    """``e1 || e2`` — atomize both sides; empty becomes ''."""

    def _emit(self, b, env):
        left, right = self.children
        to_str = b.const(to_concat_str)
        a = b.value(f"{to_str}({b.emit(left, env)})")
        return f"[{a} + {to_str}({b.emit(right, env)})]"


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


def _object_key(seq) -> str:
    if len(seq) != 1 or not is_atomic(seq[0]):
        raise TypeError_("object key must be a single atomic")
    return atomic_to_string(seq[0])


def _object_value_error(key: str, seq) -> None:
    raise TypeError_(
        f"object value for key {key!r} is a sequence of {len(seq)} "
        "items; wrap it in an array constructor [...]"
    )


class ObjectConstructorIterator(RuntimeIterator):
    """``{"k": v, ...}`` — keys must be singleton atomics, converted to
    strings; an empty value sequence becomes null, a multi-item value is
    an error (wrap in an array constructor, as JSONiq requires)."""

    def __init__(self, key_iters: list[RuntimeIterator], value_iters: list[RuntimeIterator]):
        super().__init__(key_iters + value_iters)
        self.key_iters = key_iters
        self.value_iters = value_iters

    def _emit(self, b, env):
        obj = b.tmp()
        b.line(f"{obj} = {{}}")
        for k, v in zip(self.key_iters, self.value_iters):
            # A literal key is atomic: its string is folded at build time.
            if isinstance(k, LiteralIterator):
                key = b.const(atomic_to_string(k.value))
            else:
                key = b.value(f"{b.const(_object_key)}({b.emit(k, env)})")
            seq = b.value(b.emit(v, env))
            with b.block(f"if len({seq}) > 1"):
                b.line(f"{b.const(_object_value_error)}({key}, {seq})")
            b.line(f"{obj}[{key}] = {seq}[0] if {seq} else None")
        return f"[{obj}]"


class ArrayConstructorIterator(RuntimeIterator):
    """``[ e ]`` — the child sequence, copied into one array item."""

    def _emit(self, b, env):
        if not self.children:
            return "[[]]"
        return f"[list({b.emit(self.children[0], env)})]"
