"""Builtin function library (paper §2.3, §5.7).

Every builtin is ``impl(*sequences)``, called straight from the
generated code with its arguments' evaluated sequences. One registered
with ``stream=True`` gets its first argument after the others, as a
source's stream (otherwise the list), so it may stop early. An *action*
(``action=True``: aggregations, ``exists``, ``empty``, ``head``) follows
§5.5: given an RDD-backed sequence, it runs a Spark action on the RDD
instead of streaming items to the driver, folding the same way as
locally — the result is a local singleton and "the user does not see
the difference". ``distinct-values`` keeps its output distributed: it
keys each item by its §4.7 encoding and keeps one per key
(``reduceByKey``), as its local path keeps the first.
"""
from __future__ import annotations

import decimal
import itertools
import math
import operator
from typing import Callable, Iterable

from pyspark import RDD

from ...jsoniq.errors import DynamicError, StaticError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import (Item, effective_boolean_value, encode_key, is_atomic, is_number, kind,
                     to_integer)
from .base import RuntimeIterator, worker_task
from .operators import atomic_to_string, to_concat_str

# registry: name -> (min_args, max_args, impl(*sequences) -> list[Item], stream)
_REGISTRY: dict[str, tuple[int, int, Callable, bool]] = {}
_BOOLEAN: set[str] = set()  # registered with boolean=True: never return a number
_ACTIONS: set[str] = set()  # registered with action=True: may be given an RDD


def register(name: str, min_args: int, max_args: int, stream: bool = False,
             action: bool = False, boolean: bool = False):
    def deco(fn):
        _REGISTRY[name] = (min_args, max_args, fn, stream or action)
        if boolean:
            _BOOLEAN.add(name)
        if action:
            _ACTIONS.add(name)
        return fn

    return deco


def returns_boolean(name: str) -> bool:
    """Whether the builtin ``name`` returns a boolean, never a number."""
    return name in _BOOLEAN


def validate_call(name: str, n_args: int) -> None:
    """Static arity check (unknown function / wrong arity → StaticError)."""
    if name not in _REGISTRY:
        raise StaticError(f"unknown function {name}()")
    lo, hi, _, _ = _REGISTRY[name]
    if not (lo <= n_args <= hi):
        raise StaticError(f"{name}() takes {lo}..{hi} arguments, got {n_args}")


class FunctionCallIterator(RuntimeIterator):
    """Dispatches to the registered implementation by name."""

    def __init__(self, name: str, args: list[RuntimeIterator]):
        super().__init__(list(args))
        self.name = name
        validate_call(name, len(args))

    def _emit(self, b, env):
        _, _, impl, stream = _REGISTRY[self.name]
        if not stream:
            args = [b.value(b.emit(c, env)) for c in self.children[:-1]]
            args += [b.emit(c, env) for c in self.children[-1:]]
            return f"{b.const(impl)}({', '.join(args)})"
        # The other arguments are evaluated before the streamed one.
        first, rest = self.children[0], [b.value(b.emit(c, env)) for c in self.children[1:]]
        if self.name in _ACTIONS and (first.is_source or first.has_source):
            # §5.5: an action over an RDD runs on Spark.
            k, c = b.const(first), b.context(env)
            seq = f"{k}.get_rdd({c}) if {k}.supports_rdd({c}) else {k}.iter_items({c})"
        else:
            seq = b.iterate(first, env)
        return f"{b.const(impl)}({', '.join([seq, *rest])})"

    # distinct-values keeps RDD form (§5.6); everything else is local.
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        if self.name == "distinct-values":
            return self.children[0].supports_rdd(ctx)
        return False

    def get_rdd(self, ctx: DynamicContext):
        if self.name == "distinct-values":
            return self.children[0].get_rdd(ctx).keyBy(_distinct_key) \
                .reduceByKey(lambda a, b: a).values()
        return super().get_rdd(ctx)

    def _tree_label(self) -> str:
        return self.name


def _distinct_key(item: Item):
    """The identity of an atomic item in ``distinct-values``: its §4.7
    encoding, under which ``1`` and ``1.0`` are one value, ``1`` and
    ``true`` two, and every NaN one."""
    if not is_atomic(item):
        raise TypeError_(f"distinct-values on a {kind(item)}")
    try:
        return encode_key([item])
    except DynamicError:  # an integer beyond the double range is no double
        return item


# ---------------------------------------------------------------------------
# Aggregations — Spark actions when the argument is an RDD (§5.5)
# ---------------------------------------------------------------------------

@register("count", 1, 1, action=True)
def _fn_count(seq):
    if isinstance(seq, RDD):
        return [seq.count()]
    n = 0
    for _ in seq:
        n += 1
    return [n]


def _reduce(step: Callable, accs: Iterable) -> list:
    """``accs`` combined left to right with ``step``; [] when empty."""
    it = iter(accs)
    for acc in it:
        for nxt in it:
            acc = step(acc, nxt)
        return [acc]
    return []


def _fold(seq, step: Callable, check: Callable) -> list:
    """Each item of ``seq`` turned into an accumulator by ``check``,
    the accumulators combined by ``step``; [] for an empty sequence. On
    an RDD each partition folds its own items and the driver combines
    the partial results with the same ``step`` (§5.5)."""
    if isinstance(seq, RDD):
        return _reduce(step, seq.mapPartitions(worker_task(
            lambda items: _reduce(step, map(check, items))
        )).collect())
    return _reduce(step, map(check, seq))


def _num_or_error(item: Item):
    if not is_number(item):
        raise TypeError_(f"numeric aggregation over a {kind(item)}")
    return item


def _comparable(item: Item) -> Item:
    # W3C min/max compare numbers with numbers and strings with strings.
    if not (is_number(item) or isinstance(item, str)):
        raise TypeError_(f"min/max over a {kind(item)}")
    return item


def _same_family(a: Item, b: Item) -> None:
    if isinstance(a, str) != isinstance(b, str):
        raise TypeError_(f"min/max over mixed {kind(a)} and {kind(b)}")


# A NaN wins (XPath F&O 3.1 §14.4), whichever side it is on.
def _min2(a, b):
    _same_family(a, b)
    return a if a <= b or a != a else b


def _max2(a, b):
    _same_family(a, b)
    return a if a >= b or a != a else b


@register("sum", 1, 2, action=True)
def _fn_sum(seq, zero=None):
    # zero value of an empty sequence: second argument, default integer 0
    return _fold(seq, operator.add, _num_or_error) or ([0] if zero is None else zero)


@register("avg", 1, 1, action=True)
def _fn_avg(seq):
    pairs = _fold(seq, lambda a, b: (a[0] + b[0], a[1] + b[1]),
                  lambda item: (_num_or_error(item), 1))
    return [total / n for total, n in pairs]


@register("min", 1, 1, action=True)
def _fn_min(seq):
    return _fold(seq, _min2, _comparable)


@register("max", 1, 1, action=True)
def _fn_max(seq):
    return _fold(seq, _max2, _comparable)


# ---------------------------------------------------------------------------
# Sequence functions
# ---------------------------------------------------------------------------

@register("head", 1, 1, action=True)
def _fn_head(seq):
    """The first item (or none): ``take(1)`` on an RDD, otherwise the
    first item pulled."""
    if isinstance(seq, RDD):
        return seq.take(1)
    for item in seq:
        return [item]
    return []


@register("empty", 1, 1, action=True, boolean=True)
def _fn_empty(seq):
    return [not _fn_head(seq)]


@register("exists", 1, 1, action=True, boolean=True)
def _fn_exists(seq):
    return [bool(_fn_head(seq))]


@register("tail", 1, 1, stream=True)
def _fn_tail(seq):
    return list(itertools.islice(seq, 1, None))


@register("subsequence", 2, 3, stream=True)
def _fn_subsequence(seq, start, length=None):
    lo, hi = _positions(start, length, "subsequence")
    return list(itertools.islice(seq, lo, hi))


@register("distinct-values", 1, 1, stream=True)
def _fn_distinct_values(seq):
    first: dict = {}
    for item in seq:
        first.setdefault(_distinct_key(item), item)
    return list(first.values())


@register("reverse", 1, 1)
def _fn_reverse(seq):
    return seq[::-1]


# ---------------------------------------------------------------------------
# Object / array functions
# ---------------------------------------------------------------------------

@register("size", 1, 1)
def _fn_size(seq):
    if not seq:
        return []
    if len(seq) != 1 or not isinstance(seq[0], list):
        raise TypeError_("size() requires a single array")
    return [len(seq[0])]


@register("keys", 1, 1, stream=True)
def _fn_keys(seq):
    seen: dict[str, None] = {}
    for item in seq:
        if isinstance(item, dict):
            seen.update(dict.fromkeys(item))
    return list(seen)


@register("values", 1, 1, stream=True)
def _fn_values(seq):
    out = []
    for item in seq:
        if isinstance(item, dict):
            out.extend(item.values())
    return out


@register("members", 1, 1, stream=True)
def _fn_members(seq):
    out = []
    for item in seq:
        if isinstance(item, list):
            out.extend(item)
    return out


# ---------------------------------------------------------------------------
# Casts / constructors
# ---------------------------------------------------------------------------

def _single_number(seq, what: str, *, empty_ok: bool = False):
    if not seq and empty_ok:
        return None
    if len(seq) != 1 or not is_number(seq[0]):
        raise TypeError_(f"{what} must be a single number")
    return seq[0]


@register("string", 1, 1)
def _fn_string(seq):
    if not seq:
        return [""]
    if len(seq) > 1:
        raise TypeError_("string() requires a singleton")
    return [atomic_to_string(seq[0])]


@register("integer", 1, 1)
def _fn_integer(seq):
    if not seq:
        return []
    if len(seq) > 1:
        raise TypeError_("integer() requires a singleton")
    item = seq[0]
    try:
        if isinstance(item, bool):
            return [int(item)]
        if is_number(item) or isinstance(item, str):
            return [int(float(item)) if not isinstance(item, int) else item]
        raise TypeError_(f"cannot cast {kind(item)} to integer")
    except (ValueError, OverflowError) as exc:
        raise DynamicError(f"cannot cast {item!r} to integer") from exc


@register("number", 1, 1)
def _fn_number(seq):
    if not seq:
        return []
    if len(seq) > 1:
        raise TypeError_("number() requires a singleton")
    item = seq[0]
    # Booleans (an int subclass), numbers and strings cast; a string
    # that is no number is NaN.
    if not isinstance(item, (int, float, str)):
        raise TypeError_(f"cannot cast {kind(item)} to number")
    try:
        return [float(item)]
    except ValueError:
        return [float("nan")]


@register("boolean", 1, 1, boolean=True)
def _fn_boolean(seq):
    return [effective_boolean_value(seq)]


@register("not", 1, 1, boolean=True)
def _fn_not(seq):
    return [not effective_boolean_value(seq)]


# ---------------------------------------------------------------------------
# String functions
# ---------------------------------------------------------------------------

def _single_string(seq, what: str, *, empty_ok: bool = True) -> str | None:
    if not seq:
        if empty_ok:
            return None
        raise TypeError_(f"{what} must be a single string")
    if len(seq) != 1 or not isinstance(seq[0], str):
        raise TypeError_(f"{what} must be a single string")
    return seq[0]


@register("string-length", 1, 1)
def _fn_string_length(seq):
    s = _single_string(seq, "string-length() argument")
    return [len(s) if s is not None else 0]


@register("lower-case", 1, 1)
def _fn_lower(seq):
    s = _single_string(seq, "lower-case() argument")
    return [(s or "").lower()]


@register("upper-case", 1, 1)
def _fn_upper(seq):
    s = _single_string(seq, "upper-case() argument")
    return [(s or "").upper()]


@register("substring", 2, 3)
def _fn_substring(seq, start, length=None):
    s = _single_string(seq, "substring() argument") or ""
    lo, hi = _positions(start, length, "substring")
    return [s[lo:hi]]


@register("contains", 2, 2, boolean=True)
def _fn_contains(a, b):
    a = _single_string(a, "contains() haystack") or ""
    b = _single_string(b, "contains() needle") or ""
    return [b in a]


@register("starts-with", 2, 2, boolean=True)
def _fn_starts_with(a, b):
    a = _single_string(a, "starts-with() haystack") or ""
    b = _single_string(b, "starts-with() needle") or ""
    return [a.startswith(b)]


@register("ends-with", 2, 2, boolean=True)
def _fn_ends_with(a, b):
    a = _single_string(a, "ends-with() haystack") or ""
    b = _single_string(b, "ends-with() needle") or ""
    return [a.endswith(b)]


@register("concat", 2, 16)
def _fn_concat(*seqs):
    # Each argument converts as an operand of '||' does.
    return ["".join(map(to_concat_str, seqs))]


@register("string-join", 1, 2, stream=True)
def _fn_string_join(seq, sep=()):
    sep = _single_string(sep, "string-join() separator") or ""
    return [sep.join(map(atomic_to_string, seq))]


# ---------------------------------------------------------------------------
# Numeric functions
# ---------------------------------------------------------------------------

def _xpath_round(x, digits: int = 0):
    """``x`` rounded to ``digits`` decimals, ties toward positive
    infinity as XPath rounds: round(2.5)=3.0, round(-2.5)=-2.0 — neither
    Python's banker's rounding nor plain half-away-from-zero. The result
    keeps the argument's type: an integer stays an integer, a double a
    double. NaN and ±INF round to themselves."""
    if not _finite(x):
        return x
    d = decimal.Decimal(str(x))
    if digits < -d.as_tuple().exponent:  # there are digits to round away
        rounding = decimal.ROUND_HALF_UP if x >= 0 else decimal.ROUND_HALF_DOWN
        d = d.quantize(decimal.Decimal(1).scaleb(-digits, _EXACT), rounding, _EXACT)
    return int(d) if isinstance(x, int) else float(d)


#: Rounds integers of any length: the default context holds 28 digits.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _positions(start, length, what: str) -> tuple[int, int | None]:
    """The 0-based slice of the 1-based positions p with round(start) <=
    p < round(start) + round(length), as XPath's substring and
    subsequence select them. A NaN bound selects nothing."""
    lo = _xpath_round(_single_number(start, f"{what} start"))
    hi = math.inf
    if length is not None:
        hi = lo + _xpath_round(_single_number(length, f"{what} length"))
    if not lo < hi:
        return 0, 0
    return int(max(lo, 1)) - 1, None if hi == math.inf else int(max(hi, 1)) - 1


def _finite(x) -> bool:
    # math.isfinite would overflow on an int beyond the double range.
    return isinstance(x, int) or math.isfinite(x)


@register("round", 1, 2)
def _fn_round(seq, precision=None):
    x = _single_number(seq, "round() argument", empty_ok=True)
    if x is None:
        return []
    digits = 0 if precision is None else to_integer(
        _single_number(precision, "round precision"), "round precision")
    return [_xpath_round(x, digits)]


def _register_unary(name: str, op: Callable) -> None:
    def impl(seq):
        x = _single_number(seq, f"{name}() argument", empty_ok=True)
        return [] if x is None else [op(x)]

    register(name, 1, 1)(impl)


_register_unary("abs", abs)
# A double stays a double: the sign of x is the sign of the result (or
# of its zero, as XPath's ceiling(-0.5) is -0).
_register_unary("floor", lambda x: math.copysign(math.floor(x), x)
                if isinstance(x, float) and math.isfinite(x) else x)
_register_unary("ceiling", lambda x: math.copysign(math.ceil(x), x)
                if isinstance(x, float) and math.isfinite(x) else x)
