"""Builtin function library (paper §2.3, §5.7).

Each function is a small implementation taking its argument iterators
and the dynamic context. Aggregations (``count``, ``sum``, ...) follow
§5.5: when the argument sequence is physically an RDD, they invoke the
corresponding Spark *action* on it instead of streaming items to the
driver — the result is a local singleton but "the user does not see
the difference". ``distinct-values`` keeps its output distributed: it
maps to the RDD ``distinct`` transformation.
"""
from __future__ import annotations

from typing import Callable, Iterator

from ...jsoniq.errors import DynamicError, StaticError, TypeError_
from ..dynamic_context import DynamicContext
from ..items import Item, effective_boolean_value, is_atomic, is_number, kind
from .base import RuntimeIterator
from .operators import atomic_to_string

# registry: name -> (min_args, max_args, impl)
# impl(args: list[RuntimeIterator], ctx) -> Iterator[Item]
_REGISTRY: dict[str, tuple[int, int, Callable]] = {}


def register(name: str, min_args: int, max_args: int):
    def deco(fn):
        _REGISTRY[name] = (min_args, max_args, fn)
        return fn

    return deco


def validate_call(name: str, n_args: int) -> None:
    """Static arity check (unknown function / wrong arity → StaticError)."""
    if name not in _REGISTRY:
        raise StaticError(f"unknown function {name}()")
    lo, hi, _ = _REGISTRY[name]
    if not (lo <= n_args <= hi):
        raise StaticError(f"{name}() takes {lo}..{hi} arguments, got {n_args}")


class FunctionCallIterator(RuntimeIterator):
    """Dispatches to the registered implementation by name."""

    def __init__(self, name: str, args: list[RuntimeIterator]):
        super().__init__(list(args))
        self.name = name
        validate_call(name, len(args))

    def _iterate_local(self, ctx: DynamicContext) -> Iterator[Item]:
        impl = _REGISTRY[self.name][2]
        yield from impl(self.children, ctx)

    # distinct-values keeps RDD form (§5.6); everything else is local.
    def supports_rdd(self, ctx: DynamicContext) -> bool:
        if self.name == "distinct-values":
            return self.children[0].supports_rdd(ctx)
        return False

    def get_rdd(self, ctx: DynamicContext):
        if self.name == "distinct-values":
            return self.children[0].get_rdd(ctx).map(_require_atomic).distinct()
        return super().get_rdd(ctx)

    def _tree_label(self) -> str:
        return self.name


def _require_atomic(item: Item) -> Item:
    if not is_atomic(item):
        raise TypeError_(f"distinct-values on a {kind(item)}")
    return item


def _stream(child: RuntimeIterator, ctx: DynamicContext) -> Iterator[Item]:
    return child.iter_items(ctx)


# ---------------------------------------------------------------------------
# Aggregations — Spark actions when the child is an RDD (§5.5)
# ---------------------------------------------------------------------------

@register("count", 1, 1)
def _fn_count(args, ctx):
    (child,) = args
    if child.supports_rdd(ctx):
        # FLWOR children expose rdd_count, which can count the tuple
        # stream in the JVM without a per-row return evaluation (§5.5).
        rdd_count = getattr(child, "rdd_count", None)
        yield rdd_count(ctx) if rdd_count is not None else child.get_rdd(ctx).count()
        return
    n = 0
    for _ in _stream(child, ctx):
        n += 1
    yield n


def _numeric_agg(child, ctx, op: str):
    """sum/min/max/avg over numbers (min/max also strings, per W3C)."""
    if child.supports_rdd(ctx):
        rdd = child.get_rdd(ctx)
        if op == "sum":
            return rdd.map(_num_or_error).sum()
        if op == "avg":
            pair = rdd.map(lambda it: (_num_or_error(it), 1)).reduce(
                lambda a, b: (a[0] + b[0], a[1] + b[1])
            )
            return pair[0] / pair[1]
        if op == "min":
            return rdd.reduce(_min2)
        if op == "max":
            return rdd.reduce(_max2)
    values = list(_stream(child, ctx))
    if not values:
        return None  # sentinel handled by callers
    if op == "sum":
        return sum(_num_or_error(v) for v in values)
    if op == "avg":
        return sum(_num_or_error(v) for v in values) / len(values)
    if op == "min":
        out = values[0]
        for v in values[1:]:
            out = _min2(out, v)
        return out
    out = values[0]
    for v in values[1:]:
        out = _max2(out, v)
    return out


def _num_or_error(item: Item):
    if not is_number(item):
        raise TypeError_(f"numeric aggregation over a {kind(item)}")
    return item


def _comparable_pair(a: Item, b: Item):
    ok = (is_number(a) and is_number(b)) or (isinstance(a, str) and isinstance(b, str))
    if not ok:
        raise TypeError_(f"min/max over mixed {kind(a)} and {kind(b)}")


def _min2(a, b):
    _comparable_pair(a, b)
    return a if a <= b else b


def _max2(a, b):
    _comparable_pair(a, b)
    return a if a >= b else b


@register("sum", 1, 2)
def _fn_sum(args, ctx):
    r = _numeric_agg(args[0], ctx, "sum")
    if r is None:
        # zero value: second argument, default integer 0
        if len(args) == 2:
            yield from args[1].materialize(ctx)
        else:
            yield 0
        return
    yield r


@register("avg", 1, 1)
def _fn_avg(args, ctx):
    r = _numeric_agg(args[0], ctx, "avg")
    if r is not None:
        yield r


@register("min", 1, 1)
def _fn_min(args, ctx):
    try:
        r = _numeric_agg(args[0], ctx, "min")
    except ValueError:  # empty RDD reduce
        r = None
    if r is not None:
        yield r


@register("max", 1, 1)
def _fn_max(args, ctx):
    try:
        r = _numeric_agg(args[0], ctx, "max")
    except ValueError:
        r = None
    if r is not None:
        yield r


# ---------------------------------------------------------------------------
# Sequence functions
# ---------------------------------------------------------------------------

@register("empty", 1, 1)
def _fn_empty(args, ctx):
    for _ in _stream(args[0], ctx):
        yield False
        return
    yield True


@register("exists", 1, 1)
def _fn_exists(args, ctx):
    for _ in _stream(args[0], ctx):
        yield True
        return
    yield False


@register("head", 1, 1)
def _fn_head(args, ctx):
    for item in _stream(args[0], ctx):
        yield item
        return


@register("tail", 1, 1)
def _fn_tail(args, ctx):
    it = _stream(args[0], ctx)
    next(it, None)
    yield from it


@register("subsequence", 2, 3)
def _fn_subsequence(args, ctx):
    start = _single_number(args[1], ctx, "subsequence start")
    length = _single_number(args[2], ctx, "subsequence length") if len(args) == 3 else None
    lo = int(round(start))
    hi = None if length is None else lo + int(round(length))
    pos = 0
    for item in _stream(args[0], ctx):
        pos += 1
        if pos >= lo and (hi is None or pos < hi):
            yield item
        elif hi is not None and pos >= hi:
            return


@register("distinct-values", 1, 1)
def _fn_distinct_values(args, ctx):
    seen: set = set()
    for item in _stream(args[0], ctx):
        _require_atomic(item)
        if item not in seen:
            seen.add(item)
            yield item


@register("reverse", 1, 1)
def _fn_reverse(args, ctx):
    yield from reversed(args[0].materialize(ctx))


# ---------------------------------------------------------------------------
# Object / array functions
# ---------------------------------------------------------------------------

@register("size", 1, 1)
def _fn_size(args, ctx):
    seq = args[0].materialize(ctx)
    if not seq:
        return
    if len(seq) != 1 or not isinstance(seq[0], list):
        raise TypeError_("size() requires a single array")
    yield len(seq[0])


@register("keys", 1, 1)
def _fn_keys(args, ctx):
    seen: set[str] = set()
    for item in _stream(args[0], ctx):
        if isinstance(item, dict):
            for k in item:
                if k not in seen:
                    seen.add(k)
                    yield k


@register("values", 1, 1)
def _fn_values(args, ctx):
    for item in _stream(args[0], ctx):
        if isinstance(item, dict):
            yield from item.values()


@register("members", 1, 1)
def _fn_members(args, ctx):
    for item in _stream(args[0], ctx):
        if isinstance(item, list):
            yield from item


# ---------------------------------------------------------------------------
# Casts / constructors
# ---------------------------------------------------------------------------

def _single_number(args0, ctx, what: str) -> float:
    seq = args0.materialize(ctx)
    if len(seq) != 1 or not is_number(seq[0]):
        raise TypeError_(f"{what} must be a single number")
    return seq[0]


@register("string", 1, 1)
def _fn_string(args, ctx):
    seq = args[0].materialize(ctx)
    if not seq:
        yield ""
        return
    if len(seq) > 1:
        raise TypeError_("string() requires a singleton")
    yield atomic_to_string(seq[0])


@register("integer", 1, 1)
def _fn_integer(args, ctx):
    seq = args[0].materialize(ctx)
    if not seq:
        return
    item = seq[0] if len(seq) == 1 else None
    if len(seq) > 1:
        raise TypeError_("integer() requires a singleton")
    try:
        if isinstance(item, bool):
            yield int(item)
        elif is_number(item) or isinstance(item, str):
            yield int(float(item)) if not isinstance(item, int) else item
        else:
            raise TypeError_(f"cannot cast {kind(item)} to integer")
    except ValueError as exc:
        raise DynamicError(f"cannot cast {item!r} to integer") from exc


@register("number", 1, 1)
def _fn_number(args, ctx):
    seq = args[0].materialize(ctx)
    if not seq:
        return
    if len(seq) > 1:
        raise TypeError_("number() requires a singleton")
    item = seq[0]
    try:
        if isinstance(item, bool):
            yield float(item)
        elif is_number(item):
            yield float(item)
        elif isinstance(item, str):
            yield float(item)
        else:
            raise TypeError_(f"cannot cast {kind(item)} to number")
    except ValueError:
        yield float("nan")


@register("boolean", 1, 1)
def _fn_boolean(args, ctx):
    yield effective_boolean_value(args[0].materialize(ctx))


@register("not", 1, 1)
def _fn_not(args, ctx):
    yield not effective_boolean_value(args[0].materialize(ctx))


# ---------------------------------------------------------------------------
# String functions
# ---------------------------------------------------------------------------

def _single_string(args0, ctx, what: str, *, empty_ok: bool = True) -> str | None:
    seq = args0.materialize(ctx)
    if not seq:
        if empty_ok:
            return None
        raise TypeError_(f"{what} must be a single string")
    if len(seq) != 1 or not isinstance(seq[0], str):
        raise TypeError_(f"{what} must be a single string")
    return seq[0]


@register("string-length", 1, 1)
def _fn_string_length(args, ctx):
    s = _single_string(args[0], ctx, "string-length() argument")
    yield len(s) if s is not None else 0


@register("lower-case", 1, 1)
def _fn_lower(args, ctx):
    s = _single_string(args[0], ctx, "lower-case() argument")
    yield (s or "").lower()


@register("upper-case", 1, 1)
def _fn_upper(args, ctx):
    s = _single_string(args[0], ctx, "upper-case() argument")
    yield (s or "").upper()


@register("substring", 2, 3)
def _fn_substring(args, ctx):
    s = _single_string(args[0], ctx, "substring() argument") or ""
    start = int(round(_single_number(args[1], ctx, "substring start")))
    if len(args) == 3:
        length = int(round(_single_number(args[2], ctx, "substring length")))
        yield s[max(start - 1, 0) : max(start - 1 + length, 0)]
    else:
        yield s[max(start - 1, 0) :]


@register("contains", 2, 2)
def _fn_contains(args, ctx):
    a = _single_string(args[0], ctx, "contains() haystack") or ""
    b = _single_string(args[1], ctx, "contains() needle") or ""
    yield b in a


@register("starts-with", 2, 2)
def _fn_starts_with(args, ctx):
    a = _single_string(args[0], ctx, "starts-with() haystack") or ""
    b = _single_string(args[1], ctx, "starts-with() needle") or ""
    yield a.startswith(b)


@register("ends-with", 2, 2)
def _fn_ends_with(args, ctx):
    a = _single_string(args[0], ctx, "ends-with() haystack") or ""
    b = _single_string(args[1], ctx, "ends-with() needle") or ""
    yield a.endswith(b)


@register("concat", 2, 16)
def _fn_concat(args, ctx):
    parts = []
    for a in args:
        seq = a.materialize(ctx)
        parts.append("" if not seq else atomic_to_string(seq[0]))
    yield "".join(parts)


@register("string-join", 1, 2)
def _fn_string_join(args, ctx):
    sep = ""
    if len(args) == 2:
        sep = _single_string(args[1], ctx, "string-join() separator") or ""
    yield sep.join(atomic_to_string(i) for i in _stream(args[0], ctx))


# ---------------------------------------------------------------------------
# Numeric functions
# ---------------------------------------------------------------------------

@register("abs", 1, 1)
def _fn_abs(args, ctx):
    seq = args[0].materialize(ctx)
    if seq:
        yield abs(_num_or_error(seq[0]))


@register("round", 1, 2)
def _fn_round(args, ctx):
    seq = args[0].materialize(ctx)
    if not seq:
        return
    digits = int(_single_number(args[1], ctx, "round precision")) if len(args) == 2 else 0
    x = _num_or_error(seq[0])
    # XPath rounds ties toward positive infinity: round(2.5)=3,
    # round(-2.5)=-2 — neither Python's banker's rounding nor plain
    # half-away-from-zero.
    import decimal

    rounding = decimal.ROUND_HALF_UP if x >= 0 else decimal.ROUND_HALF_DOWN
    d = decimal.Decimal(str(x)).quantize(
        decimal.Decimal(1).scaleb(-digits), rounding=rounding
    )
    yield int(d) if digits <= 0 else float(d)


@register("floor", 1, 1)
def _fn_floor(args, ctx):
    seq = args[0].materialize(ctx)
    if seq:
        import math

        yield math.floor(_num_or_error(seq[0]))


@register("ceiling", 1, 1)
def _fn_ceiling(args, ctx):
    seq = args[0].materialize(ctx)
    if seq:
        import math

        yield math.ceil(_num_or_error(seq[0]))
