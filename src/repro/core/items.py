"""The JSONiq Data Model (JDM) as used by the engine (paper §2.3, §4.1).

Items are represented as plain Python values, which keeps them cheap to
ship through Spark closures and trivially heterogeneous (the paper's
``Item`` class hierarchy collapses onto Python's dynamic typing):

======================  =======================
JDM item                Python representation
======================  =======================
object                  ``dict[str, item]``
array                   ``list[item]``
string                  ``str``
number (int/dec/dbl)    ``int`` / ``float``
boolean                 ``bool``
null                    ``None``
======================  =======================

A *sequence of items* is a Python ``list`` (flat, never nested as a
sequence; arrays nest, sequences do not). The **empty sequence** is
``[]`` and is distinct from ``[None]`` (a sequence of one null) —
exactly the missing-vs-null distinction Spark SQL loses in Fig. 6.

For FLWOR tuple streams on DataFrames (§4.3), every variable column
holds the JSON serialization of its sequence (a JSON array). JSON
round-trips all JDM item kinds losslessly, including the int/float
distinction.

:func:`loads` is the engine's one JSON decoder: ``json-file()`` lines
and tuple cells both go through it. It decodes with orjson and falls
back to stdlib ``json`` wherever the two could differ, so it returns
exactly what ``json.loads`` returns and raises what it raises. Encoding
stays on stdlib ``json`` (DESIGN.md §5b says why).

This module also implements the §4.7 *typed encoding*: three native
DataFrame columns (type code, string value, number value) per
grouping/ordering key, designed so that Spark SQL GROUP BY / ORDER BY
over the encoded columns realises JSONiq key semantics.
"""
from __future__ import annotations

import json
import math
import operator
from typing import Any

import orjson

from ..jsoniq.errors import DynamicError, NonAtomicKeyError, TypeError_

Item = Any  # object|array|str|int|float|bool|None
Sequence = list


# --------------------------------------------------------------------------
# Sequence (de)serialization for DataFrame columns
# --------------------------------------------------------------------------

_ENCODER = json.JSONEncoder(separators=(",", ":"))  # json.dumps would build one per call


def dumps_seq(seq: Sequence) -> str:
    """Serialize a sequence of items to its JSON-array column encoding."""
    return _ENCODER.encode(seq)


#: Maps each ASCII digit byte to ``0``, ``{`` to ``[``, and each other
#: byte a JSON number may follow (``,``, ``-``, whitespace) to ``:``;
#: ``[``, ``:`` and every other byte map to themselves.
_MASK = bytes.maketrans(b"0123456789{,-\t\n\r ", b"0000000000[::::::")
#: orjson turns an integer literal outside [-2^63, 2^64) into a float;
#: every such literal is a run of at least 19 digits that starts the
#: text or follows a byte the mask maps to ``[`` or ``:``.
_LONG_DIGIT_RUN = b"0" * 19
#: orjson has no nesting limit, where stdlib raises ``RecursionError``
#: near Python's recursion limit (~1,000 levels). Text with this many
#: opening brackets may nest that deep. Valid JSON closes each one, so
#: shorter text than twice this is malformed or has fewer: it needs no
#: count, and orjson's error on malformed text sends it to stdlib.
_DEEP = 500


def loads(text: str) -> Item:
    """``json.loads(text)``, through orjson where it gives the same item.

    orjson rejects what stdlib accepts beyond JSON (``NaN``,
    ``Infinity``, ``1e400``, lone surrogates): those, and malformed
    text, fall back to stdlib, which decodes them or raises its own
    ``JSONDecodeError``. Text holding 19 or more digits in a row where a
    number may start, which may be an integer orjson would turn into a
    float, and text holding 500 or more opening brackets, which may nest
    too deep for stdlib, go straight to stdlib; such a run or bracket
    inside a string only costs speed."""
    mask = text.encode("utf-8", "surrogatepass").translate(_MASK)
    run = _LONG_DIGIT_RUN
    long_int = run in mask and (mask.startswith(run) or b":" + run in mask or b"[" + run in mask)
    if not long_int and (len(mask) < 2 * _DEEP or mask.count(b"[") < _DEEP):
        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def loads_seq(cell: str | None) -> Sequence:
    """Inverse of :func:`dumps_seq`; a SQL NULL cell decodes to the
    empty sequence."""
    if cell is None:
        return []
    return loads(cell)


# --------------------------------------------------------------------------
# Kind tests and effective boolean value
# --------------------------------------------------------------------------

def is_atomic(item: Item) -> bool:
    return not isinstance(item, (dict, list))


def is_number(item: Item) -> bool:
    # bool is an int subclass in Python but a distinct JDM type.
    return isinstance(item, (int, float)) and not isinstance(item, bool)


def to_integer(x, what: str) -> int:
    """``int(x)`` of a number. NaN and ±INF have no integer value: they
    raise a JSONiq DynamicError, not Python's ValueError/OverflowError."""
    try:
        return int(x)
    except (ValueError, OverflowError) as exc:
        raise DynamicError(f"{what} has no integer value: {x}") from exc


def kind(item: Item) -> str:
    """JDM kind name, used in error messages and type dispatch."""
    if isinstance(item, dict):
        return "object"
    if isinstance(item, list):
        return "array"
    if isinstance(item, bool):
        return "boolean"
    if item is None:
        return "null"
    if isinstance(item, str):
        return "string"
    if isinstance(item, (int, float)):
        return "number"
    raise TypeError_(f"not a JDM item: {type(item).__name__}")


def effective_boolean_value(seq: Sequence) -> bool:
    """JSONiq effective boolean value of a sequence.

    Empty → false; singleton boolean → itself; singleton null → false;
    singleton string → non-empty; singleton number → non-zero and not
    NaN; anything else (objects, arrays, longer sequences) is an error
    in JSONiq — we raise, matching spec behaviour.
    """
    if not seq:
        return False
    if len(seq) > 1:
        raise TypeError_("effective boolean value of a sequence of more than one item")
    item = seq[0]
    if isinstance(item, bool):
        return item
    if item is None:
        return False
    if isinstance(item, str):
        return len(item) > 0
    if is_number(item):
        return item != 0 and not (isinstance(item, float) and math.isnan(item))
    raise TypeError_(f"effective boolean value of a {kind(item)}")


# --------------------------------------------------------------------------
# Value comparison (eq ne lt le gt ge) — §4.8 semantics
# --------------------------------------------------------------------------

def compare_atomics(a: Item, b: Item) -> int | None:
    """Three-way comparison of two atomic items.

    Returns <0, 0, >0, or ``None`` when the items are incomparable for
    ordering (e.g. a string and a number — §4.8 requires an error,
    which the caller raises). ``null`` is smaller than any other
    atomic value.
    """
    if a is None and b is None:
        return 0
    if a is None:
        return -1
    if b is None:
        return 1
    if isinstance(a, bool) and isinstance(b, bool):
        return (a > b) - (a < b)
    if is_number(a) and is_number(b):
        return (a > b) - (a < b)
    if isinstance(a, str) and isinstance(b, str):
        return (a > b) - (a < b)
    return None


_COMPARE = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
            "le": operator.le, "gt": operator.gt, "ge": operator.ge}


def value_compare(op: str, a_seq: Sequence, b_seq: Sequence) -> Sequence:
    """JSONiq value comparison: empty operand propagates to empty;
    singleton atomics compare; ``eq``/``ne`` across incompatible types
    are false/true; ordering across incompatible types is an error."""
    if not a_seq or not b_seq:
        return []
    if len(a_seq) > 1 or len(b_seq) > 1:
        raise TypeError_(f"comparison '{op}' requires singleton sequences")
    a, b = a_seq[0], b_seq[0]
    if isinstance(a, (dict, list)) or isinstance(b, (dict, list)):
        raise TypeError_(f"comparison '{op}' on non-atomic item")
    if type(a) is type(b) and a is not None:
        # Two atomics of one type: compare_atomics' answer, inline.
        c = (a > b) - (a < b)
    else:
        c = compare_atomics(a, b)
    if c is None:
        if op == "eq":
            return [False]
        if op == "ne":
            return [True]
        raise TypeError_(f"cannot compare {kind(a)} with {kind(b)} using '{op}'")
    return [_COMPARE[op](c, 0)]


# --------------------------------------------------------------------------
# §4.7 typed encoding of grouping/ordering keys
# --------------------------------------------------------------------------
#
# Paper type codes: 1 empty sequence (7 when "empty greatest"), 2 null,
# then booleans, 5 string, 6 number. The paper prints "3 for the
# boolean true, 4 for false" in §4.7, where only *equality* of codes
# matters; for order-by the JSONiq spec requires false < true, so we
# use 3=false, 4=true throughout (one encoding for both clauses; the
# deviation is documented in DESIGN.md and EXPERIMENTS.md).

TYPE_EMPTY_LEAST = 1
TYPE_NULL = 2
TYPE_FALSE = 3
TYPE_TRUE = 4
TYPE_STRING = 5
TYPE_NUMBER = 6
TYPE_EMPTY_GREATEST = 7

EncodedKey = tuple[int, str, float, float]


def encode_key(seq: Sequence, *, empty_greatest: bool = False, clause: str = "key") -> EncodedKey:
    """Encode a key binding as (type code, string value, double value,
    residual ``n - int(float(n))`` of an integer ``n``, which orders the
    integers beyond 2^53 that share a double; it is exact below 2^106).

    Raises :class:`NonAtomicKeyError` when the binding is not a single
    atomic item or the empty sequence (§4.7/§4.8 requirement).
    """
    if not seq:
        return (TYPE_EMPTY_GREATEST if empty_greatest else TYPE_EMPTY_LEAST, "", 0.0, 0.0)
    if len(seq) > 1:
        raise NonAtomicKeyError(f"{clause} bound to a sequence of {len(seq)} items")
    item = seq[0]
    if item is None:
        return (TYPE_NULL, "", 0.0, 0.0)
    if isinstance(item, bool):
        return (TYPE_TRUE if item else TYPE_FALSE, "", 0.0, 0.0)
    if isinstance(item, str):
        return (TYPE_STRING, item, 0.0, 0.0)
    if is_number(item):
        d = float(item)
        return (TYPE_NUMBER, "", d, float(item - int(d)) if isinstance(item, int) else 0.0)
    raise NonAtomicKeyError(f"{clause} bound to a {kind(item)}")


def check_orderable_types(codes: set[int], spec_label: str = "order-by key") -> None:
    """§4.8 first pass: values under one sort key must be mutually
    comparable. Empty/null (codes 1, 2, 7) are comparable to anything;
    the remaining codes must be all-boolean, all-string or all-number."""
    concrete = codes - {TYPE_EMPTY_LEAST, TYPE_NULL, TYPE_EMPTY_GREATEST}
    families = set()
    for c in concrete:
        families.add("boolean" if c in (TYPE_FALSE, TYPE_TRUE) else
                     "string" if c == TYPE_STRING else "number")
    if len(families) > 1:
        raise TypeError_(
            f"{spec_label}: incompatible types in tuple stream: {sorted(families)}"
        )

