"""Builtin function library tests (local evaluation)."""
import pytest

from repro.core import Rumble
from repro.core.iterators.functions import _REGISTRY
from repro.jsoniq.errors import DynamicError, RumbleError, StaticError, TypeError_

AGGREGATES = [
    ("count(())", [0]),
    ("count(1)", [1]),
    ("count((1, 2, 3))", [3]),
    ('count(("a", {}, []))', [3]),
    ("sum(())", [0]),
    ("sum((1, 2, 3))", [6]),
    ("sum((1.5, 2.5))", [4.0]),
    ("sum((), 99)", [99]),
    ("avg((1, 2, 3))", [2.0]),
    ("avg(())", []),
    ("min((3, 1, 2))", [1]),
    ("max((3, 1, 2))", [3]),
    ('min(("b", "a"))', ["a"]),
    ('max(("b", "a", "c"))', ["c"]),
    ("min(())", []),
    ("max(())", []),
]

SEQUENCE_FNS = [
    ("empty(())", [True]),
    ("empty((1))", [False]),
    ("exists(())", [False]),
    ("exists(1)", [True]),
    ("head((1, 2, 3))", [1]),
    ("head(())", []),
    ("tail((1, 2, 3))", [2, 3]),
    ("tail(())", []),
    ("tail(1)", []),
    ("subsequence((1, 2, 3, 4), 2)", [2, 3, 4]),
    ("subsequence((1, 2, 3, 4), 2, 2)", [2, 3]),
    # XPath rounds start and length half toward +infinity.
    ("subsequence((1, 2, 3, 4), 2.5)", [3, 4]),
    ("subsequence((1, 2, 3, 4, 5), 1.5, 2.5)", [2, 3, 4]),
    ("subsequence((1, 2, 3, 4), -0.5, 2)", [1]),
    # A NaN bound selects nothing; an infinite length runs to the end.
    ('subsequence((1, 2), number("x"))', []),
    ('subsequence((1, 2, 3), 2, number("INF"))', [2, 3]),
    ('subsequence((1, 2, 3), 1, number("x"))', []),
    ("distinct-values((1, 2, 2, 1, 3))", [1, 2, 3]),
    ('distinct-values(("a", "a"))', ["a"]),
    ("distinct-values(())", []),
    ("reverse((1, 2, 3))", [3, 2, 1]),
    ("reverse(())", []),
]

OBJECT_ARRAY_FNS = [
    ("size([1, 2, 3])", [3]),
    ("size([])", [0]),
    ("size(())", []),
    ('keys({"a": 1, "b": 2})', ["a", "b"]),
    ('keys(({"a": 1}, {"a": 2, "c": 3}))', ["a", "c"]),
    ("keys(())", []),
    ('values({"a": 1, "b": 2})', [1, 2]),
    ("members([1, 2])", [1, 2]),
    ("members(())", []),
]

CASTS = [
    ("string(42)", ["42"]),
    ("string(1.5)", ["1.5"]),
    ("string(2.0)", ["2"]),
    ("string(true)", ["true"]),
    ("string(null)", ["null"]),
    ('string("x")', ["x"]),
    ("string(())", [""]),
    ('integer("42")', [42]),
    ("integer(3.9)", [3]),
    ("integer(true)", [1]),
    ("integer(())", []),
    ('number("2.5")', [2.5]),
    ("number(7)", [7.0]),
    ("boolean(1)", [True]),
    ("boolean(())", [False]),
    ('boolean("")', [False]),
]

STRING_FNS = [
    ('string-length("hello")', [5]),
    ("string-length(())", [0]),
    ('lower-case("AbC")', ["abc"]),
    ('upper-case("AbC")', ["ABC"]),
    ('substring("hello", 2)', ["ello"]),
    ('substring("hello", 2, 3)', ["ell"]),
    ('substring("12345", 2.5)', ["345"]),
    ('substring("12345", 1.5, 2.6)', ["234"]),
    ('substring("12345", 0, 3)', ["12"]),
    ('substring("abc", number("x"))', [""]),
    ('substring("abcde", 2, number("INF"))', ["bcde"]),
    ('substring("abcde", -number("INF"), number("INF"))', [""]),
    ('substring("abcde", 2, number("x"))', [""]),
    ('contains("hello", "ell")', [True]),
    ('contains("hello", "xyz")', [False]),
    ('starts-with("hello", "he")', [True]),
    ('ends-with("hello", "lo")', [True]),
    ('concat("a", "b", "c")', ["abc"]),
    ('concat("a", (), 1)', ["a1"]),
    ('string-join(("a", "b", "c"), "-")', ["a-b-c"]),
    ('string-join((), "-")', [""]),
    ('string-join((1, 2))', ["12"]),
]

NUMERIC_FNS = [
    ("abs(-3)", [3]),
    ("abs(2.5)", [2.5]),
    ("abs(())", []),
    ("round(2.5)", [3]),
    ("round(-2.5)", [-2]),
    ("round(2.4)", [2]),
    ("round(2.345, 2)", [2.35]),
    ("floor(2.9)", [2]),
    ("ceiling(2.1)", [3]),
    ("floor(())", []),
    ("round(1.5, 400)", [1.5]),
    ("round(12345, -2)", [12300]),
    # beyond the default decimal context's 28 digits
    ("round(10000000000000000000000000000000000000055, -1)",
     [10000000000000000000000000000000000000060]),
    ('round(number("INF"))', [float("inf")]),
    ('round(-number("INF"))', [float("-inf")]),
    ('floor(number("INF"))', [float("inf")]),
    ('ceiling(-number("INF"))', [float("-inf")]),
]


#: round, floor and ceiling keep the argument's type: a double stays a
#: double (with the sign of its zero), an integer an integer.
ROUNDING_TYPES = [
    ("round(2.5)", 3.0),
    ("round(-2.5)", -2.0),
    ("round(-0.4)", -0.0),
    ("round(1e300)", 1e300),
    ("round(2.345, 2)", 2.35),
    ("round(123.456, -1)", 120.0),
    ("floor(2.9)", 2.0),
    ("floor(-0.5)", -1.0),
    ("ceiling(2.1)", 3.0),
    ("ceiling(-0.5)", -0.0),
    ("round(5, 2)", 5),
    ("round(12345, -2)", 12300),
    ("floor(3)", 3),
    ("ceiling(-3)", -3),
]


def battery(name, cases):
    @pytest.mark.parametrize("query,expected", cases, ids=[c[0] for c in cases])
    def test(local_engine, query, expected):
        assert local_engine.run(query) == expected

    test.__name__ = f"test_{name}"
    return test


test_aggregates = battery("aggregates", AGGREGATES)
test_sequence_fns = battery("sequence_fns", SEQUENCE_FNS)
test_object_array_fns = battery("object_array_fns", OBJECT_ARRAY_FNS)
test_casts = battery("casts", CASTS)
test_string_fns = battery("string_fns", STRING_FNS)
test_numeric_fns = battery("numeric_fns", NUMERIC_FNS)


class TestFunctionErrors:
    def test_unknown_function_is_static_error(self, local_engine):
        with pytest.raises(StaticError, match="unknown function"):
            local_engine.run("no-such-fn(1)")

    def test_wrong_arity_is_static_error(self, local_engine):
        with pytest.raises(StaticError, match="argument"):
            local_engine.run("count(1, 2)")

    @pytest.mark.parametrize(
        "query",
        [
            'sum(("a", "b"))',
            "avg((1, {}))",
            'min((1, "a"))',
            "size(1)",
            "size(([1], [2]))",
            'integer("nope")',
            "distinct-values(({}, {}))",
            'lower-case(1)',
            # NaN and ±INF have no integer value
            'integer(number("INF"))',
            'integer(-number("INF"))',
            'number("INF") idiv 2',
            'number("x") idiv 2',
            '1 to number("INF")',
            'number("x") to 3',
            'round(1.5, number("x"))',
            '[1, 2][[number("x")]]',
            '[1, 2][[number("INF")]]',
        ],
    )
    def test_dynamic_type_errors(self, local_engine, query):
        with pytest.raises((TypeError_, DynamicError)):
            local_engine.run(query)

    @pytest.mark.parametrize(
        "query",
        [
            'concat((1, 2), "a")',
            "abs((1, 2))",
            "floor((-1.5, 2))",
            "ceiling((1, 2))",
            "round((1, 2))",
        ],
    )
    def test_non_singleton_argument_is_type_error(self, local_engine, query):
        with pytest.raises(TypeError_):
            local_engine.run(query)

    @pytest.mark.parametrize("fn", ["round", "floor", "ceiling"])
    def test_rounding_nan_is_nan(self, local_engine, fn):
        import math

        (got,) = local_engine.run(f'{fn}(number("x"))')
        assert math.isnan(got)

    @pytest.mark.parametrize("query,expected", ROUNDING_TYPES,
                             ids=[c[0] for c in ROUNDING_TYPES])
    def test_rounding_keeps_type(self, local_engine, query, expected):
        import math

        (got,) = local_engine.run(query)
        assert got == expected and type(got) is type(expected)
        if type(got) is float:
            assert math.copysign(1, got) == math.copysign(1, expected)

    def test_number_of_bad_string_is_nan(self, local_engine):
        import math

        assert math.isnan(local_engine.run('number("nope")')[0])


#: Every builtin that streams its first argument.
STREAMED = sorted(name for name, (_, _, _, stream) in _REGISTRY.items() if stream)
#: One item of each kind.
MIXED = '(1, 2.5, "a", {"k": 1}, [3], null)'


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_argument_is_listed_argument(local_engine, name):
    """A source's stream (a FLWOR, read as a generator) gives what its
    list gives: the same items or the same error class."""
    rest = ", 2" * (_REGISTRY[name][0] - 1)

    def outcome(seq):
        try:
            return local_engine.run(f"{name}({seq}{rest})")
        except RumbleError as exc:
            return type(exc)

    assert outcome(f"for $i in {MIXED} return $i") == outcome(MIXED)


@pytest.mark.parametrize("query", ["sum((1, 2), 1 div 0)",
                                   "sum(parallelize((1, 2)), 1 div 0)"])
def test_other_arguments_evaluate_before_the_streamed_one(local_engine, spark, query):
    """A builtin evaluates its other arguments first, even a zero value
    that a non-empty sequence does not need."""
    for engine in (local_engine, Rumble(spark)):
        with pytest.raises(DynamicError):
            engine.run(query)
