"""Local (single-threaded) evaluation of JSONiq expressions — the
engine's pull-based path (§5.5), no Spark involved. One parametrized
battery per expression family."""
import pytest

from repro.core import Rumble, RumbleConfig
from repro.jsoniq.errors import DynamicError, TypeError_

ARITHMETIC = [
    ("1 + 2", [3]),
    ("5 - 2", [3]),
    ("3 * 4", [12]),
    ("7 div 2", [3.5]),
    ("6 div 3", [2.0]),
    ("7 idiv 2", [3]),
    ("-7 idiv 2", [-3]),
    ("7 mod 2", [1]),
    ("-7 mod 2", [-1]),
    ("7 mod -2", [1]),
    ("1.5 + 1", [2.5]),
    ("-3", [-3]),
    ("- -3", [3]),
    ("+3", [3]),
    ("() + 1", []),
    ("1 + ()", []),
    ("2 * 3 + 4", [10]),
    ("2 + 3 * 4", [14]),
    ("(2 + 3) * 4", [20]),
]

COMPARISONS = [
    ("1 eq 1", [True]),
    ("1 eq 2", [False]),
    ("1 ne 2", [True]),
    ("1 lt 2", [True]),
    ("2 le 2", [True]),
    ("3 gt 2", [True]),
    ("3 ge 4", [False]),
    ('"a" lt "b"', [True]),
    ("1 eq 1.0", [True]),
    ('1 eq "1"', [False]),  # incompatible types: eq is false
    ('1 ne "1"', [True]),
    ("null eq null", [True]),
    ("null lt 0", [True]),
    ("() eq 1", []),
    ("1 = 1", [True]),
    ("1 != 2", [True]),
    ("1 < 2", [True]),
    ("2 >= 2", [True]),
]

LOGIC = [
    ("true and true", [True]),
    ("true and false", [False]),
    ("false or true", [True]),
    ("false or false", [False]),
    ("not true", [False]),
    ("not(())", [True]),
    ("not 0", [True]),
    ('not ""', [True]),
    ('not "x"', [False]),
    ("1 and 1", [True]),
    ("() or true", [True]),
    ("true and 1 eq 1", [True]),
]

SEQUENCES = [
    ("()", []),
    ("(1, 2, 3)", [1, 2, 3]),
    ("(1, (2, 3), ())", [1, 2, 3]),  # sequences never nest
    ("1 to 3", [1, 2, 3]),
    ("3 to 1", []),
    ("() to 3", []),
    ("(1 to 3, 5)", [1, 2, 3, 5]),
]

STRINGS = [
    ('"a" || "b"', ["ab"]),
    ('"a" || ()', ["a"]),
    ("() || ()", [""]),
    ('1 || "x"', ["1x"]),
    ("true || null", ["truenull"]),
]

NAVIGATION = [
    ('{"a": 1}.a', [1]),
    ('{"a": 1}.b', []),
    ('{"a": null}.a', [None]),
    ('{"a": {"b": 2}}.a.b', [2]),
    ('(1, {"a": 1}, "x").a', [1]),  # non-objects skipped
    ("[1, 2, 3][]", [1, 2, 3]),
    ("([1, 2], [3])[]", [1, 2, 3]),
    ("(1, [2], 3)[]", [2]),  # non-arrays skipped
    ("[4, 5, 6][[2]]", [5]),
    ("[4, 5, 6][[9]]", []),
    ("[4, 5][[()]]", []),
    ('{"a": [1, 2]}.a[]', [1, 2]),
    ('{"a": [{"b": 5}]}.a[].b', [5]),
]

PREDICATES = [
    ("(1, 2, 3)[$$ gt 1]", [2, 3]),
    ("(1, 2, 3)[2]", [2]),
    ("(1, 2, 3)[9]", []),
    ('({"a": 1}, {"a": 2})[$$.a eq 2]', [{"a": 2}]),
    ("(1, 2, 3)[true]", [1, 2, 3]),
    ("(1, 2, 3)[false]", []),
    ("(1, 2, 3)[()]", []),
    # numeric predicate expression selects by position
    ("(10, 20, 30)[1 + 1]", [20]),
    # a position is compared exactly: no item sits at 1.5, NaN or INF
    ("(1, 2, 3)[2.0]", [2]),
    ("(1, 2, 3)[1.5]", []),
    ('(1, 2, 3)[number("x")]', []),
    ('(1, 2, 3)[number("INF")]', []),
]

CONSTRUCTORS = [
    ('{"a": 1}', [{"a": 1}]),
    ("{}", [{}]),
    ("[]", [[]]),
    ("[1, 2]", [[1, 2]]),
    ("[()]", [[]]),
    ("[(1, 2), 3]", [[1, 2, 3]]),
    ('{"a": ()}', [{"a": None}]),  # empty value becomes null
    ('{"k" || "1": 2}', [{"k1": 2}]),
    ('{"a": [1, [2]]}', [{"a": [1, [2]]}]),
    ("[1 to 3]", [[1, 2, 3]]),
]

CONTROL = [
    ('if (1 eq 1) then "y" else "n"', ["y"]),
    ('if (()) then "y" else "n"', ["n"]),
    ('if ("") then "y" else "n"', ["n"]),
    ("if (true) then (1, 2) else ()", [1, 2]),
    ("some $x in (1, 2, 3) satisfies $x gt 2", [True]),
    ("some $x in () satisfies true", [False]),
    ("every $x in (1, 2, 3) satisfies $x gt 0", [True]),
    ("every $x in () satisfies false", [True]),
    ("some $x in (1, 2), $y in (3, 4) satisfies $x + $y eq 6", [True]),
    ("every $x in (1, 2), $y in (3, 4) satisfies $x lt $y", [True]),
]


def battery(name, cases):
    @pytest.mark.parametrize("query,expected", cases, ids=[c[0] for c in cases])
    def test(local_engine, query, expected):
        assert local_engine.run(query) == expected

    test.__name__ = f"test_{name}"
    return test


test_arithmetic = battery("arithmetic", ARITHMETIC)
test_comparisons = battery("comparisons", COMPARISONS)
test_logic = battery("logic", LOGIC)
test_sequences = battery("sequences", SEQUENCES)
test_strings = battery("strings", STRINGS)
test_navigation = battery("navigation", NAVIGATION)
test_predicates = battery("predicates", PREDICATES)
test_constructors = battery("constructors", CONSTRUCTORS)
test_control = battery("control", CONTROL)


class TestDynamicErrors:
    @pytest.mark.parametrize(
        "query",
        [
            '1 + "a"',
            '"a" - 1',
            "1 div 0",
            "1 idiv 0",
            "1 mod 0",
            '1 lt "a"',
            "(1, 2) + 1",
            "-(1, 2)",
            '-"a"',
            '{"a": (1, 2)}',   # multi-item object value
            "{(1, 2): 1}",      # non-singleton key
            "(1, 2) || 3",
            '"a" to "b"',
            "if ((1, 2)) then 1 else 2",
        ],
    )
    def test_type_errors(self, local_engine, query):
        with pytest.raises((TypeError_, DynamicError)):
            local_engine.run(query)


class TestIteratorProtocol:
    """The §5.5 pull protocol is the Python iterator ``iter_items``
    returns: open is the call, hasNext/next are next() and
    StopIteration, close is close() and reset a fresh call."""

    def test_pull_protocol(self, local_engine):
        it = local_engine.compile("(1, 2, 3)")
        pull = it.iter_items(local_engine._ctx())
        out = []
        for item in pull:
            out.append(item)
        assert out == [1, 2, 3]

    def test_reset(self, local_engine):
        it = local_engine.compile("(1, 2)")
        ctx = local_engine._ctx()
        assert next(it.iter_items(ctx)) == 1
        assert next(it.iter_items(ctx)) == 1

    def test_next_past_end(self, local_engine):
        pull = local_engine.compile("()").iter_items(local_engine._ctx())
        with pytest.raises(StopIteration):
            next(pull)

    @pytest.mark.parametrize("query", [
        '{"a": 1 + 1, "b": (), "c": [1, 2], "d": 2 lt 3}',
        "1 lt 2",
        '(1 eq 1, "a" gt "b", () ge 1)',
    ])
    def test_pull_matches_materialize(self, local_engine, query):
        # Pulling a compiled node iterates its evaluator's list.
        it = local_engine.compile(query)
        ctx = local_engine._ctx()
        expected = it.materialize(ctx)
        first = list(it.iter_items(ctx))
        second = list(it.iter_items(ctx))
        assert first == second == expected

    def test_json_file_streams(self, local_engine, tmp_path):
        # A source pulls lazily: the first next() parses line 1 only,
        # and the malformed line 2 raises when the second reaches it.
        import json

        p = tmp_path / "bad.json"
        p.write_text('{"a": 1}\n{not json\n')
        pull = local_engine.compile(f'json-file("{p}")').iter_items(local_engine._ctx())
        assert next(pull) == {"a": 1}
        with pytest.raises(json.JSONDecodeError):
            next(pull)
        pull.close()

    def test_built_evaluator_is_not_pickled(self, local_engine):
        from pyspark import cloudpickle

        q = 'for $x in (1, 2) let $y := {"a": $x + 1} where $x gt 1 return $y.a'
        used = local_engine.compile(q)
        assert used.materialize(local_engine._ctx()) == [3]
        fresh = local_engine.compile(q)
        assert len(cloudpickle.dumps(used)) == len(cloudpickle.dumps(fresh))

    def test_explain_tree(self, local_engine):
        tree = local_engine.explain("for $x in (1,2) return $x + 1")
        assert "FLWORIterator" in tree and "ArithmeticIterator" in tree

    @pytest.mark.parametrize("optimize,order_key", [
        (False, "FunctionCallIterator count"),
        (True, "VarRefIterator $i"),  # count($i) pushed into the group-by
    ])
    def test_explain_shows_every_clause_expression(self, optimize, order_key):
        # The README query: the group-by and order-by key expressions
        # are FLWOR children like the for, where and return expressions.
        eng = Rumble(None, RumbleConfig(force_local=True, enable_optimizations=optimize))
        it = eng.compile(
            "for $i in (1, 2, 3) where $i ge 1 group by $k := $i mod 2 "
            'order by count($i) descending return {"k": $k, "n": count($i)}'
        )
        assert [c.tree().split("\n")[0] for c in it.children] == [
            "SequenceConcatIterator",
            "ComparisonIterator ge",
            "ArithmeticIterator mod",
            order_key,
            "ObjectConstructorIterator",
        ]
