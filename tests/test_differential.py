"""Differential testing: the same FLWOR query run on the local path and
on the Spark DataFrame path must produce identical results (the paper's
"seamless switching" guarantee, §5.8). The local engine is the oracle
for heterogeneous semantics that SQL engines cannot express."""
import json

import pytest

from repro.core import Rumble, RumbleConfig
from repro.jsoniq.errors import DynamicError, NonAtomicKeyError, ParseError, TypeError_

from .conftest import spark_engine

# Each case is a query template with {src} as the for-source. The local
# run uses the inline sequence; the Spark run wraps it in parallelize().
# ``v`` is scalar/null/missing (a valid grouping/ordering key);
# ``w`` is an array field (navigation and quantifier tests).
SRC = (
    '({"g": "a", "t": "a", "v": 1, "w": [7]}, {"g": "a", "t": "b", "v": 2}, '
    '{"g": "b", "t": "b", "v": 3}, {"g": "c", "t": "c", "v": null}, '
    '{"g": "c", "t": "c"}, {"g": "a", "t": "a", "v": 4, "w": [8, 9]})'
)

#: A 401-digit integer, beyond the double range.
BEYOND_DOUBLE = "1" + "0" * 400

QUERIES = [
    "for $o in {src} return $o.v",
    "for $o in {src} where $o.g eq $o.t return $o",
    "for $o in {src} where exists($o.v) return $o.v",
    "for $o in {src} let $s := ($o.v, 0) return count($s)",
    'for $o in {src} group by $k := $o.g return {{"k": $k, "n": count($o)}}',
    "for $o in {src} group by $k := $o.g return sum($o.v[$$ ge 0])",
    'for $o in {src} group by $k := $o.v return count($o)',  # mixed-type keys
    "for $o in {src} order by $o.g, $o.t descending return $o.g || $o.t",
    "for $o in {src} order by $o.v empty greatest, $o.g return count($o.v)",
    "for $o in {src} count $c return $c * 10",
    "for $o in {src} where $o.g ne $o.t count $c return $c",
    'for $o in {src} let $k := $o.g group by $k order by $k return {{"k": $k}}',
    "for $o in {src} return [ $o.v ]",
    "for $o in {src} return (if (exists($o.v)) then 1 else 0)",
    'for $o in {src} where some $x in $o.w[] satisfies $x gt 8 return $o.w',
    "count(for $o in {src} where $o.g eq $o.t return $o)",
    "count(for $o in {src} group by $k := $o.v return $k)",  # an empty key
    "sum(for $o in {src} return 1)",
    'for $o in {src} group by $k := $o.g let $n := count($o) '
    "order by $n descending, $k return ($k, $n)",
    "for $o in {src} for $m in $o.w[] return $m",
    "for $o in {src} for $m allowing empty in $o.w[] return count($m)",
    "let $m := 2 return for $o in {src} where $o.v ge $m return $o.g",
    "for $o in {src} let $o := $o.v return $o",
    'for $o in {src} group by $g := $o.g, $t := $o.t '
    'return {{"g": $g, "t": $t, "n": count($o)}}',
    "let $m := 2 return for $o in {src} "
    "order by ($o.v ge $m) descending, $o.g return $o.g",
    # count($v) after a second group-by counts the merged groups.
    "for $o in {src} group by $g := $o.g group by $n := 1 return count($o)",
    # An earlier group key may be empty: count() of it is 0, not 1.
    "for $o in {src} group by $v := $o.v group by $n := 1 return count($v)",
    # A row-local tail (for/let/where after the last group by, order by
    # or count) runs in the return clause's pass over the prefix frame.
    "for $o in {src} group by $k := $o.g let $n := count($o) "
    "where $n gt 1 for $x in $o.v return ($k, $x)",
    "for $o in {src} count $c where $c mod 2 eq 0 let $d := $c * 10 return ($d, $o.g)",
    # Row-local clauses before a group by still run on the DataFrame.
    "for $o in {src} for $m in $o.w[] let $t := $o.t where $m gt 7 "
    "group by $t return ($t, count($m))",
    # A tail after a non-initial `for ... allowing empty`.
    "for $o in {src} for $m allowing empty in $o.w[] let $e := empty($m) "
    "where $e or $m gt 7 return ($o.g, $e)",
    # A non-initial positional `for`, before a group by and in the tail.
    "for $o in {src} for $m at $p in $o.w[] group by $g := $o.g "
    "return ($g, sum($p), count($m))",
    "for $o in {src} order by $o.v for $m at $p in $o.w[] return ($o.v, $p, $m)",
    # Merged group-by sequences: a let that is empty for most rows, and
    # a string that looks like the seam between two JSON arrays.
    "for $o in {src} let $x := $o.w[][$$ gt 7] group by $g := $o.g "
    "return ($g, count($x), sum($x))",
    'for $o in {src} let $s := ($o.g, "],[") group by $t := $o.t '
    'return ($t, count($s), count($s[$$ eq "],["]))',
    # Row-local clauses fused with the stream clause after them.
    "for $o in {src} let $k := ($o.v, 0)[1] order by $k descending return ($k, $o.g)",
    "for $o in {src} let $o := $o.g group by $k := $o return ($k, count($o))",
    "for $o in {src} for $m allowing empty in $o.w[] "
    "order by $m empty greatest, $o.v return ($m, $o.v)",
    "for $o in {src} for $m in $o.w[] let $d := $m * 2 count $c return ($c, $d)",
    # streamed and §5.5 builtins over a row's locals
    "for $o in {src} where count(($o.v, $o.w[])) gt 1 "
    'return [head($o.w[]), sum($o.w[]), string-join(keys($o), "-")]',
    # predicates over the source: one reads an outer variable, one
    # selects by position after a filter, one holds a sequence source
    "let $m := 2 return count({src}[$$.v ge $m])",
    '{src}[$$.g eq "a"][2]',
    "{src}[count(1 to 2) eq 2]",
]

# One expression per kind of compiled iterator. Each runs in the return
# clause of a FLWOR without a stream clause (the tail pass over the
# item RDD) and in a `let` UDF before a `group by` (a prefix clause
# UDF over the tuple-stream DataFrame).
NODE_EXPRS = [
    # arithmetic, idiv/mod with negative operands, empty operands
    "($o.v[$$ ge 0] * 2 + 1, $o.v[$$ ge 0] idiv 2, (0 - $o.v[$$ ge 0]) idiv 3, "
    "-$o.v[$$ ge 0] mod 3, $o.v[$$ ge 0] div 4, $o.nope + 1, 2 * $o.nope)",
    'if ($o.v[$$ ge 2]) then "big" else if (exists($o.v)) then $o.v else ()',
    '($o.g eq "a" and $o.v gt 1, $o.g eq "c" or exists($o.w), '
    'not $o.t eq "b", not(exists($o.v)))',
    '$o.g || "-" || $o.v || $o.nope',
    "([ $o.w[] ], [ $o.g, $o.t ][[2]], $o.w[[2]], [ ], [ $o.nope ])",
    # predicates over $$ and by numeric position
    "(($o.g, $o.t, $o.v)[2], ($o.w[], 0)[$$ gt 7], ($o.w[], $o.v)[1 + 1])",
    "(some $m in $o.w[] satisfies $m gt 7, every $m in $o.w[] satisfies $m gt 7)",
    "for $m in ($o.w[], $o.v[$$ ge 0]) where $m gt 1 return $m * 10",
    # an empty value becomes null
    '{{"g": $o.g, "v": $o.v, "w": $o.w[[1]], $o.t: $o.nope}}',
]
QUERIES += [f"for $o in {{src}} return {e}" for e in NODE_EXPRS]
QUERIES += [f"for $o in {{src}} let $x := {e} group by $g := $o.g return $x"
            for e in NODE_EXPRS]

# Row-local clauses that bind a tuple's variables in place. Each runs in
# the return pass, and again in a segment pass before a `count`.
BINDINGS = [
    # an outer variable shadowed after a `for`
    ("let $z := 0 return for $o in {src} let $y := $z let $z := count($o.w[]) * 10",
     "return [$y, $z]"),
    # a redeclared `for` variable
    ("for $o in {src} let $o := count($o.w[]) + 10", "return $o"),
    # two `for`s with a `let` between them
    ("for $o in {src} let $k := $o.g for $m in $o.w[]", "return [$k, $m]"),
    # a `for` over a nested FLWOR that reads a variable a later `let` rebinds
    ("for $o in {src} let $y := $o.g for $w in (for $i in (1, 2) return $y || $i) "
     "let $y := $w", "return [$o.t, $w, $y]"),
    # a `where` that drops a row after a `let` was applied
    ("for $o in {src} let $n := count($o.w[]) where $n gt 0", "return [$o.g, $n]"),
    # a return that builds a nested FLWOR over the outer tuple
    ("for $o in {src} let $y := $o.t", "return [for $m in $o.w[] return [$y, $m]]"),
]
QUERIES += [f"{body} {ret}" for body, ret in BINDINGS]
QUERIES += [f"{body} count $c {ret}" for body, ret in BINDINGS]


# An `order by` over group-by outputs (keys and counts) sorts by the
# encodings the group by computed in the JVM. {src} is a source whose
# `v` includes null and the empty sequence; {big} holds integers that
# share a double.
BIG = "(9007199254740993, 9007199254740992, 1, 9007199254740994, 9007199254740993)"
GROUP_ORDER_QUERIES = [
    "for $o in {src} group by $k := $o.v order by $k empty greatest "
    "return [$k, count($o), empty($k)]",
    "for $o in {src} group by $k := $o.v order by $k empty least "
    "return [$k, count($o), empty($k)]",
    "for $o in {src} group by $k := $o.v order by $k descending empty greatest "
    "return [$k, empty($k)]",
    "for $o in {src} group by $k := $o.g order by count($o) descending, $k return [$k, count($o)]",
    # ties on the count are broken by the key
    "for $o in {src} group by $k := $o.t order by count($o) descending, $k descending "
    "return [$k, count($o)]",
    "for $o in {src} group by $k := $o.v order by count($o), $k empty greatest "
    "return [$k, count($o)]",
    "for $x in {big} group by $k := $x order by $k return [$k, count($x)]",
    "for $x in {big} group by $k := $x order by $k descending return [$k, count($x)]",
    "for $x in {big} group by $k := $x order by count($x) descending, $k return $k",
    # a group by whose key is the previous group by's key
    "for $o in {src} group by $k := $o.g group by $k order by $k return [$k, count($o)]",
]


@pytest.mark.parametrize("template", GROUP_ORDER_QUERIES,
                         ids=[q[:70] for q in GROUP_ORDER_QUERIES])
def test_order_by_group_outputs(template, spark, local_eng):
    expected = local_eng.run(template.format(src=SRC, big=BIG))
    got = spark_engine(spark).run(template.format(src=f"parallelize({SRC})", big=f"parallelize({BIG})"))
    assert got == expected


# A group by restores each key from its variable's own cell, as the local
# path restores it from the group's first tuple. One slice keeps which
# of two equal keys comes first the same on both paths.
KEY_RESTORE_QUERIES = [
    # 1 and 1.0 are one key; both paths restore the first one seen.
    "for $x in parallelize((1, 1.0, 2.0, 2, 1), 1) group by $k := $x "
    "order by $k return [$k, count($x)]",
    # a := key that rebinds the variable it reads
    "for $o in parallelize({src}, 1) group by $o := $o.g order by $o return $o",
    # a key bound outside the FLWOR has no column and keeps its value
    'let $m := "m" return for $o in parallelize({src}, 1) group by $m '
    'order by $m return {{"m": $m, "n": count($o)}}',
    "for $o in parallelize({src}, 1) group by $g := $o.g, $t := $o.t group by $g "
    'order by $g return {{"g": $g, "t": [$t]}}',
]


@pytest.mark.parametrize("template", KEY_RESTORE_QUERIES,
                         ids=["one-and-one-point-zero", "rebound-key", "outer-key",
                              "group-group-order"])
def test_group_key_restore(template, spark, local_eng):
    q = template.format(src=SRC)
    # The JSON texts tell 1 from 1.0, which == does not.
    assert json.dumps(spark_engine(spark).run(q)) == json.dumps(local_eng.run(q))


def test_order_by_mixed_family_group_keys(spark, local_eng):
    template = "for $o in {src} group by $k := ($o.v, $o.g)[1] order by $k return $k"
    with pytest.raises(TypeError_):
        local_eng.run(template.format(src=SRC))
    with pytest.raises(TypeError_):
        spark_engine(spark).run(template.format(src=f"parallelize({SRC})"))


def canonical(items):
    return sorted(json.dumps(i, sort_keys=True) for i in items)


@pytest.fixture(scope="module")
def local_eng():
    return Rumble(None, RumbleConfig(force_local=True))


@pytest.mark.parametrize("template", QUERIES, ids=[q[:60] for q in QUERIES])
def test_local_vs_dataframe(template, spark, local_eng):
    q_local = template.format(src=SRC)
    q_spark = template.format(src=f"parallelize({SRC})")
    expected = local_eng.run(q_local)
    got = spark_engine(spark).run(q_spark)
    if "order by" in template or "count $c" in template:
        # order-sensitive queries must match exactly
        assert got == expected
    else:
        assert canonical(got) == canonical(expected)


# One json-file() line per edge of the JSON decoder: what stdlib `json`
# reads and orjson does not (NaN, ±INF, 1e400, lone surrogates), integers
# orjson would turn into floats, digit runs in strings, duplicate keys.
EDGE_LINES = [
    '{"k": "nan", "v": NaN}',
    '{"k": "inf", "v": [Infinity, -Infinity]}',
    '{"k": "1e400", "v": 1e400}',
    '{"k": "1e-400", "v": 1e-400}',
    '{"k": "subnormal", "v": 5e-324}',
    '{"k": "-0.0", "v": -0.0}',
    '{"k": "surrogate", "v": "\\udc00"}',
    '{"k": "pair", "v": "\\ud83d\\ude00"}',
    '{"k": "dup", "v": 1, "w": 2, "v": 3}',
    '{"k": "digits in a string", "v": "id-12345678901234567890"}',
    '{"k": "2^53+1", "v": 9007199254740993}',
    '{"k": "2^63-1", "v": 9223372036854775807}',
    '{"k": "-2^63-1", "v": -9223372036854775809}',
    '{"k": "2^64", "v": 18446744073709551616}',
    '{"k": "10^30", "v": [1000000000000000000000000000000, 1.5]}',
]
EDGE_QUERIES = [
    'json-file("{path}")',
    # no stream clause: the items' RDD feeds the return pass
    'for $o in json-file("{path}") return {{"k": $o.k, "v": $o.v, "o": $o}}',
    # before a group by: the cells decode in the segment and return passes
    'for $o in json-file("{path}") where exists($o.v) group by $k := $o.k '
    'return {{"k": $k, "v": $o.v, "o": $o}}',
]


@pytest.fixture(scope="module")
def edge_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "edges.json"
    path.write_text("\n".join(EDGE_LINES) + "\n")
    return str(path)


@pytest.mark.parametrize("template", EDGE_QUERIES, ids=["source", "return-pass", "group-by"])
def test_json_file_decoder_edges(template, edge_path, spark, local_eng):
    """Each edge line decodes as stdlib `json` decodes it, locally and on
    Spark. Comparing the stdlib encodings tells int from float, NaN from
    NaN, -0.0 from 0.0 and one key order from another."""
    q = template.format(path=edge_path)
    expected = local_eng.run(q)
    got = spark_engine(spark).run(q)
    assert sorted(map(json.dumps, got)) == sorted(map(json.dumps, expected))
    objs = [item.get("o", item) for item in expected]
    assert sorted(map(json.dumps, objs)) == sorted(json.dumps(json.loads(line)) for line in EDGE_LINES)


@pytest.mark.parametrize(
    "template, error",
    [
        ("for $o in {src} order by $o.w return $o", NonAtomicKeyError),  # array sort key
        # multi-item key
        ("for $o in {src} group by $k := ($o.g, $o.t) return $k", NonAtomicKeyError),
        # raised in a row-local tail, with and without a prefix frame
        ("for $o in {src} group by $k := $o.g where $o + 1 gt 0 return $k", TypeError_),
        ("for $o in {src} order by $o.g let $x := $o.v + $o return $x", TypeError_),
        ("for $o in {src} where $o.w + 1 gt 0 return $o", TypeError_),
        # raised by compiled nodes in a tail without a prefix frame
        ('for $o in {src} return {{"v": ($o.g, $o.t)}}', TypeError_),
        ("for $o in {src} let $x := $o.g * 2 return $x", TypeError_),
        ("for $o in {src} where $o.g lt 1 return $o", TypeError_),
        # raised by a row-local clause in the pass before a stream clause
        ("for $o in {src} where $o.g lt 1 group by $k := $o.t return $k", TypeError_),
        ("for $o in {src} let $x := $o.g * 2 order by $o.v return $x", TypeError_),
        ("for $o in {src} let $x := ($o.g, $o.t) group by $k := $x return $k",
         NonAtomicKeyError),
        # the partition count of a source, checked on the driver
        ('json-file("{path}", -1)', DynamicError),
        ('json-file("{path}", number("x"))', DynamicError),
        ('json-file("{path}", "2")', TypeError_),
        ("parallelize((1, 2, 3), 0)", DynamicError),
        ("parallelize((1, 2, 3), -2)", DynamicError),
        ("parallelize((1, 2, 3), (1, 2))", TypeError_),
        # an even run of minus signs still checks its operand
        ("for $o in {src} return --$o.g", TypeError_),
        # a quantifier's predicate, run in the FLWOR it translates to
        ("some $o in {src} satisfies $o.g lt 1", TypeError_),
        ("every $o in {src} satisfies $o.w[[1]] gt $o.g", TypeError_),
        # a predicate's filter over the source, and an action on it
        ("{src}[$$.g lt 1]", TypeError_),
        ("sum({src}.g)", TypeError_),
        # a key beyond the double range has no §4.7 encoding
        (f"for $o in {{src}} group by $k := {BEYOND_DOUBLE} + count($o.w) return $k",
         DynamicError),
        (f"for $o in {{src}} order by {BEYOND_DOUBLE} + count($o.w) return $o.g",
         DynamicError),
    ],
    ids=["order-nonatomic", "group-multi-item", "tail-after-group",
         "tail-after-order", "tail-only", "tail-object-value-of-two",
         "tail-arithmetic-on-string", "tail-lt-across-families",
         "segment-where-before-group", "segment-let-before-order",
         "segment-let-two-items-as-key", "json-file-negative-partitions",
         "json-file-nan-partitions", "json-file-string-partitions",
         "parallelize-zero-slices", "parallelize-negative-slices",
         "parallelize-two-slice-counts", "double-minus-on-string",
         "some-lt-across-families", "every-gt-across-families",
         "predicate-lt-across-families", "sum-of-strings",
         "group-key-beyond-double", "order-key-beyond-double"],
)
def test_error_parity(template, error, spark, local_eng, edge_path):
    """Both paths raise the same error class for illegal keys, operands
    and partition counts. A Spark-side error reaches the caller wrapped,
    with the class named in the worker's traceback; one raised on the
    driver reaches it as is."""
    q_local = template.format(src=SRC, path=edge_path)
    q_spark = template.format(src=f"parallelize({SRC})", path=edge_path)
    with pytest.raises(Exception) as e_local:
        local_eng.run(q_local)
    assert type(e_local.value) is error
    with pytest.raises(Exception) as e_spark:
        spark_engine(spark).run(q_spark)
    assert type(e_spark.value) is error or error.__name__ in str(e_spark.value)


def test_deep_nesting_parity(spark, local_eng):
    """75 nested parentheses run; 200 raise a ParseError, not Python's
    RecursionError, on both engines."""
    for engine in (local_eng, spark_engine(spark)):
        assert engine.run("(" * 75 + "1" + ")" * 75) == [1]
        with pytest.raises(ParseError):
            engine.run("(" * 200 + "1" + ")" * 200)


@pytest.mark.parametrize("engine", ["local", "spark"])
def test_long_operator_chain_parity(engine, spark, local_eng):
    """A 450-term chain runs; a 500-term one raises a ParseError, not
    Python's RecursionError, on both engines."""
    eng = local_eng if engine == "local" else spark_engine(spark)
    assert eng.run(" + ".join(["1"] * 450)) == [450]
    with pytest.raises(ParseError, match="nested too deeply"):
        eng.run(" + ".join(["1"] * 500))
    with pytest.raises(ParseError, match="nested too deeply"):
        eng.run("for $x in parallelize((1, 2)) return " + " + ".join(["$x"] * 500))


@pytest.mark.parametrize("template", [
    # A where after the count reads $c.
    'count(for $i in json-file("{path}", 4) let $t := $i.subreddit count $c '
    "where $c mod 100 eq 0 return $t)",
    'for $i in json-file("{path}", 4) let $t := $i.subreddit count $c '
    "where $c mod 100 eq 0 return [$c, $t]",
    'for $i in json-file("{path}", 4) where $i.year ge 2014 count $c '
    "order by $i.author, $c descending count $d where $d le 5 return [$c, $d]",
    'for $i at $p in json-file("{path}", 4) where $p mod 250 eq 1 return [$p, $i.author]',
    'for $i at $p in json-file("{path}", 4) group by $s := $i.subreddit order by $s '
    "return [$s, count($p), sum($p)]",
    'count(json-file("{path}", 4)[$$.score])',
], ids=["count-where", "count-return", "count-order-count", "positional-for",
        "positional-for-group-by", "positional-predicate"])
def test_positions_parity(template, reddit_path, spark, local_eng):
    """Tuple and item positions over a multi-partition input are the
    same on both engines."""
    q = template.format(path=reddit_path)
    assert spark_engine(spark).run(q) == local_eng.run(q)


@pytest.mark.parametrize("query,expected", [
    ("for $x in {src} return " + "-" * 600 + "$x", [1, 2]),
    ("for $x in {src} return " + "-" * 601 + "$x", [-1, -2]),
    ("for $x in {src} where " + "not " * 400 + "$x eq 2 return $x", [2]),
], ids=["600-minus", "601-minus", "400-not"])
def test_prefix_run_parity(query, expected, spark, local_eng):
    """A run of prefix operators parses into at most two nodes, so it
    compiles and runs at any length on both engines."""
    assert local_eng.run(query.format(src="(1, 2)")) == expected
    assert spark_engine(spark).run(query.format(src="parallelize((1, 2))")) == expected


@pytest.mark.parametrize("template", [
    'json-file("{missing}")',
    'count(json-file("{present},{missing}"))',
    'for $o in json-file("{missing}", 2) group by $k := $o.k return $k',
    'json-file("{present},")',
    # an empty index selects nothing, but its target still runs
    'json-file("{missing}")[[()]]',
    'count(json-file("{missing}")[[()]])',
], ids=["source", "second-of-two", "before-group-by", "empty-part", "empty-index",
        "count-of-empty-index"])
def test_missing_input_parity(template, tmp_path, edge_path, spark, local_eng):
    """A json-file() path, or a comma-separated part of one, that
    matches no file raises one DynamicError naming it on both engines."""
    missing = str(tmp_path / "no-such-file*.json")
    q = template.format(present=edge_path, missing=missing)
    named = repr(missing) if "{missing}" in template else "''"
    for engine in (local_eng, spark_engine(spark)):
        with pytest.raises(DynamicError) as e:
            engine.run(q)
        assert type(e.value) is DynamicError and named in str(e.value)


def test_lookup_key_is_checked_before_its_target(tmp_path, spark, local_eng):
    """A key that is not a string raises its TypeError_ before the
    missing input is read, on both engines."""
    q = f'json-file("{tmp_path / "no-such-file*.json"}").(1)'
    for engine in (local_eng, spark_engine(spark)):
        with pytest.raises(TypeError_) as e:
            engine.run(q)
        assert type(e.value) is TypeError_


@pytest.mark.parametrize("template, src, expected", [
    ("for $x in {src} group by $k := $x return count($x)",
     '(number("x"), number("x"), 1)', [1, 2]),
    ("for $x in {src} order by $x return $x",
     '(number("x"), 2, number("x"), 1, number("-INF"))',
     [float("nan"), float("nan"), float("-inf"), 1, 2]),
    ("for $x in {src} order by $x descending return $x",
     '(number("x"), 2, number("x"), 1, number("-INF"))',
     [2, 1, float("-inf"), float("nan"), float("nan")]),
    ("distinct-values({src})", "(1, true, 0, false)", [0, 1, False, True]),
    ("distinct-values({src})", '(number("x"), 1, number("x"))', [float("nan"), 1]),
], ids=["group-by-nan", "order-by-nan", "order-by-nan-descending", "distinct-numbers-booleans",
        "distinct-nan"])
def test_atomic_key_identity_parity(template, src, expected, spark, local_eng):
    """Group by, order by and distinct-values key an atomic by its §4.7
    encoding on both engines: every NaN is one key, below -INF, and a
    number is never a boolean."""
    local = local_eng.run(template.format(src=src))
    got = spark_engine(spark).run(template.format(src=f"parallelize({src}, 2)"))
    if "order by" in template:
        assert json.dumps(got) == json.dumps(local) == json.dumps(expected)
    else:
        assert canonical(got) == canonical(local) == canonical(expected)


@pytest.mark.parametrize("pattern, expected", [
    ("{dir}", [1, 2, 3]),
    ("{dir}/*.json", [1, 2]),
    ("{dir}/{{a,b}}.json,{dir}/c.txt", [1, 2, 3]),
], ids=["directory", "glob", "braces"])
def test_json_file_path_forms(pattern, expected, tmp_path, spark, local_eng):
    """json-file() reads a directory, a glob and brace alternatives as
    Hadoop's text input reads them, on both engines: a name starting
    with `_` or `.` is hidden."""
    for name, v in [("a.json", 1), ("b.json", 2), ("c.txt", 3), ("_SUCCESS", 4), (".d.json", 5)]:
        (tmp_path / name).write_text(json.dumps({"v": v}) + "\n")
    q = f'for $o in json-file("{pattern.format(dir=tmp_path)}") order by $o.v return $o.v'
    assert local_eng.run(q) == expected
    assert spark_engine(spark).run(q) == expected
