"""Generated evaluators (``repro.core.codegen``): each node writes a
source fragment and a row-local pipeline runs as one Python function.
Every query runs on the local engine and on Spark, which must agree;
most cases also pin the expected items."""
import pickle

import pytest

from repro.core import Rumble, RumbleConfig, codegen
from repro.core.dynamic_context import DynamicContext
from repro.core.iterators.base import RuntimeIterator
from repro.jsoniq.errors import TypeError_

from .conftest import spark_engine

SRC = '({"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3})'
TRICKY = {'q"uote': 'a"b', "t'''": "'''", "back\\slash": "c:\\d", "new\nline": "x\ny",
          "{}": "{}"}


def _nested_predicates(depth: int) -> str:
    """``$o.a`` under ``depth`` nested predicates, each opening a loop."""
    expr = "$$ eq $o.a"
    for _ in range(depth):
        expr = f"($o.a)[boolean({expr})]"
    return expr


CASES = [
    # String literals and object keys that would break spliced source.
    ('for $o in SRC return {"q\\"uote": "a\\"b", "t\'\'\'": "\'\'\'", '
     '"back\\\\slash": "c:\\\\d", "new\\nline": "x\\ny", "{}": "{}"}', [TRICKY] * 3),
    ('for $o in SRC let $x := {"k\\"\'\'\'\\\\{}": $o.a} return $x."k\\"\'\'\'\\\\{}"',
     [1, 2, 3]),
    ('for $o in SRC where $o.b eq "x\\"{}" or $o.a eq 3 return $o.a', [3]),
    # Variable names that are no Python names, or are Python keywords.
    ("for $a-b in SRC let $a_b := $a-b.a let $import := $a_b + 1 "
     "return [$a-b.a, $a_b, $import]", [[1, 1, 2], [2, 2, 3], [3, 3, 4]]),
    ("for $o in SRC let $x := 1 let $x := $x + 1 return $x + $o.a", [3, 4, 5]),
    # The failing side is never evaluated.
    ("for $o in SRC where false and (1 idiv 0 eq 1) return $o", []),
    ("for $o in SRC return (true or (1 idiv 0 eq 1))", [True] * 3),
    ("for $o in SRC return if ($o.a ge 1) then $o.a else 1 idiv 0", [1, 2, 3]),
    ("for $o in SRC return some $x in ($o.a, 0) satisfies 1 idiv $x ge 0", [True] * 3),
    ("for $o in SRC return every $x in (0, $o.a) satisfies $x gt 0 and 1 idiv $x ge 0",
     [False] * 3),
    # Nodes that read a dynamic context.
    ("for $o in SRC return count(for $x in ($o.a, $o.a) where $x gt 1 return $x)",
     [0, 2, 2]),
    ("for $o in SRC return [(1, 2, 3)[$$ ge $o.a][count(($$, $o.a)) eq 2]]",
     [[1, 2, 3], [2, 3], [3]]),
    ("for $o in SRC return ((10, 20, 30)[$o.a], (10, 20)[$$ gt 10 * $o.a])",
     [10, 20, 20, 30]),
    ('for $o in SRC return {"n": count($o.b), "e": exists($o.b), "s": sum(($o.a, 1))}',
     [{"n": 1, "e": True, "s": 2}, {"n": 1, "e": True, "s": 3},
      {"n": 0, "e": False, "s": 4}]),
    # A positional for after the first clause, in the return pass and in
    # the segment pass before a group by.
    ('for $o in SRC for $y at $i in ($o.a, "z") return [$i, $y]',
     [[1, 1], [2, "z"], [1, 2], [2, "z"], [1, 3], [2, "z"]]),
    ("for $o in SRC for $y at $i in ($o.a, 0) group by $i order by $i "
     'return {"i": $i, "s": sum($y)}', [{"i": 1, "s": 6}, {"i": 2, "s": 0}]),
    ('for $o in SRC let $k := "k\\"{}" group by $g := $k return {"g": $g, "n": count($o)}',
     [{"g": 'k"{}', "n": 3}]),
    # More nested loops than Python compiles in one function.
    ("for $o in SRC " + " ".join(f"for $x{i} in ($o.a + {i})" for i in range(24))
     + " where $x23 gt 24 return $x23", [25, 26]),
    # ... and before a group by, in a chained segment pass whose
    # unchanged cells ($o) are written again from their sequences.
    ("for $o in SRC " + " ".join(f"for $x{i} in $o.a" for i in range(18))
     + " group by $k := $o.a order by $k return [$k, count($x17), $o.b]",
     [[1, 1, "x"], [2, 1, "y"], [3, 1]]),
    # Predicates nested deeper than Python compiles in one function, on
    # their own and inside a return at the chaining depth.
    ("for $o in SRC return " + _nested_predicates(25), [1, 2, 3]),
    ("for $o in SRC " + " ".join(f"for $x{i} in $o.a" for i in range(14))
     + " return " + _nested_predicates(12), [1, 2, 3]),
    # An initial positional for, numbered in the local loop and by the
    # count clause on Spark, with a count and a where after it.
    ("for $o at $p in SRC count $c where $p ge 2 count $d return [$o.a, $p, $c, $d]",
     [[2, 2, 2, 1], [3, 3, 3, 2]]),
    # A tail after a stream clause.
    ("for $o in SRC count $c let $d := $c * 10 where $d gt 10 "
     "for $m allowing empty in $o.b return [$d, $m]", [[20, "y"], [30]]),
]


@pytest.fixture(scope="module")
def local_eng():
    return Rumble(None, RumbleConfig(force_local=True))


@pytest.mark.parametrize("query, expected", CASES, ids=[q[:50] for q, _ in CASES])
def test_local_equals_spark(query, expected, spark, local_eng):
    local = local_eng.run(query.replace("SRC", SRC))
    on_spark = spark_engine(spark).run(query.replace("SRC", f"parallelize({SRC})"))
    assert local == on_spark == expected


BAD_ROWS = ('({"k": "r1", "v": 1}, {"k": "r2", "v": [2]}, {"k": "r3", "v": [3, 4]}, '
            '{"k": "r4", "v": 5}, {"k": "r5", "v": [6, 7]})')


@pytest.mark.parametrize("query", [
    "for $o in SRC return {$o.k: $o.v[]}",
    "for $o in SRC let $x := {$o.k: $o.v[]} group by $g := 1 return $g",
], ids=["return-pass", "segment-pass"])
def test_error_on_the_same_row(query, spark, local_eng):
    """A bad row in the middle raises the same class on both paths, with
    the message of that row, not of a later one."""
    with pytest.raises(TypeError_, match="'r3' is a sequence of 2 items"):
        local_eng.run(query.replace("SRC", BAD_ROWS))
    with pytest.raises(Exception) as on_spark:
        spark_engine(spark).run(query.replace("SRC", f"parallelize({BAD_ROWS}, 1)"))
    assert "TypeError_" in str(on_spark.value)
    assert "'r3' is a sequence of 2 items" in str(on_spark.value)


def test_query_text_enters_source_only_as_constants(monkeypatch, local_eng):
    sources = []
    factory = codegen._factory

    def capture(source, n_consts):
        sources.append(source)
        return factory(source, n_consts)

    monkeypatch.setattr(codegen, "_factory", capture)
    query = ('for $needle-var in (1, 2) let $other := "needle-text\\"" '
             'return {"needle-key": $other, "n": $needle-var}')
    assert local_eng.run(query) == [{"needle-key": 'needle-text"', "n": i} for i in (1, 2)]
    assert sources
    assert not any("needle" in s or "other" in s for s in sources)


def test_compiled_once_per_process(local_eng):
    query = "for $o in (1, 2) let $p := $o + 41 where $p gt 0 return $p"
    assert local_eng.run(query) == [42, 43]
    misses = codegen._factory.cache_info().misses
    assert local_eng.run(query) == [42, 43]  # a new tree: same source, no compile
    assert codegen._factory.cache_info().misses == misses


def test_tree_pickles_without_its_functions(local_eng):
    it = local_eng.compile('for $o in (1, 2) return {"v": $o}')
    ctx = DynamicContext(config=local_eng.config)
    assert it.materialize(ctx) == [{"v": 1}, {"v": 2}]
    copy = pickle.loads(pickle.dumps(it))
    assert copy._built is None
    assert copy.materialize(ctx) == [{"v": 1}, {"v": 2}]


def test_generated_function_pickles_as_its_source(local_eng):
    """A generated function pickles as its source and constants, without
    the tree it came from, and gives the same result after the trip."""
    it = local_eng.compile('[40, 41, 42][[2]] + 1 eq 42')
    fn = it.evaluator()
    ctx = DynamicContext(config=local_eng.config)
    data = pickle.dumps(fn)
    assert b"Iterator" not in data  # no node of the tree
    copy = pickle.loads(data)
    assert (copy.source, copy.consts) == (fn.source, fn.consts)
    assert copy(ctx) == fn(ctx) == [True]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _emits(node) -> bool:
    """Whether ``node`` or a base class below RuntimeIterator defines
    ``_emit``."""
    below = node.__mro__[:node.__mro__.index(RuntimeIterator)]
    return any("_emit" in vars(cls) for cls in below)


def test_every_node_emits_code():
    """One evaluator per node kind: no closure compiler is left, and
    every node but a sequence source writes its own source fragment, or
    inherits it from a base below RuntimeIterator (the navigation steps
    share one)."""
    nodes = list(_subclasses(RuntimeIterator))
    assert len(nodes) > 20
    for node in [RuntimeIterator, *nodes]:
        assert not hasattr(node, "_compile"), node.__name__
        if not node.is_source and node is not RuntimeIterator:
            assert _emits(node), node.__name__
    assert not _emits(type("NoEmit", (RuntimeIterator,), {}))


def test_long_operator_chain_runs(local_eng):
    """A 400-term ``1 + 1 + ...`` runs: each node knows whether a source
    lies below it without walking its subtree again."""
    assert local_eng.run(" + ".join(["1"] * 400)) == [400]
