"""FLWOR DataFrame execution tests (paper §4.3–§4.10): the tuple
stream flows through Spark SQL; results must match the local path."""
import contextlib
import io
import json
import re
import sys
import threading

import pytest

from repro.core import Rumble, RumbleConfig
from repro.core.flwor.flwor_iterator import FLWORIterator

from .conftest import spark_engine


def on_fresh_thread(call, seconds: float = 120):
    """``call()`` on a new thread, which has no active SparkSession,
    failing the test instead of hanging if it does not return within
    ``seconds``."""
    out = {}

    def run():
        out["result"] = call()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"call still running after {seconds} s"
    return out["result"]


def python_nodes(df) -> list[str]:
    """The plan nodes of ``df`` that run Python, in plan order. ``df``
    must not have run: AQE prints an executed plan twice."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        df.explain()
    plan = buf.getvalue()
    assert "isFinalPlan=true" not in plan
    return re.findall(r"\b(MapInArrow|ArrowEvalPython|BatchEvalPython)\b", plan)


def df_backed(engine: Rumble, query: str) -> bool:
    it = engine.compile(query)
    return isinstance(it, FLWORIterator) and it.supports_rdd(engine._ctx())


class TestDataFrameRouting:
    def test_for_over_rdd_goes_df(self, rumble):
        assert df_backed(rumble, "for $x in parallelize((1, 2)) return $x")

    def test_for_over_local_stays_local(self, rumble):
        assert not df_backed(rumble, "for $x in (1, 2) return $x")

    def test_initial_let_stays_local(self, rumble):
        # §4.5: a FLWOR starting with let executes locally.
        assert not df_backed(
            rumble, "let $s := parallelize((1, 2)) return count($s)"
        )

    def test_initial_positional_for_goes_df(self, rumble, local_engine):
        # An initial `for $x at $p` runs as `for $x` + `count $p` (§4.9).
        q = "for $x at $p in parallelize((5, 6, 7), 2) return [$x, $p]"
        assert df_backed(rumble, q)
        assert rumble.run(q) == local_engine.run(q) == [[5, 1], [6, 2], [7, 3]]
        # With `allowing empty` the positional for stays local.
        q = "for $x allowing empty at $p in parallelize((5, 6), 2) return [$x, $p]"
        assert not df_backed(rumble, q)
        assert rumble.run(q) == local_engine.run(q) == [[5, 1], [6, 2]]

    def test_non_initial_positional_for_goes_df(self, rumble):
        # A later positional `for` counts within one tuple's bindings,
        # so it is row-local and runs in the segment pass.
        q = ('for $o in parallelize(({"w": [7, 8]}, {"w": [9]})) '
             "for $m at $p in $o.w[] group by $p return ($p, sum($m))")
        assert df_backed(rumble, q)
        got = rumble.run(q)
        assert sorted([got[i:i + 2] for i in range(0, len(got), 2)]) == [[1, 16], [2, 8]]

    def test_force_local_disables_df(self, spark):
        eng = Rumble(spark, RumbleConfig(force_local=True))
        assert not df_backed(eng, "for $x in parallelize((1, 2)) return $x")

    def test_run_rdd_on_fresh_thread_uses_spark(self, rumble):
        # The active session is per thread; the engine activates its own.
        rdd = on_fresh_thread(
            lambda: rumble.run_rdd("for $x in parallelize((1, 2)) return $x")
        )
        assert rdd is not None and sorted(rdd.collect()) == [1, 2]


class TestClausesOnDataFrames:
    def test_for_explode(self, rumble):
        got = rumble.run("for $x in parallelize((1, 2, 3)) return $x * 2")
        assert sorted(got) == [2, 4, 6]

    def test_nested_for_cartesian(self, rumble):
        got = rumble.run(
            'for $x in parallelize((1, 2)) for $y in ("a", "b") return $x || $y'
        )
        assert sorted(got) == ["1a", "1b", "2a", "2b"]

    def test_for_allowing_empty_df(self, rumble):
        got = rumble.run(
            'for $o in parallelize(({"a": [1, 2]}, {"a": []}, {})) '
            "for $m allowing empty in $o.a[] "
            "return count($m)"
        )
        assert sorted(got) == [0, 0, 1, 1]

    def test_let_projection(self, rumble):
        got = rumble.run(
            "for $x in parallelize((1, 2)) let $s := ($x, $x * 10) return sum($s)"
        )
        assert sorted(got) == [11, 22]

    def test_let_redeclaration_df(self, rumble):
        got = rumble.run(
            "for $x in parallelize((1, 2)) let $y := $x let $y := $y + 1 return $y"
        )
        assert sorted(got) == [2, 3]

    def test_where_filter(self, rumble):
        got = rumble.run(
            "for $x in parallelize(1 to 10) where $x mod 3 eq 0 return $x"
        )
        assert sorted(got) == [3, 6, 9]

    def test_group_by_count_pushdown(self, rumble):
        got = rumble.run(
            'for $x in parallelize(("a", "b", "a", "a")) group by $k := $x '
            'return {"k": $k, "n": count($x)}'
        )
        assert sorted(got, key=lambda o: o["k"]) == [
            {"k": "a", "n": 3},
            {"k": "b", "n": 1},
        ]

    def test_group_by_materialize(self, rumble):
        got = rumble.run(
            "for $x in parallelize((1, 2, 3, 4)) group by $k := $x mod 2 "
            "return sum($x)"
        )
        assert sorted(got) == [4, 6]

    def test_group_by_heterogeneous_keys(self, rumble):
        got = rumble.run(
            'for $x in parallelize((1, "1", true, null, 1, "1")) '
            "group by $k := $x return count($x)"
        )
        assert sorted(got) == [1, 1, 2, 2]

    def test_group_by_missing_vs_null(self, rumble):
        got = rumble.run(
            'for $o in parallelize(({"c": null}, {}, {"c": null})) '
            "group by $k := $o.c return count($o)"
        )
        assert sorted(got) == [1, 2]

    def test_group_by_compound_key(self, rumble):
        got = rumble.run(
            'for $o in parallelize(({"a": 1, "b": "x"}, {"a": 1, "b": "y"}, '
            '{"a": 1, "b": "x"})) '
            "group by $ka := $o.a, $kb := $o.b "
            'return {"b": $kb, "n": count($o)}'
        )
        assert sorted(got, key=lambda o: o["b"]) == [
            {"b": "x", "n": 2},
            {"b": "y", "n": 1},
        ]

    def test_order_by_df(self, rumble):
        got = rumble.run(
            "for $x in parallelize((3, 1, 2)) order by $x return $x"
        )
        assert got == [1, 2, 3]

    def test_order_by_descending_df(self, rumble):
        got = rumble.run(
            "for $x in parallelize((3, 1, 2)) order by $x descending return $x"
        )
        assert got == [3, 2, 1]

    def test_order_by_multi_key_df(self, rumble):
        got = rumble.run(
            'for $o in parallelize(({"a": 1, "b": 2}, {"a": 1, "b": 1}, '
            '{"a": 0, "b": 9})) '
            "order by $o.a ascending, $o.b descending return $o.b"
        )
        assert got == [9, 2, 1]

    def test_order_by_empty_modifiers_df(self, rumble):
        got_least = rumble.run(
            'for $o in parallelize(({"v": 2}, {}, {"v": 1})) '
            "order by $o.v return count($o.v)"
        )
        got_greatest = rumble.run(
            'for $o in parallelize(({"v": 2}, {}, {"v": 1})) '
            "order by $o.v empty greatest return count($o.v)"
        )
        assert got_least == [0, 1, 1]
        assert got_greatest == [1, 1, 0]

    def test_order_by_incompatible_types_raises_df(self, rumble):
        from repro.jsoniq.errors import TypeError_

        with pytest.raises(TypeError_):
            rumble.run('for $x in parallelize((1, "a")) order by $x return $x')

    def test_order_by_after_group_by_incompatible_types_raises_df(self, rumble):
        from repro.jsoniq.errors import TypeError_

        with pytest.raises(TypeError_):
            rumble.run(
                'for $x in parallelize((1, "a", 1, true)) group by $k := $x '
                "order by $k return $k"
            )

    def test_order_by_empty_stream_df(self, rumble):
        # The type codes are observed on the materializing job; an empty
        # tuple stream must still report them instead of blocking.
        got = on_fresh_thread(lambda: rumble.run(
            "for $x in parallelize(1 to 10) where $x gt 100 order by $x return $x"
        ))
        assert got == []

    def test_consecutive_order_bys_match_local(self, rumble, local_engine):
        src = (
            '({"a": 2, "b": "y"}, {"a": 1, "b": "z"}, {"a": 3, "b": "x"}, '
            '{"a": 1, "b": "w"})'
        )
        q = "for $o in {} order by $o.a descending order by $o.b return $o.a"
        got = rumble.run(q.format(f"parallelize({src})"))
        assert got == local_engine.run(q.format(src)) == [1, 3, 2, 1]

    def test_count_clause_df(self, rumble):
        got = rumble.run(
            "for $x in parallelize((10, 20, 30), 2) order by $x count $c "
            'return {"c": $c, "x": $x}'
        )
        assert got == [
            {"c": 1, "x": 10},
            {"c": 2, "x": 20},
            {"c": 3, "x": 30},
        ]

    def test_return_constructs_objects(self, rumble):
        got = rumble.run(
            'for $x in parallelize((1, 2)) return {"v": $x, "arr": [1 to $x]}'
        )
        assert sorted(got, key=lambda o: o["v"]) == [
            {"v": 1, "arr": [1]},
            {"v": 2, "arr": [1, 2]},
        ]

    def test_return_sequence_flattens(self, rumble):
        got = rumble.run("for $x in parallelize((1, 2)) return ($x, $x * 10)")
        assert sorted(got) == [1, 2, 10, 20]

    def test_flwor_rdd_feeds_parent_expression(self, rumble):
        # The FLWOR's output RDD is consumed by count() as an action.
        q = "count(for $x in parallelize(1 to 50) where $x gt 10 return $x)"
        assert rumble.run(q) == [40]

    def test_nested_flwor_inside_df_udf(self, rumble):
        # The inner FLWOR runs locally inside executors (§5.6: jobs
        # do not nest).
        got = rumble.run(
            "for $x in parallelize((2, 3)) "
            "let $s := sum(for $y in (1 to $x) return $y) return $s"
        )
        assert sorted(got) == [3, 6]

    def test_outer_variable_visible_in_df_flwor(self, rumble):
        got = rumble.run(
            "let $k := 10 return "
            "for $x in parallelize((1, 2)) return $x * $k"
        )
        assert sorted(got) == [10, 20]

    def test_group_by_segment_is_one_arrow_pass(self, rumble):
        # The let and the key encoding run in one pass that decodes each
        # row once; no per-clause Python UDF is left in the plan.
        it = rumble.compile(
            "for $o in parallelize(({\"v\": 1}, {\"v\": 2}, {\"v\": 1})) "
            "let $v := $o.v group by $v return count($o)"
        )
        df = it._build_tframe(rumble._ctx()).df
        assert python_nodes(df) == ["MapInArrow"]
        assert sorted(r[0] for r in df.collect()) == ["[1]", "[2]"]

    def test_regroup_by_group_key_runs_no_second_pass(self, rumble):
        # The second group by's key is the first one's output, whose
        # encoding the JVM holds: only the first segment runs Python.
        it = rumble.compile(
            "for $o in parallelize(({\"g\": 1}, {\"g\": 2}, {\"g\": 1})) "
            "group by $k := $o.g group by $k return [$k, count($o)]"
        )
        df = it._build_tframe(rumble._ctx()).df
        assert python_nodes(df) == ["MapInArrow"]
        assert sorted(r[0] for r in df.collect()) == ["[1]", "[2]"]

    def test_readme_prefix_is_one_pass_per_segment(self, rumble, confusion_path,
                                                   monkeypatch):
        # `where` plus the group-by keys form one segment. The order-by
        # key is the group-by's count, whose encoding the JVM holds, so
        # the plan the order by checkpoints holds that one pass only.
        from repro.core.flwor import clauses
        from repro.core.query_scope import query_scope

        plans = []

        def recording(df, real=clauses.checkpoint):
            plans.append(python_nodes(df))
            return real(df)

        monkeypatch.setattr(clauses, "checkpoint", recording)
        it = rumble.compile(
            f'for $i in json-file("{confusion_path}") '
            "where $i.guess eq $i.target "
            "group by $t := $i.target "
            "order by count($i) descending "
            'return {"target": $t, "n": count($i)}'
        )
        with query_scope():
            it._build_tframe(rumble._ctx())
        assert plans == [["MapInArrow"]]

    def test_group_by_large_integer_keys_df(self, rumble):
        # 2^53 + 1 rounds to the same double as 2^53; 2^53.0 equals 2^53.
        got = rumble.run(
            "for $x in parallelize((9007199254740992, 9007199254740993, "
            "9007199254740992.0)) group by $k := $x return count($x)"
        )
        assert sorted(got) == [1, 2]

    def test_order_by_large_integer_keys_df(self, rumble):
        src = "parallelize((9007199254740993, 9007199254740992, 9007199254740994))"
        ordered = [9007199254740992, 9007199254740993, 9007199254740994]
        assert rumble.run(f"for $x in {src} order by $x return $x") == ordered
        assert rumble.run(f"for $x in {src} order by $x descending return $x") == ordered[::-1]

    def test_context_item_inside_nested_flwor_df(self, rumble):
        # A FLWOR does not change the focus, on executors too: $$ is the
        # predicate's item inside the nested FLWOR of a where.
        q = ("for $x in parallelize((1, 2, 3)) "
             "where ($x, 5)[for $z in (1) return $$ ge 5] return $x")
        assert sorted(rumble.run(q)) == [1, 2, 3]
        q = "for $x in parallelize((1, 2, 3)) return ($x, 5)[let $y := 1 return $$ ge 2]"
        assert sorted(rumble.run(q)) == [2, 3, 5, 5, 5]

    def test_group_key_reconstruction_types(self, rumble):
        # Keys come back with their original types (int vs string vs bool).
        got = rumble.run(
            'for $x in parallelize((1, "1", true)) group by $k := $x return $k'
        )
        key = lambda v: (type(v).__name__, str(v))  # noqa: E731
        assert sorted(got, key=key) == sorted([1, "1", True], key=key)


class TestReturnPassTail:
    """The for/let/where clauses after the last group by, order by or
    count run in the return clause's pass (§4.10); without such a
    stream clause no tuple-stream DataFrame is built."""

    def test_tail_after_order_by_keeps_order(self, rumble, local_engine):
        src = '({"v": 2}, {}, {"v": 5}, {"v": null}, {"v": 1}, {"v": 4})'
        q = "for $o in {} order by $o.v descending where exists($o.v) return $o.v"
        got = rumble.run(q.format(f"parallelize({src}, 3)"))
        assert got == local_engine.run(q.format(src)) == [5, 4, 2, 1, None]

    def test_no_stream_clause_builds_no_dataframe(self, rumble, tmp_path):
        p = tmp_path / "v.json"
        p.write_text("".join(f'{{"v": {i}}}\n' for i in range(40)))
        rdd = rumble.run_rdd(
            f'for $c in json-file("{p}") let $v := $c.v where $v ge 5 return $v'
        )
        lineage = rdd.toDebugString().decode()
        assert "javaToPython" not in lineage and "SQLExecutionRDD" not in lineage
        assert sorted(rdd.collect()) == list(range(5, 40))

    def test_json_file_partitions_are_kept(self, rumble, tmp_path):
        p = tmp_path / "v.json"
        p.write_text("".join(f'{{"v": {i}}}\n' for i in range(40)))
        rdd = rumble.run_rdd(f'for $c in json-file("{p}", 3) where $c.v mod 2 eq 0 return $c')
        assert rdd.getNumPartitions() == 3
        assert rdd.count() == 20

    def test_malformed_line_raises_without_stream_clause(self, rumble, local_engine, tmp_path):
        # "1, 2" is not one JSON value. Parsed per line, it fails on both
        # paths instead of binding $x to two items on Spark.
        from py4j.protocol import Py4JJavaError

        p = tmp_path / "bad.json"
        p.write_text('{"a": 1}\n1, 2\n')
        q = f'for $x in json-file("{p}") return $x'
        with pytest.raises(json.JSONDecodeError):
            local_engine.run(q)
        with pytest.raises(Py4JJavaError, match="JSONDecodeError"):
            rumble.run(q)

    @pytest.mark.parametrize("stream", ["group by $k := 1 return count($x)",
                                        "order by $x.a return $x"])
    def test_malformed_line_raises_before_stream_clause(self, rumble, local_engine,
                                                        tmp_path, stream):
        # The JVM start frame checks that each line holds one value.
        p = tmp_path / "bad.json"
        p.write_text('{"a": 1}\n1, 2\n{"a": 2}\n')
        q = f'for $x in json-file("{p}") {stream}'
        with pytest.raises(json.JSONDecodeError):
            local_engine.run(q)
        with pytest.raises(Exception, match="JSONDecodeError"):
            rumble.run(q)

    @pytest.mark.parametrize("stream", ["group by $k := $x.a return [$k, count($x)]",
                                        "order by $x.a descending return $x",
                                        "count $c return [$c, $x]"])
    def test_blank_lines_are_skipped_before_stream_clause(self, rumble, local_engine,
                                                          tmp_path, stream):
        from repro.core.iterators.input import WHITESPACE

        # The JVM trims the characters str.strip strips.
        assert WHITESPACE == "".join(c for c in map(chr, range(0x110000)) if c.isspace())
        p = tmp_path / "crlf.json"
        p.write_bytes(b'{"a": 1}\r\n  \r\n\t\r\n {"a": 2} \r\n\r\n\t{"a": 1}\t\r\n'
                      b'\xc2\xa0"x"\xe3\x80\x80\r\n')
        q = f'for $x in json-file("{p}", 4) {stream}'
        expected = local_engine.run(q)
        assert len(expected) == (3 if "group" in stream else 4)
        if "group" in stream:
            assert sorted(map(json.dumps, rumble.run(q))) == sorted(map(json.dumps, expected))
        else:
            assert rumble.run(q) == expected

    def test_json_file_start_frame_is_built_in_the_jvm(self, rumble, tmp_path):
        p = tmp_path / "v.json"
        p.write_text("".join(f'{{"v": {i}}}\n' for i in range(40)))
        q = f'for $c in json-file("{p}", 3) group by $k := $c.v mod 2 return count($c)'
        rumble._activate()
        start = rumble.compile(q).clauses[0].start_df(rumble._ctx()).df
        assert start._jdf.rdd().getNumPartitions() == 3
        assert "PythonRDD" not in start._jdf.rdd().toDebugString()
        assert python_nodes(start) == []
        assert rumble.run(q) == [20, 20]

    @pytest.mark.parametrize(
        "query, expected",
        [
            # count() of a FLWOR counts its return pass's RDD (§5.5)
            ("count(for $x in parallelize(1 to 10) order by $x return $x)", 10),
            ("count(for $x in parallelize(1 to 10) order by $x where $x gt 3 return $x)", 7),
            ("count(for $x in parallelize(1 to 10) where $x gt 3 return ($x, $x))", 14),
            ("count(for $x in parallelize(1 to 10) group by $k := $x mod 3 return $x)", 10),
            # an empty grouping key returns no item: three groups, two items
            ('count(for $o in parallelize(({"v": 1}, {"v": 2}, {"w": 3}, {"v": 1})) '
             "let $v := $o.v group by $v return $v)", 2),
            ('count(for $o in parallelize(({"v": 1}, {"v": 2}, {"w": 3}, {"v": 1})) '
             "group by $k := $o.v order by $k return $k)", 2),
        ],
    )
    def test_count_of_flwor(self, rumble, query, expected):
        assert rumble.run(query) == [expected]


def positional_queries(n: int) -> list[tuple[str, type | None]]:
    """Queries that number their tuples or items on Spark (a count
    clause, an initial positional `for`, a positional predicate), each
    with the error it raises: None when it returns, ``TypeError_`` for
    one raised on the driver after the numbering, ``Exception`` for one
    raised inside a Spark job, which reaches the caller wrapped."""
    from repro.jsoniq.errors import TypeError_

    failing = 'for $y in parallelize((1, {"a": 1}), 2) return $y + 1'
    return [
        (f"for $x in parallelize((3, 1, {n}), 2) count $c where $c ge 2 return [$x, $c]", None),
        ('for $x in parallelize((1, "a"), 2) count $c order by $x return $c', TypeError_),
        ('for $x in parallelize((1, {"a": 1}), 2) where $x + 1 gt 0 count $c return $c',
         Exception),
        (f"for $x at $p in parallelize((3, 1, {n}), 2) return [$x, $p]", None),
        ('for $x at $p in parallelize((1, "a"), 2) order by $x return $p', TypeError_),
        (f"for $x at $p in ({failing}) return $p", Exception),
        (f"parallelize((3, 1, {n}, 2), 2)[$$ - 1]", None),
        ('parallelize((1, 2), 2)[$$ + "a"]', Exception),
        (f"({failing})[$$]", Exception),
    ]


class TestOrderByMaterialization:
    """The order-by materializes its keyed frame once per query (§4.8)
    and the query releases it. The checkpoint keeps the partition count
    adaptive execution picks; one partition is sorted in place, more
    are range-sorted. A count clause (§4.9) and a positional predicate
    materialize what they number, and the query releases that too."""

    def test_queries_release_their_materializations(self, spark, rumble, local_engine):
        from repro.jsoniq.errors import TypeError_

        persisted = spark.sparkContext._jsc.getPersistentRDDs
        before = len(persisted())
        for n in range(5):
            got = rumble.run(f"for $x in parallelize((3, 1, {n})) order by $x return $x")
            assert got == sorted([3, 1, n])
        with pytest.raises(TypeError_):
            rumble.run('for $x in parallelize((1, "a")) order by $x return $x')
        with pytest.raises(Exception):  # raised inside the materializing job
            rumble.run(
                'for $x in parallelize((1, {"a": 1})) where $x + 1 gt 0 '
                "order by $x return $x"
            )
        for n in (0, 4):
            for q, error in positional_queries(n):
                if error is None:
                    assert rumble.run(q) == local_engine.run(q)
                else:
                    with pytest.raises(error):
                        rumble.run(q)
        assert len(persisted()) == before

    def test_concurrent_queries_keep_their_own_materializations(self, spark):
        # Each thread's scope must release only its own query's
        # materializations, and a failed one only what it left behind.
        from repro.jsoniq.errors import TypeError_

        persisted = spark.sparkContext._jsc.getPersistentRDDs
        before = len(persisted())
        results, errors = {}, []

        def work(i):
            eng = spark_engine(spark)
            try:
                for j in range(2):
                    results[i, j] = eng.run(
                        f"for $x in parallelize((3, 1, {10 * i + j})) order by $x return $x"
                    )
                with pytest.raises(TypeError_):
                    eng.run('for $x in parallelize((1, "a")) order by $x return $x')
                with pytest.raises(Exception):
                    eng.run(
                        'for $x in parallelize((1, {"a": 1})) where $x + 1 gt 0 '
                        "order by $x return $x"
                    )
                for q, error in positional_queries(i):
                    if error is None:
                        results[i, q] = eng.run(q)
                    else:
                        with pytest.raises(error):
                            eng.run(q)
            except BaseException as e:  # surfaced below
                errors.append(e)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(300)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        local = Rumble(None, RumbleConfig(force_local=True))
        assert results == {
            **{(i, j): sorted([3, 1, 10 * i + j]) for i in range(6) for j in range(2)},
            **{(i, q): local.run(q) for i in range(6)
               for q, error in positional_queries(i) if error is None},
        }
        assert len(persisted()) == before

    def test_run_rdd_reads_its_materialization(self, rumble):
        rdd = rumble.run_rdd("for $x in parallelize((3, 1, 2)) order by $x return $x")
        assert rdd.collect() == [1, 2, 3]

    @pytest.mark.parametrize("query, expected", [
        ("for $x in parallelize((3, 1, 2), 2) count $c return [$x, $c]",
         [[3, 1], [1, 2], [2, 3]]),
        ("parallelize((3, 1, 4, 5), 2)[$$ - 1]", [4, 5]),
    ], ids=["count", "positional-predicate"])
    def test_run_rdd_reads_its_numbering(self, rumble, query, expected):
        rdd = rumble.run_rdd(query)
        assert rdd.collect() == expected

    def test_readme_query_runs_fewer_tasks_than_shuffle_partitions(
        self, spark, rumble, confusion_path
    ):
        # A 361 KB input is one partition. Three jobs of one task each:
        # the scan and partial group by, the checkpoint of the group-by
        # output, and the return pass over its in-place sort. No range
        # sort samples the checkpoint or shuffles it.
        sc = spark.sparkContext
        group = "order-by-task-count"
        q = (
            f'for $i in json-file("{confusion_path}") '
            "where $i.guess eq $i.target "
            "group by $t := $i.target "
            "order by count($i) descending "
            'return {"target": $t, "n": count($i)}'
        )
        sc.setJobGroup(group, group)
        try:
            got = rumble.run(q)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        counts = [o["n"] for o in got]
        assert counts and counts == sorted(counts, reverse=True)

        st = sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        tasks = 0
        for job in jobs:
            info = st.getJobInfo(job)
            for sid in info.stageIds if info else ():
                stage = st.getStageInfo(sid)
                if stage:
                    tasks += stage.numCompletedTasks + stage.numFailedTasks
        assert (len(jobs), tasks) == (3, 3)

    SORT_ROWS = [
        {"i": i, "g": i % 7, "v": i % 5, **({"e": i % 4} if i % 7 < 4 and i % 3 else {})}
        for i in range(40)
    ]

    @pytest.mark.parametrize("order", [
        "$n descending, $k",
        "$m, $n descending, $k descending",
        "$e empty greatest, $k",
        "$e descending empty least, $n, $k",
    ])
    def test_in_place_sort_of_group_by_output_matches_local(self, rumble, local_engine,
                                                            tmp_path, order):
        p = tmp_path / "s.json"
        p.write_text("".join(json.dumps(o) + "\n" for o in self.SORT_ROWS))
        # Four input partitions; adaptive execution coalesces the seven
        # groups to one.
        q = (f'for $o in json-file("{p}", 4) group by $k := $o.g '
             "let $n := count($o[$$.v gt 1]), $m := sum($o.v), $e := max($o.e) "
             f"order by {order} return [$k, $n, $m, $e]")
        assert self.range_sorted(rumble, q) is False
        assert rumble.run(q) == local_engine.run(q)

    @pytest.mark.parametrize("order", [
        "$o.v descending, $o.i",
        "$o.e empty greatest, $o.v, $o.i descending",
        "$o.e descending empty least, $o.g, $o.i",
    ])
    def test_range_sort_of_partitioned_input_matches_local(self, rumble, local_engine,
                                                           tmp_path, order):
        p = tmp_path / "s.json"
        p.write_text("".join(json.dumps(o) + "\n" for o in self.SORT_ROWS))
        q = f'for $o in json-file("{p}", 4) order by {order} return $o.i'
        assert self.range_sorted(rumble, q) is True
        assert rumble.run(q) == local_engine.run(q)

    @staticmethod
    def range_sorted(rumble, query) -> bool:
        """Whether the order by of ``query`` range-partitions its
        checkpoint, rather than sorting its one partition in place."""
        from repro.core.query_scope import query_scope

        with query_scope():
            df = rumble.compile(query)._build_tframe(rumble._ctx()).df
            plan = df._jdf.queryExecution().executedPlan().toString()
        assert "Sort [" in plan
        return "rangepartitioning" in plan


class TestOneEvaluationPerRow:
    """Numbering a sequence reads what it numbers once: a count clause
    and an initial positional `for` over the checkpoint of their frame
    (§4.9), a positional predicate over its persisted target."""

    ROWS = [{"i": i, "flag": i % 3 == 0} for i in range(40)]

    @staticmethod
    def counted(items, acc):
        """A source whose RDD adds each row it yields to ``acc``."""
        from repro.core.iterators.base import RuntimeIterator, active_spark

        class Counted(RuntimeIterator):
            is_source = True

            def supports_rdd(self, ctx):
                return True

            def get_rdd(self, ctx):
                def count(rows):
                    for row in rows:
                        acc.add(1)
                        yield row

                return active_spark().sparkContext.parallelize(items, 4).mapPartitions(count)

        return Counted()

    @pytest.mark.parametrize("query, expected", [
        ("for $o in parallelize(()) count $c where $c mod 3 eq 0 return $c",
         list(range(3, 41, 3))),
        ("for $o at $p in parallelize(()) where $p mod 3 eq 0 return [$o.i, $p]",
         [[p - 1, p] for p in range(3, 41, 3)]),
        ("parallelize(())[$$.flag]", [o for o in ROWS if o["flag"]]),
    ], ids=["count", "positional-for", "predicate"])
    def test_source_evaluated_once(self, spark, rumble, query, expected):
        from repro.core.query_scope import query_scope

        persisted = spark.sparkContext._jsc.getPersistentRDDs
        before = len(persisted())
        acc = spark.sparkContext.accumulator(0)
        it = rumble.compile(query)
        source = self.counted(self.ROWS, acc)
        if isinstance(it, FLWORIterator):
            it.clauses[0].expr = source
        else:
            it.target = source
        ctx = rumble._ctx()
        rumble._activate()
        with query_scope():
            assert it.supports_rdd(ctx)
            assert it.get_rdd(ctx).collect() == expected
        assert acc.value == len(self.ROWS)
        assert len(persisted()) == before
