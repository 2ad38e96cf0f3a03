"""FLWOR DataFrame execution tests (paper §4.3–§4.10): the tuple
stream flows through Spark SQL; results must match the local path."""
import contextlib
import io
import re
import sys
import threading

import pytest

from repro.core import Rumble, RumbleConfig
from repro.core.flwor.flwor_iterator import FLWORIterator


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


_EVAL_NODE = re.compile(r"(?:ArrowEvalPython|BatchEvalPython) \[(.*)\], \[")
_CALL_END = re.compile(r"\)#(\d+)")


def udf_input_counts(df) -> list[int]:
    """Input count of every Python UDF call in the plan of ``df``,
    sorted. Spark chains a UDF that reads only another UDF's result into
    one node, ``f(f(col)#1)#2``, so calls are matched by parenthesis
    depth. A sub-plan printed twice (AQE's final and initial plan) is
    counted once, by expression id."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        df.explain()
    calls = {}
    for node in _EVAL_NODE.finditer(buf.getvalue()):
        text, open_args = node.group(1), []
        for i, ch in enumerate(text):
            if ch == "(":
                open_args.append(1)
            elif ch == "," and open_args:
                open_args[-1] += 1
            elif ch == ")":
                calls[_CALL_END.match(text, i).group(1)] = open_args.pop()
    return sorted(calls.values())


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

    def test_positional_for_var_stays_local(self, rumble):
        # §4.4: positional variables are not supported on DataFrames.
        q = "for $x at $p in parallelize((1, 2)) return $p"
        assert not df_backed(rumble, q)
        assert rumble.run(q) == [1, 2]

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

    def test_group_key_udf_reads_only_its_column(self, rumble):
        # The let UDF reads $o; the key UDF reads $v alone, not every
        # in-scope column.
        it = rumble.compile(
            "for $o in parallelize(({\"v\": 1}, {\"v\": 2}, {\"v\": 1})) "
            "let $v := $o.v group by $v return count($o)"
        )
        df = it._build_tframe(rumble._ctx()).df
        assert sorted(r[0] for r in df.collect()) == ["[1]", "[2]"]
        assert udf_input_counts(df) == [1, 1]

    def test_group_key_reconstruction_types(self, rumble):
        # Keys come back with their original types (int vs string vs bool).
        got = rumble.run(
            'for $x in parallelize((1, "1", true)) group by $k := $x return $k'
        )
        key = lambda v: (type(v).__name__, str(v))  # noqa: E731
        assert sorted(got, key=key) == sorted([1, "1", True], key=key)


class TestOrderByMaterialization:
    """The order-by materializes its keyed frame once per query (§4.8);
    the query releases it, and the sort runs at the partition count
    adaptive execution picks."""

    def test_queries_release_their_materializations(self, spark, rumble):
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
        assert len(persisted()) == before

    def test_concurrent_queries_keep_their_own_materializations(self, spark):
        # Each thread's scope must release only its own query's
        # materializations, and a failed one only what it left behind.
        from repro.jsoniq.errors import TypeError_

        persisted = spark.sparkContext._jsc.getPersistentRDDs
        before = len(persisted())
        results, errors = {}, []

        def work(i):
            eng = Rumble(spark)
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
        assert results == {
            (i, j): sorted([3, 1, 10 * i + j]) for i in range(6) for j in range(2)
        }
        assert len(persisted()) == before

    def test_run_rdd_reads_its_materialization(self, rumble):
        rdd = rumble.run_rdd("for $x in parallelize((3, 1, 2)) order by $x return $x")
        assert rdd.collect() == [1, 2, 3]

    def test_readme_query_runs_fewer_tasks_than_shuffle_partitions(
        self, spark, rumble, confusion_path
    ):
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
        tasks = 0
        for job in st.getJobIdsForGroup(group):
            info = st.getJobInfo(job)
            for sid in info.stageIds if info else ():
                stage = st.getStageInfo(sid)
                if stage:
                    tasks += stage.numCompletedTasks + stage.numFailedTasks
        assert 0 < tasks < int(spark.conf.get("spark.sql.shuffle.partitions"))
