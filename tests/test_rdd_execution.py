"""RDD execution path tests (paper §4.1, §5.6–§5.7): expression
push-down to Spark transformations, actions for aggregations, seamless
local/RDD switching, input functions."""
import importlib
import json
import socket
import statistics
import sys
import time
import warnings
import zipfile
import zipimport

import pytest

from repro.core import Rumble, RumbleConfig
from repro.core.iterators.base import quick_ack, worker_task
from repro.jsoniq.errors import TypeError_

#: A FLWOR that runs on Spark and returns no item.
EMPTY_FLWOR = "for $o in parallelize((1, 2)) where $o gt 5 return $o"
#: A 300-term ``1 + 1 + ...``: a tree too deep for Spark to pickle, so
#: no closure may ship it.
CHAIN = " + ".join(["1"] * 300)


class TestInputFunctions:
    def test_json_file_reads_rdd(self, rumble, mess_path):
        got = rumble.run(f'json-file("{mess_path}", 4)')
        assert len(got) == 3
        assert got[0]["foo"] == "1"

    def test_json_file_partitions_arg(self, rumble, mess_path):
        rdd = rumble.run_rdd(f'json-file("{mess_path}", 2)')
        assert rdd.getNumPartitions() <= 2

    def test_json_file_comma_paths_replicate(self, rumble, mess_path):
        got = rumble.run(f'count(json-file("{mess_path},{mess_path}"))')
        assert got == [6]

    def test_split_count_follows_spark_file_scan(self):
        from repro.core.iterators.input import split_count

        mb = 1 << 20
        scan = dict(parallelism=4, max_partition_bytes=128 * mb, open_cost=4 * mb)
        assert split_count(361_230, 1, **scan) == 1  # below openCost
        assert split_count(10 * mb, 1, **scan) == 3  # 4 MB splits
        assert split_count(17 * mb, 1, **scan) == 4  # above openCost x parallelism
        assert split_count(66 * mb, 1, **scan) == 4
        assert split_count(1024 * mb, 1, **scan) == 4  # 8 splits of 128 MB
        assert split_count(0, 0, **scan) == 1

    def test_json_file_partitions_follow_input_size(self, spark, rumble, tmp_path):
        sc = spark.sparkContext
        cores = sc.defaultParallelism
        small = tmp_path / "small.json"
        small.write_text('{"v": 1}\n' * 50)
        large = tmp_path / "large.json"
        large.write_text('{"v": 12345}\n' * (64 * cores))

        def parts(q: str) -> int:
            return rumble.run_rdd(q).getNumPartitions()

        assert parts(f'json-file("{small}")') == 1  # below openCost
        assert parts(f'json-file("{large}", 3)') == 3
        key = "spark.sql.files.openCostInBytes"
        cost = spark.conf.get(key)
        spark.conf.set(key, "8")
        try:
            # more bytes than openCost x parallelism: one split per core
            assert parts(f'json-file("{large}")') == cores
        finally:
            spark.conf.set(key, cost)
        for p in (small, large):
            floor = sc.textFile(str(p), minPartitions=cores).getNumPartitions()
            assert parts(f'json-file("{p}")') <= floor

    def test_parallelize(self, rumble):
        assert sorted(rumble.run("parallelize((1, 2, 3))")) == [1, 2, 3]

    def test_parallelize_num_slices(self, rumble):
        rdd = rumble.run_rdd("parallelize((1, 2, 3, 4), 2)")
        assert rdd.getNumPartitions() == 2

    def test_json_file_is_rdd(self, rumble, mess_path):
        it = rumble.compile(f'json-file("{mess_path}")')
        assert it.supports_rdd(rumble._ctx())

    def test_force_local_disables_rdd(self, mess_path):
        eng = Rumble(None, RumbleConfig(force_local=True))
        it = eng.compile(f'json-file("{mess_path}")')
        assert not it.supports_rdd(eng._ctx())
        # ... but the local streaming read still works.
        assert len(eng.run(f'json-file("{mess_path}")')) == 3


class TestExpressionPushdown:
    """§5.7: queries like json-file(...).foo[].bar[...] are detected as
    fully runnable on Spark; no intermediate is materialized."""

    def test_object_lookup_pushdown(self, rumble, mess_path):
        it = rumble.compile(f'json-file("{mess_path}").foo')
        assert it.supports_rdd(rumble._ctx())
        assert sorted(rumble.run(f'json-file("{mess_path}").foo')) == ["1", "2", "3"]

    def test_array_unbox_pushdown(self, rumble, mess_path):
        it = rumble.compile(f'json-file("{mess_path}").bar[]')
        assert it.supports_rdd(rumble._ctx())
        assert rumble.run(f'json-file("{mess_path}").bar[]') == [4]

    def test_predicate_pushdown(self, rumble, mess_path):
        q = f'json-file("{mess_path}")[$$.foobar eq true].foo'
        assert rumble.compile(q).supports_rdd(rumble._ctx())
        assert rumble.run(q) == ["1"]

    def test_paper_chain_query(self, rumble, tmp_path):
        import json

        p = tmp_path / "chain.json"
        rows = [
            {"foo": [{"bar": [{"foobar": "a"}, {"foobar": "b"}]}]},
            {"foo": [{"bar": [{"foobar": "a"}]}]},
            {"other": 1},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        q = f'json-file("{p}").foo[].bar[][$$.foobar eq "a"]'
        it = rumble.compile(q)
        assert it.supports_rdd(rumble._ctx())
        assert rumble.run(q) == [{"foobar": "a"}, {"foobar": "a"}]

    def test_array_lookup_pushdown(self, rumble):
        got = rumble.run("parallelize(([1, 2], [3, 4], 5))[[2]]")
        assert got == [2, 4]

    def test_positional_literal_predicate_on_rdd(self, rumble):
        q = "parallelize((10, 20, 30, 40), 2)[3]"
        assert rumble.compile(q).supports_rdd(rumble._ctx())
        assert rumble.run(q) == [30]

    @pytest.mark.parametrize("q,expected", [
        ("parallelize((10, 20, 30))[1 + 1]", [20]),
        ("parallelize((10, 20, 30))[2.0]", [20]),
        ("parallelize((10, 20, 30))[1.5]", []),
        ("parallelize((10, 20, 30))[$$ - 1]", []),
        # positions run on across partitions
        ("parallelize((2, 5, 4, 9), 2)[$$ - 1]", [2, 4]),
        ("parallelize((1, 0, 3, 0), 2)[$$]", [1, 3]),
    ], ids=["1+1", "2.0", "1.5", "$$-1", "$$-1 on 2 partitions", "$$ on 2 partitions"])
    def test_dynamic_positional_predicate_on_rdd(self, rumble, q, expected):
        assert rumble.compile(q).supports_rdd(rumble._ctx())
        local = Rumble(None, RumbleConfig(force_local=True)).run(q)
        assert rumble.run(q) == local == expected

    def test_boolean_predicate_builds_without_a_job(self, spark, rumble):
        """A comparison can only give a boolean: the predicate is a plain
        filter, with no zipWithIndex job to number the items."""
        sc, group = spark.sparkContext, "boolean-predicate"
        sc.setJobGroup(group, group)
        try:
            rdd = rumble.run_rdd("parallelize((1, 2, 3, 4), 2)[$$ gt 2]")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []
        assert sorted(rdd.collect()) == [3, 4]

    @pytest.mark.parametrize("pred", [
        "exists($$.a)", "empty($$.a)", "boolean($$.a)", "not($$.a)",
        'contains($$.s, "b")', 'starts-with($$.s, "a")', 'ends-with($$.s, "c")', "true",
    ])
    def test_boolean_builtin_predicate_builds_without_a_job(self, spark, rumble, tmp_path,
                                                            pred):
        """A builtin that never returns a number needs no position, so no
        zipWithIndex job counts the items of each partition. (PySpark's
        zipWithIndex is a mapPartitionsWithIndex: it leaves no mark in
        the lineage, only the job.)"""
        path = tmp_path / "p.json"
        path.write_text('{"a": 1, "s": "abc"}\n{"s": "xyz"}\n{"a": 0}\n{"a": null, "s": "ab"}\n')
        q = f'json-file("{path}", 2)[{pred}]'
        sc, group = spark.sparkContext, "boolean-builtin-predicate"
        sc.setJobGroup(group, group)
        try:
            rdd = rumble.run_rdd(q)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert sc.statusTracker().getJobIdsForGroup(group) == []
        assert rdd.getNumPartitions() == 2
        assert rdd.collect() == Rumble(None, RumbleConfig(force_local=True)).run(q)

    def test_positional_predicate_over_small_file_runs_one_job(self, spark, rumble, tmp_path):
        """A small input is one partition, and PySpark's zipWithIndex
        counts no partition sizes for one: the predicate that may give a
        number runs in the collecting job alone."""
        path = tmp_path / "f.json"
        path.write_text('{"flag": true}\n{"flag": false}\n{"flag": 3}\n{}\n{"flag": 5}\n')
        q = f'json-file("{path}")[$$.flag]'
        sc, group = spark.sparkContext, "positional-predicate"
        sc.setJobGroup(group, group)
        try:
            got = rumble.run(q)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
        local = Rumble(None, RumbleConfig(force_local=True)).run(q)
        assert got == local == [{"flag": True}, {"flag": 3}, {"flag": 5}]

    @pytest.mark.parametrize("q", [
        f'parallelize(({{"a": {CHAIN}}}, {{"a": 2}})).a',
        f"parallelize(([{CHAIN}], [2]))[[1]]",
        f"parallelize(([{CHAIN}], [2]))[]",
        f"parallelize(({CHAIN}, 2))[$$ gt 1]",
    ], ids=["lookup", "array-lookup", "unbox", "predicate"])
    def test_step_closure_leaves_its_target_behind(self, rumble, q):
        """A step's partition loop ships without its target, whose tree
        may be too deep to pickle."""
        assert rumble.compile(q).supports_rdd(rumble._ctx())
        assert rumble.run(q) == [300, 2]

    @pytest.mark.parametrize("q", ['parallelize(({"a": 1}, 2)).(1)',
                                   "parallelize(([1], [2]))[[(1, 2)]]"],
                             ids=["number-key", "two-item-index"])
    def test_bad_key_or_index_raises_on_the_driver(self, rumble, q):
        """A key or index is checked before any task runs: its TypeError_
        reaches the caller as is, not wrapped in a Spark error."""
        with pytest.raises(TypeError_) as e:
            rumble.run(q)
        assert type(e.value) is TypeError_

    def test_distinct_values_stays_distributed(self, rumble):
        q = "distinct-values(parallelize((1, 2, 2, 3, 3, 3)))"
        it = rumble.compile(q)
        assert it.supports_rdd(rumble._ctx())
        assert sorted(rumble.run(q)) == [1, 2, 3]


class TestAggregationActions:
    """§5.5: aggregating iterators invoke Spark actions on child RDDs."""

    def test_count_action(self, rumble):
        assert rumble.run("count(parallelize(1 to 100))") == [100]

    def test_sum_action(self, rumble):
        assert rumble.run("sum(parallelize(1 to 10))") == [55]

    def test_avg_action(self, rumble):
        assert rumble.run("avg(parallelize((2, 4)))") == [3.0]

    def test_min_max_actions(self, rumble):
        assert rumble.run("min(parallelize((3, 1, 2)))") == [1]
        assert rumble.run("max(parallelize((3, 1, 2)))") == [3]

    def test_count_of_filtered_rdd(self, rumble):
        assert rumble.run("count(parallelize(1 to 100)[$$ gt 90])") == [10]

    @pytest.mark.parametrize(
        "query,expected",
        [
            (f"sum({EMPTY_FLWOR}, 5)", [5]),
            (f"sum({EMPTY_FLWOR})", [0]),
            (f"avg({EMPTY_FLWOR})", []),
            (f"min({EMPTY_FLWOR})", []),
            (f"max({EMPTY_FLWOR})", []),
        ],
    )
    def test_empty_rdd_aggregates_match_local(self, rumble, local_engine, query, expected):
        assert rumble.compile(query).children[0].supports_rdd(rumble._ctx())
        assert rumble.run(query) == expected
        assert local_engine.run(query) == expected

    def test_aggregates_fold_across_partitions(self, rumble, local_engine):
        for fn in ("sum", "avg", "min", "max"):
            q = f"{fn}(parallelize((7, 3.5, 12, 1, 9, 4), 4))"
            assert rumble.run(q) == local_engine.run(q), fn
        q = 'min(parallelize(("b", "c", "a", "d"), 3))'
        assert rumble.run(q) == local_engine.run(q) == ["a"]

    @pytest.mark.parametrize("fn", ["min", "max"])
    def test_min_max_over_malformed_json_file_raise(self, rumble, local_engine, tmp_path, fn):
        p = tmp_path / "bad.json"
        p.write_text('{"a": 1}\n{"a": \n{"a": 3}\n')
        q = f'{fn}(json-file("{p}").a)'
        with pytest.raises(json.JSONDecodeError):
            local_engine.run(q)
        with pytest.raises(Exception, match="JSONDecodeError"):
            rumble.run(q)

    @pytest.mark.parametrize(
        "query,expected",
        [
            ("exists(parallelize(1 to 100))", [True]),
            ("empty(parallelize(1 to 100))", [False]),
            ("head(parallelize(1 to 100))", [1]),
            (f"exists({EMPTY_FLWOR})", [False]),
            (f"empty({EMPTY_FLWOR})", [True]),
            (f"head({EMPTY_FLWOR})", []),
            ("some $x in parallelize(1 to 100) satisfies $x eq 100", [True]),
            ("every $x in parallelize(1 to 100) satisfies $x lt 100", [False]),
        ],
    )
    def test_first_item_takes_one(self, spark, local_engine, query, expected):
        eng = Rumble(spark, RumbleConfig(materialization_cap=5))
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            assert eng.run(query) == expected
        assert not any("truncated" in str(x.message) for x in w)
        assert local_engine.run(query) == expected


class TestSeamlessSwitching:
    """§5.5: local API over an RDD-backed child materializes, capped."""

    def test_local_consumption_of_rdd(self, rumble):
        # string-join has no RDD support: it pulls the child locally.
        got = rumble.run('string-join(parallelize(("a", "b", "c")), "-")')
        assert got == ["a-b-c"]

    def test_materialization_cap_warns_and_truncates(self, spark):
        eng = Rumble(spark, RumbleConfig(materialization_cap=5))
        with warnings.catch_warnings(record=True) as w:
            warnings.simplefilter("always")
            got = eng.run("string-join(parallelize(1 to 100))")
        assert any("truncated" in str(x.message) for x in w)
        assert got == ["12345"]

    def test_run_rdd_returns_none_for_local(self, rumble):
        assert rumble.run_rdd("1 + 1") is None

    def test_run_cap(self, rumble):
        got = rumble.run("parallelize(1 to 1000)", cap=7)
        assert len(got) == 7


def _zip_importer_keys() -> list[str]:
    return [k for k, f in sys.path_importer_cache.items() if isinstance(f, zipimport.zipimporter)]


class TestWorkerTask:
    """A partition function the engine ships leaves its Python worker
    without ``zipimporter``s, which PySpark's per-task
    ``importlib.invalidate_caches()`` would make re-read their archives,
    and gets its rows without waiting for the worker's delayed ACK."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="TCP_QUICKACK is Linux's")
    def test_quick_ack_releases_a_write_held_by_nagle(self):
        with socket.create_server(("127.0.0.1", 0)) as server, \
                socket.create_connection(server.getsockname()) as client:
            conn, _ = server.accept()
            with conn:
                # An exchange puts the client in the mode where its
                # kernel delays each ACK (up to 40 ms).
                for _ in range(3):
                    conn.sendall(b"x")
                    client.recv(1)
                    client.sendall(b"y")
                    conn.recv(1)
                # Nagle holds the second small write until the first is
                # acknowledged.
                conn.sendall(b"a")
                conn.sendall(b"b")
                assert client.recv(1) == b"a"
                start = time.perf_counter()
                quick_ack()
                assert client.recv(1) == b"b"
                assert time.perf_counter() - start < 0.02

    def test_first_row_arrives_without_delayed_ack(self, spark):
        # Jobs back to back, one task per core. A task that reads its
        # whole partition leaves its worker to the next task, whose
        # header that worker's kernel then acknowledges late.
        def first_row_ms(part):
            rows = iter(part)
            start = time.perf_counter()
            next(rows, None)
            ms = (time.perf_counter() - start) * 1000
            for _ in rows:
                pass
            yield ms

        sc = spark.sparkContext
        n = sc.defaultParallelism
        jobs = [sc.parallelize(list(range(2 * n)), n).mapPartitions(worker_task(first_row_ms))
                .collect() for _ in range(6)]
        ms = [m for job in jobs[1:] for m in job]
        assert statistics.median(ms) < 20, ms

    def test_drops_zip_importers_and_imports_still_work(self, tmp_path):
        archive = tmp_path / "zmods.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("repro_zmod_a.py", "A = 1\n")
            z.writestr("repro_zmod_b.py", "B = 2\n")
        saved_path, saved_cache = list(sys.path), dict(sys.path_importer_cache)
        sys.path.insert(0, str(archive))
        try:
            assert importlib.import_module("repro_zmod_a").A == 1
            assert str(archive) in _zip_importer_keys()
            seen = []

            def keys_then_items(part):
                seen.append(_zip_importer_keys())
                return part

            assert list(worker_task(keys_then_items)([1, 2])) == [1, 2]
            assert seen == [[]]
            assert _zip_importer_keys() == []
            assert importlib.import_module("repro_zmod_b").B == 2
        finally:
            sys.path[:] = saved_path
            sys.path_importer_cache.clear()
            sys.path_importer_cache.update(saved_cache)
            for name in ("repro_zmod_a", "repro_zmod_b"):
                sys.modules.pop(name, None)

    def test_spark_tasks_leave_no_zip_importers(self, rumble):
        rdd = rumble.run_rdd("for $x in parallelize(1 to 8, 2) return $x")
        got = rdd.mapPartitions(lambda it: [list(it), [
            k for k, f in sys.path_importer_cache.items()
            if isinstance(f, zipimport.zipimporter)]]).collect()
        items, keys = got[0::2], got[1::2]
        assert sorted(x for part in items for x in part) == list(range(1, 9))
        assert keys == [[], []]


class TestPlanBuilding:
    """The engine writes its Spark SQL steps as SQL text and column
    names. PySpark wraps ``F.col`` and every ``Column`` method in a
    call-site capture: py4j round trips, a stack walk and an IPython
    import on the driver, for every call."""

    def test_spark_queries_capture_no_call_site(self, rumble, confusion_path, monkeypatch):
        from pyspark.errors import utils

        calls = []
        capture = utils._capture_call_site
        monkeypatch.setattr(utils, "_capture_call_site",
                            lambda depth: calls.append(depth) or capture(depth))
        p = confusion_path
        queries = [
            f'for $i in json-file("{p}") where $i.guess eq $i.target '
            f'group by $t := $i.target order by count($i) descending '
            f'return {{"target": $t, "n": count($i)}}',
            f'for $i in json-file("{p}") group by $t := $i.target '
            f'order by $t descending empty greatest return $t',
            f'for $i in json-file("{p}") count $c where $c le 3 return $c',
            f'for $i in json-file("{p}") group by $t := $i.target, $g := $i.guess '
            f'group by $t return count($g)',
            f'for $i in json-file("{p}", 2) group by $g := $i.guess return count($i)',
        ]
        assert all(rumble.run(q) for q in queries)
        assert calls == []

    @pytest.mark.parametrize("tail", [
        # Two keys over one group-by output group by its key column once.
        "group by $k := $o.g group by $k, $k return [$k, count($o)]",
        "group by $k := $o.h order by $k empty greatest, $k descending empty greatest "
        "return [$k, count($o)]",
        # A non-ASCII name still makes a plain SQL identifier.
        "let $é := $o.g group by $é return [$é, count($o)]",
    ])
    def test_sql_text_steps_match_local(self, rumble, local_engine, tail):
        q = ('for $o in parallelize(({"g": 1, "h": 2}, {"g": 2, "h": 2}, {"g": 1, "h": 3}, '
             '{"g": 1})) ' + tail)
        assert sorted(map(json.dumps, rumble.run(q))) == sorted(map(json.dumps, local_engine.run(q)))


def _shipped(monkeypatch) -> list:
    """Collects each command PySpark pickles for a task from now on."""
    from pyspark.serializers import CloudPickleSerializer

    commands = []
    dumps = CloudPickleSerializer.dumps
    monkeypatch.setattr(CloudPickleSerializer, "dumps",
                        lambda self, obj: commands.append(obj) or dumps(self, obj))
    return commands


def _met(obj) -> list:
    """The type of every iterator, clause and generated function
    ``cloudpickle`` meets while it pickles ``obj``."""
    import io

    from pyspark import cloudpickle

    from repro.core.codegen import Generated
    from repro.core.flwor.clauses import ClauseIterator
    from repro.core.iterators.base import RuntimeIterator

    class Recorder(cloudpickle.Pickler):
        def reducer_override(self, o):
            if isinstance(o, (RuntimeIterator, ClauseIterator, Generated)):
                met.append(type(o))
            return super().reducer_override(o)

    met = []
    Recorder(io.BytesIO()).dump(obj)
    return met


def _chain(n: int, term: str) -> str:
    """``term + term + ...`` over ``n`` terms."""
    return " + ".join([term] * n)


class TestShippedFunctions:
    """A Spark closure ships the generated function built on the driver,
    as its source and constants, not the iterator tree it came from."""

    @pytest.mark.parametrize("n", [200, 300])
    @pytest.mark.parametrize("shape", [
        "for $x in parallelize((1, 2)) return CHAIN",
        "parallelize((1, 2))[CHAIN gt 0]",
        "for $x in parallelize((1, 2, 3)) where CHAIN gt 0 group by $k := $x mod 2 "
        "return [$k, count($x)]",
        "for $x in parallelize((1, 2, 3)) let $y := CHAIN order by $y descending return $y",
    ], ids=["return-pass", "predicate", "where-group-by", "let-order-by"])
    def test_long_chain_runs_on_spark(self, rumble, local_engine, monkeypatch, shape, n):
        """A chain too deep to pickle as a tree runs on Spark, as it
        does locally: its closures ship generated functions and no
        node."""
        from repro.core.codegen import Generated

        q = shape.replace("CHAIN", _chain(n, "$$" if shape.startswith("parallelize") else "$x"))
        assert rumble.compile(q).supports_rdd(rumble._ctx())
        commands = _shipped(monkeypatch)
        got, local = rumble.run(q), local_engine.run(q)
        if "group by" in q:
            got, local = sorted(got), sorted(local)
        assert got == local and got
        assert set(t for c in commands for t in _met(c)) == {Generated}

    @pytest.mark.parametrize("workload,passes", [("reddit-project", 1), ("readme-small", 2)])
    def test_benchmark_closures_ship_no_tree(self, rumble, reddit_path, confusion_path,
                                             monkeypatch, workload, passes):
        """Neither benchmark query has a node constant, so no closure
        PySpark pickles for it meets an iterator or a clause: the return
        pass of one, the segment and return passes of the other."""
        from repro.core.codegen import Generated

        if workload == "reddit-project":
            q = (f'for $c in json-file("{reddit_path}") let $s := number($c.score) '
                 'where $c.year ge 2014 return {"author": $c.author, '
                 '"sub": $c.subreddit, "score": $s, "edited": $c.edited}')
        else:
            q = (f'for $i in json-file("{confusion_path}") where $i.guess eq $i.target '
                 'group by $t := $i.target order by count($i) descending '
                 'return {"target": $t, "n": count($i)}')
        commands = _shipped(monkeypatch)
        assert rumble.run(q)
        assert [t for c in commands for t in _met(c)] == [Generated] * passes

    def test_node_constant_ships_without_its_functions(self, spark, local_engine,
                                                       monkeypatch):
        """A node in a shipped function's constant table ships its
        subtree, but not the functions built for it earlier on the
        driver."""
        from repro.core.codegen import Generated
        from repro.core.dynamic_context import DynamicContext

        it = local_engine.compile("for $x in parallelize((1, 2)) return [1 to $x]")
        assert it.materialize(local_engine._ctx()) == [[1], [1, 2]]  # builds [1 to $x]'s evaluator
        commands = _shipped(monkeypatch)
        assert it.get_rdd(DynamicContext()).collect() == [[1], [1, 2]]
        assert [t for c in commands for t in _met(c)].count(Generated) == 1
