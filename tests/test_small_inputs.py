"""Both sides of ``RumbleConfig.local_below_bytes``: a small
``json-file()`` input runs on the local engine without a Spark job, and
whatever asks for Spark (threshold 0, an explicit partition count,
``run_rdd``, a path off the local file system) still runs Spark jobs.
Jobs are counted under a job group with Spark's status tracker."""
import contextlib
import itertools

import pytest

from repro.core import RumbleConfig
from repro.core.iterators.basic import LiteralIterator
from repro.core.iterators.input import JsonFileIterator, small_input
from repro.jsoniq.errors import DynamicError

from .conftest import spark_engine

DEFAULT = RumbleConfig().local_below_bytes
_groups = itertools.count()


@contextlib.contextmanager
def jobs(spark):
    """A list that holds, once the block ends, the ids of the Spark jobs
    the block ran."""
    sc = spark.sparkContext
    group = f"small-inputs-{next(_groups)}"
    sc.setJobGroup(group, group)
    ran: list[int] = []
    try:
        yield ran
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        ran += sc.statusTracker().getJobIdsForGroup(group)


@pytest.fixture()
def tiny(tmp_path) -> str:
    p = tmp_path / "tiny.json"
    p.write_text("".join(f'{{"a": {i}}}\n' for i in range(10)))
    return str(p)


def test_tiny_input_runs_no_spark_job(spark, tiny):
    eng = spark_engine(spark, local_below_bytes=DEFAULT)
    with jobs(spark) as ran:
        assert eng.run(f'count(for $o in json-file("{tiny}") where $o.a ge 5 return $o)') == [5]
        assert eng.run(f'for $o in json-file("{tiny}") group by $k := $o.a mod 2 '
                       f'order by $k return count($o)') == [5, 5]
    assert ran == []


@pytest.mark.parametrize("query, config", [
    ('count(json-file("{p}"))', {}),
    ('count(json-file("{p}", 2))', {"local_below_bytes": DEFAULT}),
], ids=["threshold-0", "partition-count"])
def test_spark_is_asked_for(spark, tiny, query, config):
    with jobs(spark) as ran:
        assert spark_engine(spark, **config).run(query.format(p=tiny)) == [10]
    assert len(ran) >= 1


def test_run_rdd_runs_on_spark(spark, tiny):
    eng = spark_engine(spark, local_below_bytes=DEFAULT)
    with jobs(spark) as ran:
        rdd = eng.run_rdd(f'for $o in json-file("{tiny}") where $o.a lt 3 return $o.a')
        assert rdd is not None and sorted(rdd.collect()) == [0, 1, 2]
    assert len(ran) >= 1


@pytest.mark.parametrize("path", ["hdfs://namenode:8020/tiny.json", "s3a://bucket/tiny.json",
                                  "file:///tiny.json", "{present},hdfs://namenode/x.json"])
def test_a_path_off_the_local_file_system_stays_on_spark(spark, tiny, path):
    """Decided from the path's text alone: nothing is read or listed."""
    path = path.format(present=tiny)
    assert not small_input(spark.sparkContext, path, DEFAULT)
    it = JsonFileIterator(LiteralIterator(path))
    eng = spark_engine(spark, local_below_bytes=DEFAULT)
    eng._activate()
    assert it.supports_rdd(eng._ctx())


def test_another_default_file_system_stays_on_spark(spark, tiny):
    conf = spark.sparkContext._jsc.hadoopConfiguration()
    before = conf.get("fs.defaultFS")
    assert small_input(spark.sparkContext, tiny, DEFAULT)
    conf.set("fs.defaultFS", "hdfs://namenode:8020")
    try:
        assert not small_input(spark.sparkContext, tiny, DEFAULT)
    finally:
        conf.set("fs.defaultFS", before)


def test_the_decision_reads_the_size(spark, tiny, tmp_path):
    sc = spark.sparkContext
    size = len(open(tiny, "rb").read())
    assert small_input(sc, tiny, size + 1)
    assert not small_input(sc, tiny, size)
    # Two comma-separated parts count twice.
    assert not small_input(sc, f"{tiny},{tiny}", 2 * size)
    assert small_input(sc, f"{tmp_path}/*.json", size + 1)


@pytest.mark.parametrize("threshold", [0, DEFAULT])
def test_missing_input_raises_on_both_sides(spark, tmp_path, threshold):
    missing = str(tmp_path / "no-such-file.json")
    with pytest.raises(DynamicError, match="no file matches"):
        spark_engine(spark, local_below_bytes=threshold).run(f'count(json-file("{missing}"))')


def test_local_and_spark_agree_across_the_threshold(spark, tiny):
    q = (f'for $o at $p in json-file("{tiny}") where $p mod 3 eq 1 '
         f'group by $k := $o.a mod 2 order by $k return [$k, count($o)]')
    local = spark_engine(spark, local_below_bytes=DEFAULT).run(q)
    assert local == spark_engine(spark).run(q) == [[0, 2], [1, 2]]

