"""Experiment-driver tests: every T1–T5 driver runs end-to-end at tiny
scale, produces sane measurements, and the job entrypoints print their
tables."""
import sys
from pathlib import Path

import pytest

from repro.workloads import experiments as X
from repro.workloads.harness import format_table

JOBS_DIR = str(Path(__file__).resolve().parent.parent / "jobs")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("exp"))


class TestDatasetCaching:
    def test_confusion_file_cached(self, workdir):
        p1 = X.confusion_file(workdir, 500)
        import os

        mtime = os.path.getmtime(p1)
        p2 = X.confusion_file(workdir, 500)
        assert p1 == p2 and os.path.getmtime(p2) == mtime

    def test_reddit_file(self, workdir):
        p = X.reddit_file(workdir, 300)
        assert sum(1 for _ in open(p)) == 300


class TestT1:
    def test_warm_up_runs_every_query_of_every_system_once(self, workdir, monkeypatch):
        ran = []
        queries = ("filter", "group", "sort")
        monkeypatch.setattr(X, "runners_for", lambda system, spark, path: {
            q: lambda q=q: ran.append((system, q)) for q in queries})
        X.warm_up(None, workdir)
        assert sorted(ran) == sorted((s, q) for s in X.SYSTEMS for q in queries)

    def test_t1_runs_all_cells(self, spark, workdir):
        rows = X.t1_local_engines(spark, workdir, sizes=(500,),
                                  queries=("filter", "group"))
        assert len(rows) == len(X.SYSTEMS) * 2
        assert all(not m.dnf for m in rows)
        # all four systems agree on the filter count
        counts = {m.system: m.result for m in rows if m.query == "filter"}
        assert len(set(counts.values())) == 1

    def test_t1_sort_cells(self, spark, workdir):
        rows = X.t1_local_engines(spark, workdir, sizes=(500,), queries=("sort",),
                                  systems=("rumble", "spark-sql"))
        a, b = rows
        assert a.result == b.result  # identical top-10


class TestT2:
    def test_t2_all_engines_finish_small(self, spark, workdir):
        rows = X.t2_jsoniq_engines(spark, workdir, sizes=(300,), budget_s=120)
        assert len(rows) == 9
        assert all(not m.dnf for m in rows)

    def test_t2_deadline_produces_dnf(self, spark, workdir):
        rows = X.t2_jsoniq_engines(spark, workdir, sizes=(2_000,),
                                   budget_s=0.0, queries=("group",))
        by_system = {m.system: m for m in rows}
        assert by_system["zorba-like"].dnf
        assert by_system["xidel-like"].dnf
        assert not by_system["rumble"].dnf  # Spark side has no local cap


class TestT3:
    def test_t3_replication(self, spark, workdir):
        # All four systems must handle the comma-joined replication
        # paths (DataFrameReader needs the list form — regression for
        # the PATH_NOT_FOUND failure on read.json("a,b")).
        rows = X.t3_cluster(spark, workdir, base_n=300, factor=3,
                            queries=("filter",), systems=X.SYSTEMS)
        assert all(m.scale == 900 for m in rows)
        assert len({m.result for m in rows}) == 1


class TestT4:
    def test_t4_partitions_sweep(self, spark, workdir):
        rows = X.t4_speedup(spark, workdir, n=500, partitions=(1, 2))
        assert [m.scale for m in rows] == [1, 2]
        assert all(m.cpu_s is not None for m in rows)
        assert len({m.result for m in rows}) == 1  # same answer at all p


class TestT5:
    def test_t5_factors(self, spark, workdir):
        rows = X.t5_scaling(spark, workdir, base_n=300, factors=(1, 2, 4))
        assert [m.scale for m in rows] == [300, 600, 1200]
        # count scales exactly with replication
        assert rows[1].result == 2 * rows[0].result
        assert rows[2].result == 4 * rows[0].result

    def test_linear_fit_r2(self):
        assert X.linear_fit_r2([1, 2, 3], [2.0, 4.0, 6.0]) == pytest.approx(1.0)
        assert X.linear_fit_r2([1, 2, 3, 4], [1, 5, 2, 9]) < 0.9


class TestJobEntrypoints:
    """Each job's main() runs at tiny scale against the session fixture
    (SparkSession.getOrCreate reuses it) and prints its table."""

    @pytest.fixture(autouse=True)
    def _jobs_on_path(self, monkeypatch):
        monkeypatch.syspath_prepend(JOBS_DIR)
        # _common is imported by each job module
        yield
        for mod in list(sys.modules):
            if mod.startswith("table") or mod == "_common":
                sys.modules.pop(mod, None)

    def test_table1_main(self, spark, workdir, capsys):
        import table1_local

        table1_local.main(["--workdir", workdir, "--sizes", "300",
                           "--systems", "rumble", "spark-sql"])
        out = capsys.readouterr().out
        assert "T1 (Fig. 11)" in out and "rumble" in out

    def test_table2_main(self, spark, workdir, capsys):
        import table2_jsoniq_engines

        table2_jsoniq_engines.main(
            ["--workdir", workdir, "--sizes", "300", "--budget-s", "120"]
        )
        out = capsys.readouterr().out
        assert "T2 (Fig. 12)" in out and "zorba-like" in out

    def test_table3_main(self, spark, workdir, capsys):
        import table3_cluster

        table3_cluster.main(["--workdir", workdir, "--base-n", "300",
                             "--factor", "2", "--systems", "rumble"])
        out = capsys.readouterr().out
        assert "T3 (Fig. 13)" in out

    def test_table4_main(self, spark, workdir, capsys):
        import table4_speedup

        table4_speedup.main(["--workdir", workdir, "--n", "300",
                             "--partitions", "1", "2"])
        out = capsys.readouterr().out
        assert "T4 (Fig. 14)" in out and "speedup" in out

    def test_table5_main(self, spark, workdir, capsys):
        import table5_scaling

        table5_scaling.main(["--workdir", workdir, "--base-n", "300",
                             "--factors", "1", "2"])
        out = capsys.readouterr().out
        assert "T5 (Fig. 15)" in out and "R^2" in out


class TestFormatting:
    def test_format_table_roundtrip(self, spark, workdir):
        rows = X.t1_local_engines(spark, workdir, sizes=(300,),
                                  queries=("filter",), systems=("rumble",))
        text = format_table("T1", rows)
        assert "rumble" in text and "filter" in text
