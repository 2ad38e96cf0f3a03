"""Baseline-system correctness: all four systems (Rumble, raw-Spark
substitute, Spark SQL, PySpark RDD) must return the same answers on the
confusion dataset, and the single-threaded engines must both compute
correct results and honour the Fig. 12 resource caps."""
import pytest

from repro.baselines import local_single_thread, pyspark_rdd, spark_native, spark_sql
from repro.jsoniq.errors import DeadlineExceeded, MaterializationCapExceeded
from repro.workloads import queries as Q


@pytest.fixture(scope="module")
def expected(confusion_pdf):
    pdf = confusion_pdf
    filter_n = int((pdf.guess == pdf.target).sum())
    group = {t: int(n) for t, n in pdf.groupby("target").size().items()}
    top = (
        pdf[pdf.guess == pdf.target]
        .sort_values(["target", "country", "date"], ascending=[True, False, False])
        .head(10)[["guess", "target", "country", "date"]]
        .to_dict("records")
    )
    return filter_n, group, top


class TestAllSystemsAgree:
    def test_filter(self, spark, rumble, confusion_path, expected):
        n, _, _ = expected
        assert rumble.run_one(Q.jsoniq_filter(confusion_path)) == n
        assert spark_native.filter_count(spark, confusion_path) == n
        assert spark_sql.filter_count(spark, confusion_path) == n
        assert pyspark_rdd.filter_count(spark, confusion_path) == n

    def test_group(self, spark, rumble, confusion_path, expected):
        _, group, _ = expected

        def as_map(rows):
            return {r["target"]: r["n"] for r in rows}

        assert as_map(rumble.run(Q.jsoniq_group(confusion_path))) == group
        assert as_map(spark_native.group_counts(spark, confusion_path)) == group
        assert as_map(spark_sql.group_counts(spark, confusion_path)) == group
        assert as_map(pyspark_rdd.group_counts(spark, confusion_path)) == group

    def test_sort(self, spark, rumble, confusion_path, expected):
        _, _, top = expected
        assert rumble.run(Q.jsoniq_sort(confusion_path), cap=10) == top
        assert spark_native.sort_top(spark, confusion_path) == top
        assert spark_sql.sort_top(spark, confusion_path) == top
        assert pyspark_rdd.sort_top(spark, confusion_path) == top


class TestSingleThreadedEngines:
    def test_zorba_like_correct(self, confusion_path, expected):
        n, group, top = expected
        assert local_single_thread.zorba_like(Q.jsoniq_filter(confusion_path)) == [n]
        got = local_single_thread.zorba_like(Q.jsoniq_group(confusion_path))
        assert {r["target"]: r["n"] for r in got} == group
        assert local_single_thread.zorba_like(Q.jsoniq_sort(confusion_path), cap=10) == top

    def test_xidel_like_correct(self, confusion_path, expected):
        n, group, _ = expected
        assert local_single_thread.xidel_like(Q.jsoniq_filter(confusion_path)) == [n]
        got = local_single_thread.xidel_like(Q.jsoniq_group(confusion_path))
        assert {r["target"]: r["n"] for r in got} == group

    def test_zorba_like_streams_filter_within_cap(self, confusion_path):
        # A streaming engine can run a count/filter with a tiny item
        # cap: it never holds the dataset (Zorba handled the filter
        # query on all 16M objects in Fig. 12).
        out = local_single_thread.zorba_like(
            Q.jsoniq_filter(confusion_path), item_cap=100
        )
        assert out[0] > 0

    def test_xidel_like_dies_on_filter_with_cap(self, confusion_path):
        # The naive engine materializes the whole input first (Xidel
        # ran out of memory even on the filter query in Fig. 12).
        with pytest.raises(MaterializationCapExceeded):
            local_single_thread.xidel_like(
                Q.jsoniq_filter(confusion_path), item_cap=100
            )

    def test_zorba_like_dies_on_sort_with_cap(self, confusion_path):
        # Ordering must materialize the tuple stream: the memory cap
        # bites, like Zorba's 16 GB limit on the sorting query.
        with pytest.raises(MaterializationCapExceeded):
            local_single_thread.zorba_like(
                Q.jsoniq_sort(confusion_path), item_cap=100
            )

    def test_deadline_exceeded(self, confusion_path):
        with pytest.raises(DeadlineExceeded):
            local_single_thread.zorba_like(
                Q.jsoniq_group(confusion_path), budget_s=0.0
            )

    @pytest.mark.parametrize("engine, query, dies_at", [
        ("zorba_like", "filter", ()),
        ("zorba_like", "group", ("100", "N-1")),
        ("zorba_like", "sort", ("100",)),
        ("xidel_like", "filter", ("100", "N-1")),
        ("xidel_like", "group", ("100", "N-1")),
        ("xidel_like", "sort", ("100", "N-1")),
    ])
    @pytest.mark.parametrize("item_cap", ["100", "N-1", "N+100", "5000"])
    def test_item_cap_dnf_pattern(self, confusion_path, confusion_pdf,
                                  engine, query, dies_at, item_cap):
        # Fig. 12's pattern, scaled to N objects: the streaming engine
        # dies only where a clause holds its input (group holds all N,
        # sort the matches), the naive one wherever the input exceeds
        # the cap.
        n = len(confusion_pdf)
        cap = {"100": 100, "N-1": n - 1, "N+100": n + 100, "5000": 5000}[item_cap]
        run = getattr(local_single_thread, engine)
        text = getattr(Q, f"jsoniq_{query}")(confusion_path)
        if item_cap in dies_at:
            with pytest.raises(MaterializationCapExceeded):
                run(text, item_cap=cap)
        else:
            run(text, item_cap=cap)

    def test_harness_reports_dnf(self, confusion_path):
        from repro.workloads.harness import measure

        m = measure(
            "xidel-like", "filter", 2000,
            lambda: local_single_thread.xidel_like(
                Q.jsoniq_filter(confusion_path), item_cap=10
            ),
        )
        assert m.dnf and "MaterializationCapExceeded" in m.dnf_reason
