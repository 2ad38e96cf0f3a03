"""Result-correctness against the DuckDB oracle.

Every paper query is run by Rumble on Spark and checked row-for-row
against DuckDB over the same input (via ``repro.oracle``). JSONiq
results (sequences of objects) are converted to Spark DataFrames for
the comparison. FLWOR queries over the TPC-H-lite tables additionally
exercise the engine on classic relational shapes.
"""
import pandas as pd
import pytest

from repro import synth_data
from repro.oracle import assert_equivalent
from repro.workloads import queries as Q


def items_to_spark_df(spark, items, columns):
    """Sequence of JSONiq objects → Spark DataFrame with fixed columns."""
    pdf = pd.DataFrame([{c: o.get(c) for c in columns} for o in items],
                       columns=columns)
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def confusion_no_choices(confusion_pdf):
    # scalar-only projection for oracle comparisons (array columns are
    # not orderable in the diff)
    return confusion_pdf.drop(columns=["choices"])


class TestConfusionQueriesVsDuckDB:
    def test_filter_count(self, rumble, spark, confusion_path, confusion_no_choices):
        n = rumble.run_one(Q.jsoniq_filter(confusion_path))
        df = spark.createDataFrame(pd.DataFrame({"n": [n]}))
        assert_equivalent(df, Q.DUCKDB_FILTER, confusion=confusion_no_choices)

    def test_group_counts(self, rumble, spark, confusion_path, confusion_no_choices):
        out = rumble.run(Q.jsoniq_group(confusion_path))
        df = items_to_spark_df(spark, out, ["target", "n"])
        assert_equivalent(df, Q.DUCKDB_GROUP, confusion=confusion_no_choices)

    def test_sort_full_result(self, rumble, spark, confusion_path, confusion_no_choices):
        out = rumble.run(Q.jsoniq_sort(confusion_path))
        df = items_to_spark_df(spark, out, ["guess", "target", "country", "date"])
        assert_equivalent(df, Q.DUCKDB_SORT, confusion=confusion_no_choices)

    def test_sort_top10_order(self, rumble, confusion_path, confusion_pdf):
        # Four input partitions: the order by range-sorts its checkpoint
        # (the full result above sorts one partition in place).
        got = rumble.run(Q.jsoniq_sort(confusion_path, partitions=4), cap=10)
        pdf = confusion_pdf[confusion_pdf.guess == confusion_pdf.target]
        expected = pdf.sort_values(
            ["target", "country", "date"], ascending=[True, False, False]
        ).head(10)[["guess", "target", "country", "date"]].to_dict("records")
        assert got == expected


class TestTPCHLiteFLWOR:
    """FLWOR over structured TPC-H-lite rows (SF=0.001) vs DuckDB."""

    SF = 0.001

    @pytest.fixture(scope="class")
    def orders_path(self, spark, tmp_path_factory):
        pdf = synth_data.orders(spark, sf=self.SF).toPandas()
        pdf["o_orderdate"] = pdf["o_orderdate"].astype(str)
        p = tmp_path_factory.mktemp("tpch") / "orders.json"
        synth_data.write_jsonlines(str(p), pdf.to_dict("records"))
        return str(p), pdf

    @pytest.fixture(scope="class")
    def lineitem_path(self, spark, tmp_path_factory):
        pdf = synth_data.lineitem(spark, sf=self.SF).toPandas()
        pdf["l_shipdate"] = pdf["l_shipdate"].astype(str)
        p = tmp_path_factory.mktemp("tpch") / "lineitem.json"
        synth_data.write_jsonlines(str(p), pdf.to_dict("records"))
        return str(p), pdf

    def test_orders_count_by_status(self, rumble, spark, orders_path):
        path, pdf = orders_path
        out = rumble.run(
            f'for $o in json-file("{path}") group by $s := $o.o_orderstatus '
            f'return {{"o_orderstatus": $s, "n": count($o)}}'
        )
        df = items_to_spark_df(spark, out, ["o_orderstatus", "n"])
        assert_equivalent(
            df,
            "SELECT o_orderstatus, COUNT(*) AS n FROM orders GROUP BY o_orderstatus",
            orders=pdf,
        )

    def test_orders_filter_priority(self, rumble, spark, orders_path):
        path, pdf = orders_path
        n = rumble.run_one(
            f'count(for $o in json-file("{path}") '
            f'where $o.o_orderpriority eq "1-URGENT" and $o.o_totalprice gt 100000 '
            f"return $o)"
        )
        df = spark.createDataFrame(pd.DataFrame({"n": [n]}))
        assert_equivalent(
            df,
            "SELECT COUNT(*) AS n FROM orders "
            "WHERE o_orderpriority = '1-URGENT' AND o_totalprice > 100000",
            orders=pdf,
        )

    def test_lineitem_agg_by_returnflag(self, rumble, spark, lineitem_path):
        path, pdf = lineitem_path
        out = rumble.run(
            f'for $l in json-file("{path}") '
            f"group by $f := $l.l_returnflag "
            f'return {{"l_returnflag": $f, "n": count($l), '
            f'"qty": sum($l.l_quantity)}}'
        )
        df = items_to_spark_df(spark, out, ["l_returnflag", "n", "qty"])
        assert_equivalent(
            df,
            "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty "
            "FROM lineitem GROUP BY l_returnflag",
            lineitem=pdf,
        )

    def test_lineitem_top_discounted(self, rumble, spark, lineitem_path):
        path, pdf = lineitem_path
        out = rumble.run(
            f'for $l in json-file("{path}", 4) '
            f"where $l.l_discount ge 0.05 "
            f"order by $l.l_extendedprice descending, $l.l_orderkey, $l.l_linenumber "
            f'return {{"l_orderkey": $l.l_orderkey, "price": $l.l_extendedprice}}'
        )[:50]
        df = items_to_spark_df(spark, out, ["l_orderkey", "price"])
        assert_equivalent(
            df,
            "SELECT l_orderkey, l_extendedprice AS price FROM lineitem "
            "WHERE l_discount >= 0.05 "
            "ORDER BY l_extendedprice DESC, l_orderkey, l_linenumber LIMIT 50",
            lineitem=pdf,
        )


class TestHeterogeneousBeyondSQL:
    """The Fig. 5 mess dataset: behaviours Spark SQL cannot express
    (checked against hand-computed expectations, DESIGN.md §6)."""

    def test_type_preserving_scan(self, rumble, mess_path):
        got = rumble.run(f'json-file("{mess_path}").bar')
        assert got == [2, [4], "6"]  # original types preserved (vs Fig. 6)

    def test_missing_field_is_empty_not_null(self, rumble, mess_path):
        got = rumble.run(f'count(json-file("{mess_path}").foobar)')
        assert got == [2]  # third object has no foobar at all

    def test_mixed_type_grouping(self, rumble, mess_path):
        got = rumble.run(
            f'for $o in parallelize(json-file("{mess_path}")) '
            f"group by $k := $o.foobar return count($o)"
        )
        assert sorted(got) == [1, 1, 1]  # true, "false", missing

    def test_on_the_fly_normalization(self, rumble, mess_path):
        # unify bar: unwrap arrays, cast strings, keep numbers
        got = rumble.run(
            f'for $o in json-file("{mess_path}") '
            f"return number(if (exists($o.bar[])) then $o.bar[] else $o.bar)"
        )
        assert got == [2.0, 4.0, 6.0]
